"""Unit tests of what is left of the shared-memory transport module.

The process shard pool and its ``/dev/shm`` arena are retired; the module
keeps the leak oracle and the transport meter that the benchmark harness
imports.  Nothing in the package maps shared memory any more, so the
meter reads zero and no run leaves a segment behind.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import shardmem
from repro.core.shardmem import TransportMeter, live_segments, set_transport_meter
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment


class TestLiveSegments:
    def test_lists_only_the_retired_prefix_in_order(self, monkeypatch):
        entries = ["repro-shm-b", "other", "repro-shm-a", "sem.repro-shm-c"]
        monkeypatch.setattr(shardmem.os, "listdir", lambda path: list(entries))
        assert live_segments() == ("repro-shm-a", "repro-shm-b")

    def test_a_missing_dev_shm_reads_as_empty(self, monkeypatch):
        def missing(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(shardmem.os, "listdir", missing)
        assert live_segments() == ()


class TestTransportMeter:
    @pytest.mark.parametrize("execution", ["pool", "batch"])
    def test_runs_move_nothing_through_shared_memory(self, execution):
        before = live_segments()
        meter = TransportMeter()
        set_transport_meter(meter)
        try:
            run_experiment(
                replace(
                    CaseStudyConfig(num_users=60, num_trials=2, end_year=2006),
                    execution=execution,
                    max_workers=2,
                )
            )
        finally:
            set_transport_meter(None)
        assert meter.per_step_shared() == 0.0
        assert meter.per_step_pickled() == 0.0
        assert live_segments() == before
