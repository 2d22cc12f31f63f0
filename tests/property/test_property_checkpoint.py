"""Hypothesis properties of checkpoint/resume bit-identity.

The fault-tolerance invariant is absolute: a trial interrupted at *any*
step and resumed from *any* checkpoint cadence replays the uninterrupted
trajectory byte for byte, in every recording mode and retraining mode,
whatever the shard count.  The random streams are stateless per
``(trial, shard, step)``, so the property is structural, not statistical —
hypothesis hunts the boundary cases (interrupt right at a checkpoint
boundary, cadence longer than the run, cut at the final step).

The codec property closes the loop at the byte level: any picklable
payload survives serialize → deserialize, and any torn prefix of the
serialized bytes is *rejected*, never misread.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    CheckpointError,
    deserialize_payload,
    serialize_payload,
)
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_trial
from repro.testing.faults import (
    KILL_EXIT_CODE,
    FaultInjected,
    FaultSpec,
    clear_plan,
    install_plan,
    plan_environment,
)

#: 30 users, 2002-2012: eleven steps, two refit years — enough structure
#: to exercise retraining across a resume, small enough for hypothesis.
NUM_STEPS = 11


def _config(seed: int) -> CaseStudyConfig:
    return CaseStudyConfig(num_users=30, num_trials=1, seed=seed, end_year=2012)


#: Uninterrupted goldens, one per (seed, history_mode, retrain_mode) —
#: computed lazily so each hypothesis example pays for one resumed run,
#: not two full ones.
_GOLDENS: dict = {}


def _golden(seed: int, history_mode: str, retrain_mode: str):
    key = (seed, history_mode, retrain_mode)
    if key not in _GOLDENS:
        clear_plan()
        _GOLDENS[key] = run_trial(
            replace(_config(seed), history_mode=history_mode, retrain_mode=retrain_mode),
            trial_index=0,
        )
    return _GOLDENS[key]


def _assert_same_trajectory(golden, resumed, history_mode: str) -> None:
    for race, series in golden.group_default_rates.items():
        np.testing.assert_array_equal(series, resumed.group_default_rates[race])
    if history_mode == "full":
        np.testing.assert_array_equal(
            golden.history.decisions_matrix(), resumed.history.decisions_matrix()
        )
        np.testing.assert_array_equal(
            golden.history.actions_matrix(), resumed.history.actions_matrix()
        )
        np.testing.assert_array_equal(
            golden.user_default_rates, resumed.user_default_rates
        )


class TestResumeBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=3),
        history_mode=st.sampled_from(["full", "aggregate"]),
        retrain_mode=st.sampled_from(["exact", "compressed"]),
        num_shards=st.sampled_from([1, 2, 4]),
        cut=st.integers(min_value=1, max_value=NUM_STEPS - 1),
        every=st.integers(min_value=1, max_value=NUM_STEPS + 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_interrupt_anywhere_resume_bit_identically(
        self, seed, history_mode, retrain_mode, num_shards, cut, every
    ):
        golden = _golden(seed, history_mode, retrain_mode)
        clear_plan()
        with tempfile.TemporaryDirectory() as snapshots:
            config = replace(
                _config(seed),
                history_mode=history_mode,
                retrain_mode=retrain_mode,
                num_shards=num_shards,
                checkpoint_dir=snapshots,
                checkpoint_every=every,
            )
            install_plan([FaultSpec(site="loop_step", kind="raise", step=cut)])
            try:
                with pytest.raises(FaultInjected):
                    run_trial(config, trial_index=0)
                resumed = run_trial(replace(config, resume=True), trial_index=0)
            finally:
                clear_plan()
        _assert_same_trajectory(golden, resumed, history_mode)

    @given(cut=st.integers(min_value=1, max_value=NUM_STEPS - 1))
    @settings(max_examples=5, deadline=None)
    def test_process_kill_at_random_step_then_resume(self, cut):
        """A hard ``os._exit`` kill (not an exception) at a random step.

        The victim runs in a child interpreter so the kill is real; the
        parent then resumes from whatever snapshots the victim managed to
        land, and must reproduce the uninterrupted golden.
        """
        golden = _golden(0, "full", "exact")
        clear_plan()
        with tempfile.TemporaryDirectory() as snapshots:
            script = (
                "import sys; sys.path.insert(0, sys.argv[1])\n"
                "from repro.experiments.config import CaseStudyConfig\n"
                "from repro.experiments.runner import run_trial\n"
                "run_trial(\n"
                "    CaseStudyConfig(\n"
                "        num_users=30, num_trials=1, seed=0, end_year=2012,\n"
                "        checkpoint_dir=sys.argv[2], checkpoint_every=2,\n"
                "    ),\n"
                "    trial_index=0,\n"
                ")\n"
            )
            environment = dict(os.environ)
            environment.update(
                plan_environment(
                    [FaultSpec(site="loop_step", kind="kill", step=cut)],
                    state_dir=snapshots,
                )
            )
            source_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
            victim = subprocess.run(
                [sys.executable, "-c", script, source_root, snapshots],
                env=environment,
                capture_output=True,
                timeout=300,
            )
            assert victim.returncode == KILL_EXIT_CODE, victim.stderr.decode()
            resumed = run_trial(
                replace(
                    _config(0), checkpoint_dir=snapshots, checkpoint_every=2, resume=True
                ),
                trial_index=0,
            )
        _assert_same_trajectory(golden, resumed, "full")


class TestCodecProperties:
    @given(
        payload=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(),
                st.floats(allow_nan=False),
                st.binary(max_size=64),
                st.lists(st.integers(), max_size=8),
            ),
            max_size=8,
        ),
        step=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_payload(self, payload, step):
        payload = dict(payload, step=step)
        assert deserialize_payload(serialize_payload(payload)) == payload

    @given(
        cut=st.integers(min_value=0, max_value=10**6),
        step=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_torn_prefix_is_rejected(self, cut, step):
        data = serialize_payload({"step": step, "body": list(range(64))})
        cut = cut % len(data)  # every proper prefix, whatever hypothesis drew
        with pytest.raises(CheckpointError):
            deserialize_payload(data[:cut])
