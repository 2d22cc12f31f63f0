"""Tests for repro.core.supervision: the shared worker-pool failure model."""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.supervision import (
    SupervisorPolicy,
    WorkerPoolFailure,
    is_picklable,
    kill_executor,
)
from repro.experiments.config import CaseStudyConfig


class TestWorkerPoolFailure:
    def test_carries_reason_and_cause(self):
        cause = OSError("boom")
        failure = WorkerPoolFailure("a shard worker process died", cause)
        assert failure.reason == "a shard worker process died"
        assert failure.cause is cause
        assert "boom" in str(failure)

    def test_cause_is_optional(self):
        failure = WorkerPoolFailure("a shard worker hung past the timeout")
        assert failure.cause is None
        assert str(failure) == "a shard worker hung past the timeout"


class TestSupervisorPolicy:
    def test_defaults_are_valid(self):
        policy = SupervisorPolicy()
        assert policy.max_retries == 2
        assert policy.timeout is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            SupervisorPolicy(timeout=0.0)
        with pytest.raises(ValueError, match="backoff bounds"):
            SupervisorPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError, match="backoff_factor"):
            SupervisorPolicy(backoff_factor=0.5)

    def test_backoff_is_geometric_and_capped(self):
        policy = SupervisorPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5
        )
        assert policy.backoff_delay(1) == pytest.approx(0.1)
        assert policy.backoff_delay(2) == pytest.approx(0.2)
        assert policy.backoff_delay(3) == pytest.approx(0.4)
        assert policy.backoff_delay(4) == pytest.approx(0.5)  # capped
        assert policy.backoff_delay(0) == 0.0

    def test_sleep_before_retry_with_zero_base_is_instant(self):
        # backoff_base=0 means no sleeping at all — used by the chaos suite
        # so injected failures retry without slowing the test run down.
        SupervisorPolicy(backoff_base=0.0).sleep_before_retry(5)


class TestKillExecutor:
    def test_kills_live_workers(self):
        executor = ProcessPoolExecutor(max_workers=1)
        future = executor.submit(int, "7")
        assert future.result(timeout=30) == 7
        processes = list(getattr(executor, "_processes", {}).values())
        kill_executor(executor)
        for process in processes:
            process.join(timeout=30)
            assert not process.is_alive()

    def test_workers_are_reaped_when_it_returns(self):
        # The pool's management thread reaps the workers as well; waiting
        # for it means no caller-side join is needed to see them gone.
        executor = ProcessPoolExecutor(max_workers=2)
        assert list(executor.map(abs, [-1, -2], timeout=30)) == [1, 2]
        processes = list(getattr(executor, "_processes", {}).values())
        assert processes
        kill_executor(executor)
        assert all(process.exitcode is not None for process in processes)

    def test_tolerates_executors_without_process_map(self):
        class Plain:
            def shutdown(self, wait=True, cancel_futures=False):
                self.down = (wait, cancel_futures)

        plain = Plain()
        kill_executor(plain)
        assert plain.down == (False, True)


def _closure():
    offset = 3
    return lambda value: value + offset


class TestIsPicklable:
    """The probe both pools run on their first payload before spawning."""

    @pytest.mark.parametrize(
        "value",
        [
            7,
            {"rates": np.arange(3.0), "races": ("white", "black")},
            CaseStudyConfig(num_users=10, num_trials=2),
            kill_executor,
        ],
        ids=["int", "arrays", "config", "module-function"],
    )
    def test_values_that_travel_to_a_worker(self, value):
        assert is_picklable(value)

    @pytest.mark.parametrize(
        "value",
        [lambda value: value, _closure(), threading.Lock()],
        ids=["lambda", "closure", "lock"],
    )
    def test_values_that_keep_the_run_in_process(self, value):
        assert not is_picklable(value)

    def test_both_pools_share_the_one_probe(self):
        from repro.campaign import runner as campaign_runner
        from repro.experiments import runner as experiment_runner

        assert experiment_runner.is_picklable is is_picklable
        assert campaign_runner.is_picklable is is_picklable
        assert not hasattr(experiment_runner, "_is_picklable")
        assert not hasattr(campaign_runner, "_is_picklable")
