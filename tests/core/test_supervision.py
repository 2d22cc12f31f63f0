"""Tests for repro.core.supervision: the one supervised process pool."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core import supervision
from repro.core.supervision import (
    SupervisorPolicy,
    is_picklable,
    kill_executor,
    supervised_map,
)
from repro.experiments.config import CaseStudyConfig


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
    """The probe ``supervised_map`` runs on its first payload before spawning."""

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


#: Retries at once, and calls a minute without a completion a hang.
FAST = SupervisorPolicy(max_retries=2, timeout=60.0, backoff_base=0.0)


def _square(value):
    return value * value


def _square_unless_three(value):
    if value == 3:
        raise ValueError("three")
    return value * value


def _claims(marker):
    """Whether this call is the first to create ``marker`` (once per test)."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def _square_after_one_death(payload):
    """Square ``value``; the first worker to claim ``marker`` dies instead."""
    value, marker = payload
    if marker is not None and _claims(marker):
        os._exit(3)
    return value * value


def _square_after_one_hang(payload):
    """Square ``value``; the first worker to claim ``marker`` hangs instead."""
    value, marker = payload
    if marker is not None and _claims(marker):
        time.sleep(3600)
    return value * value


def _square_after_one_raise(payload):
    """Square ``value``; the first worker to claim ``marker`` raises instead."""
    value, marker = payload
    if marker is not None and _claims(marker):
        raise ValueError("once")
    return value * value


def _square_unless_one(value):
    """Square ``value``; a worker handed 1 dies, on every attempt."""
    if value == 1:
        os._exit(3)
    return value * value


def _first_or_after_file(payload):
    """Key 0 returns at once; key 1 reports whether ``path`` appears in 30 s."""
    key, path = payload
    if key == 0:
        return True
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return True
        time.sleep(0.01)
    return False


def _no_fallback(key):
    raise AssertionError(f"key {key} fell back")


def _map(worker, payload, fallback=_no_fallback, keys=range(5), **overrides):
    """Run the executor and collect what it delivers (``None`` if no pool)."""
    options = dict(workers=2, policy=FAST, pool="toy pool", label=lambda k: f"key {k}")
    options.update(overrides)
    results = {}

    def deliver(key, result):
        assert key not in results, f"key {key} was delivered twice"
        results[key] = result

    pooled = supervised_map(worker, keys, payload, fallback, deliver, **options)
    return results if pooled else None


class TestSupervisedMap:
    """The one supervised loop, on toy workers."""

    def test_every_key_comes_back(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = _map(_square, lambda key, failures: key)
        assert results == {key: key * key for key in range(5)}

    @pytest.mark.parametrize(
        "payload, keys, workers",
        [
            (lambda key, failures: threading.Lock(), range(5), 2),
            (lambda key, failures: key, range(1), 2),
            (lambda key, failures: key, range(5), 1),
        ],
        ids=["unpicklable-payload", "one-key", "one-worker"],
    )
    def test_returns_false_without_building_a_pool(
        self, monkeypatch, payload, keys, workers
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        def deliver(key, result):
            raise AssertionError("a result was delivered")

        monkeypatch.setattr(supervision, "ProcessPoolExecutor", no_pool)
        pooled = supervised_map(
            _square,
            keys,
            payload,
            _no_fallback,
            deliver,
            workers=workers,
            policy=FAST,
            pool="toy pool",
            label=str,
        )
        assert pooled is False

    def test_results_reach_the_caller_while_the_pool_runs(self, tmp_path):
        # Key 1 waits for a file the caller writes only once key 0's
        # result has been delivered to it.
        path = str(tmp_path / "key-0-delivered")
        seen = {}

        def deliver(key, result):
            seen[key] = result
            if key == 0:
                open(path, "w").close()

        pooled = supervised_map(
            _first_or_after_file,
            range(2),
            lambda key, failures: (key, path),
            _no_fallback,
            deliver,
            workers=2,
            policy=FAST,
            pool="toy pool",
            label=str,
        )
        assert pooled is True
        assert seen == {0: True, 1: True}

    def test_no_worker_outlives_the_call(self):
        before = set(multiprocessing.active_children())
        results = _map(_square, lambda key, failures: key)
        assert results == {key: key * key for key in range(5)}
        assert set(multiprocessing.active_children()) <= before

    def test_an_error_in_deliver_kills_the_pool(self, monkeypatch):
        killed = []

        def record_kill(executor):
            killed.append(executor)
            kill_executor(executor)

        def deliver(key, result):
            raise KeyError(key)

        monkeypatch.setattr(supervision, "kill_executor", record_kill)
        with pytest.raises(KeyError):
            supervised_map(
                _square,
                range(5),
                lambda key, failures: key,
                _no_fallback,
                deliver,
                workers=2,
                policy=FAST,
                pool="toy pool",
                label=str,
            )
        assert len(killed) == 1

    def test_a_key_past_its_budget_runs_its_fallback(self):
        failures_seen = []

        def payload(key, failures):
            failures_seen.append((key, failures))
            return key

        policy = SupervisorPolicy(max_retries=1, timeout=60.0, backoff_base=0.0)
        with pytest.warns(
            RuntimeWarning, match=r"key 3 raised ValueError\('three'\); retrying it"
        ) as raised, pytest.warns(
            RuntimeWarning,
            match=r"key 3 exhausted its retry budget \(1 retries\) in the toy pool",
        ):
            results = _map(
                _square_unless_three, payload, fallback=lambda key: -key, policy=policy
            )
        assert results == {0: 0, 1: 1, 2: 4, 3: -3, 4: 16}
        assert len(raised) == 2
        assert [failures for key, failures in failures_seen if key == 3] == [0, 1]

    def test_a_dead_worker_rebuilds_the_pool_once(self, tmp_path):
        marker = str(tmp_path / "died")
        with pytest.warns(
            RuntimeWarning,
            match=r"toy pool failure \(a worker process died: .*\); rebuilding",
        ) as caught:
            results = _map(
                _square_after_one_death,
                lambda key, failures: (key, marker if key == 1 else None),
            )
        assert results == {key: key * key for key in range(5)}
        assert len(caught) == 1

    def test_an_exception_leaving_it_kills_the_pool(self, monkeypatch):
        killed = []

        def record_kill(executor):
            killed.append(executor)
            kill_executor(executor)

        def fallback(key):
            raise KeyError(key)

        monkeypatch.setattr(supervision, "kill_executor", record_kill)
        policy = SupervisorPolicy(max_retries=0, timeout=60.0, backoff_base=0.0)
        with pytest.raises(KeyError), pytest.warns(
            RuntimeWarning, match="raised ValueError"
        ), pytest.warns(RuntimeWarning, match="exhausted its retry budget"):
            _map(
                _square_unless_three,
                lambda key, failures: key,
                fallback=fallback,
                policy=policy,
            )
        assert len(killed) == 1

    def test_a_hung_worker_trips_the_timeout_and_rebuilds(self, tmp_path):
        marker = str(tmp_path / "hung")
        # A tight deadline keeps the test short; a spurious timeout on a
        # slow host only costs another rebuild.
        policy = SupervisorPolicy(max_retries=2, timeout=2.0, backoff_base=0.0)
        with pytest.warns(
            RuntimeWarning,
            match=r"toy pool failure \(no task completed within the 2 s "
            r"supervision timeout\); rebuilding the pool",
        ):
            results = _map(
                _square_after_one_hang,
                lambda key, failures: (key, marker if key == 1 else None),
                policy=policy,
            )
        assert results == {key: key * key for key in range(5)}

    def test_a_key_that_raises_once_keeps_the_pool(self, monkeypatch, tmp_path):
        marker = str(tmp_path / "raised")
        built = []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(supervision, "ProcessPoolExecutor", CountedPool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = _map(
                _square_after_one_raise,
                lambda key, failures: (key, marker if key == 1 else None),
            )
        assert results == {key: key * key for key in range(5)}
        assert len(built) == 1
        # The retry warning stays out of perfbench's rebuild and fallback
        # counters.
        assert [str(warning.message) for warning in caught] == [
            "key 1 raised ValueError('once'); retrying it"
        ]

    def test_a_worker_dying_on_every_attempt_falls_back(self):
        policy = SupervisorPolicy(max_retries=1, timeout=60.0, backoff_base=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = _map(
                _square_unless_one,
                lambda key, failures: key,
                fallback=_square,
                policy=policy,
            )
        # Keys lost alongside key 1 may exhaust their budget too; their
        # fallback computes what the worker would.
        assert results == {key: key * key for key in range(5)}
        messages = [str(warning.message) for warning in caught]
        rebuilds = [text for text in messages if "rebuilding the pool" in text]
        assert len(rebuilds) == policy.max_retries + 1
        assert any(
            text.startswith("key 1 exhausted its retry budget (1 retries)")
            for text in messages
        )
