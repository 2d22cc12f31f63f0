"""The lockstep kernel's user chunks and threads change no bit of any trial.

:mod:`repro.experiments.batch` runs each step's per-user phases over
chunks of whole canonical shards, one per kernel thread, and keeps every
order-dependent reduction on the calling thread over whole trial rows.
These suites pin that contract:

* the golden experiment reproduces the pinned stream at 1, 2, 3 and 8
  kernel threads (3 threads split the 8 shards unevenly) in every
  ``history_mode`` x ``retrain_mode`` cell;
* a hypothesis property over users, trials and threads compares every
  aggregate series, the filter state and the refit coefficients with the
  1-thread run, bit for bit;
* a stress run with more threads than cores and a tiny GIL switch
  interval stays bit-identical;
* a failure inside one chunk surfaces exactly as under one thread, and
  leaves no kernel thread behind.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import planner
from repro.core.ai_system import CreditScoringSystem
from repro.core.sharding import ShardPlan
from repro.credit.lender import Lender
from repro.experiments import batch
from repro.experiments.batch import KERNEL_THREAD_PREFIX, BatchedTrialRunner
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import _plan, default_policy_factory, run_experiment

from tests.experiments.harness import (
    ENGINE_GOLDEN,
    assert_full_trials_identical,
    assert_group_series_identical,
    expected_group_digests,
    experiment_digests,
    group_digests,
)

MODES = [
    (history_mode, retrain_mode)
    for history_mode in ("full", "aggregate")
    for retrain_mode in ("exact", "compressed")
]


@pytest.fixture
def threaded_host(monkeypatch):
    """An 8-core host whose kernel threads each take any chunk size."""
    monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 8)
    monkeypatch.setattr(planner, "KERNEL_MIN_USERS_PER_THREAD", 1)


@pytest.fixture
def chunk_widths(monkeypatch):
    """Record the user width of every chunk the kernel steps."""
    widths = []
    original = batch.affordability_state

    def recording(incomes, terms, out=None):
        if incomes.ndim == 2:  # a chunk's (trials, users) columns
            widths.append(incomes.shape[-1])
        return original(incomes, terms, out=out)

    monkeypatch.setattr(batch, "affordability_state", recording)
    return widths


def _expected_widths(users: int, threads: int) -> set:
    plan = ShardPlan.canonical(users)
    return {
        hi - lo
        for lo, hi in (
            plan.user_range(first, stop) for first, stop in plan.worker_ranges(threads)
        )
    }


def _chunk_bounds(incomes: np.ndarray) -> tuple:
    """The user range of a chunk's ``(trials, users)`` view of the incomes."""
    start = (
        incomes.__array_interface__["data"][0]
        - incomes.base.__array_interface__["data"][0]
    ) // incomes.itemsize
    return start, start + incomes.shape[-1]


def _kernel_threads_alive() -> list:
    alive = []
    for thread in threading.enumerate():
        if thread.name.startswith(KERNEL_THREAD_PREFIX):
            thread.join(timeout=10)
            if thread.is_alive():
                alive.append(thread.name)
    return alive


class TestChunkedGoldens:
    """The golden experiment at every kernel thread count."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("history_mode, retrain_mode", MODES)
    def test_every_thread_count_reproduces_the_serial_stream(
        self,
        threaded_host,
        chunk_widths,
        golden_config,
        golden_serial_result,
        threads,
        history_mode,
        retrain_mode,
    ):
        modes = dict(history_mode=history_mode, retrain_mode=retrain_mode)
        config = replace(
            golden_config, execution="batch", max_workers=threads, **modes
        )
        plan = _plan(config, trials=config.num_trials)
        assert plan.trial_batch and plan.max_workers == threads
        assert f"{threads} kernel thread" in plan.describe()
        result = run_experiment(config)
        # The per-thread minimum is patched down, so the 200 users really
        # split into one chunk per thread (3 threads: 3 + 3 + 2 shards).
        assert set(chunk_widths) == _expected_widths(config.num_users, threads)
        serial = (
            golden_serial_result
            if modes == dict(history_mode="full", retrain_mode="exact")
            else run_experiment(replace(golden_config, **modes))
        )
        for index, (serial_trial, trial) in enumerate(
            zip(serial.trials, result.trials)
        ):
            assert_group_series_identical(serial_trial, trial)
            if history_mode == "full":
                assert_full_trials_identical(serial_trial, trial)
            else:
                assert group_digests(trial, index, portfolio=True) == (
                    group_digests(serial_trial, index, portfolio=True)
                )
            if retrain_mode == "exact":
                assert group_digests(trial, index) == expected_group_digests(index)
        if modes == dict(history_mode="full", retrain_mode="exact"):
            assert experiment_digests(result) == ENGINE_GOLDEN

    @pytest.mark.parametrize("threads", [2, 3])
    def test_generic_decide_path_chunks_identically(
        self, threaded_host, chunk_widths, golden_config, golden_serial_result, threads
    ):
        # A lender subclass takes the per-trial decide/update path, whose
        # chunks draw and act around the calling thread's decisions.
        class SubclassedLender(Lender):
            pass

        def factory(config, population):
            return CreditScoringSystem(
                SubclassedLender(
                    cutoff=config.cutoff, warm_up_rounds=config.warm_up_rounds
                )
            )

        config = replace(golden_config, execution="batch", max_workers=threads)
        result = run_experiment(config, policy_factory=factory)
        assert set(chunk_widths) == _expected_widths(config.num_users, threads)
        for serial_trial, trial in zip(golden_serial_result.trials, result.trials):
            assert_full_trials_identical(serial_trial, trial)
        assert experiment_digests(result) == ENGINE_GOLDEN

    def test_one_thread_runs_inline_without_a_pool(
        self, threaded_host, golden_config, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-thread kernel must not build a pool")

        monkeypatch.setattr(batch, "ThreadPoolExecutor", no_pool)
        config = replace(golden_config, execution="batch", max_workers=1)
        assert experiment_digests(run_experiment(config)) == ENGINE_GOLDEN


def _run_kernel(config: CaseStudyConfig, threads: int):
    runner = BatchedTrialRunner(config, default_policy_factory, threads=threads)
    return runner, runner.run()


def _outcome(config: CaseStudyConfig, threads: int):
    """The kernel's run, or the type and message of the error it raised."""
    try:
        return _run_kernel(config, threads)
    except Exception as error:  # e.g. a refit on fewer than 2 offered users
        return type(error), str(error)


def _state_bytes(value) -> object:
    """Reduce a (nested) state to comparable bytes, ``nan`` included."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {str(key): _state_bytes(item) for key, item in value.items()}
    return value


def _assert_runs_identical(config, reference, other) -> None:
    (runner_a, outcomes_a), (runner_b, outcomes_b) = reference, other
    for (history_a, population_a), (history_b, population_b) in zip(
        outcomes_a, outcomes_b
    ):
        if config.history_mode == "aggregate":
            # Every aggregate series, plus the cumulative offer and
            # repayment counts the filter folds.
            assert _state_bytes(history_a.aggregator.export_state()) == _state_bytes(
                history_b.aggregator.export_state()
            )
        else:
            for accessor in (
                "decisions_matrix",
                "actions_matrix",
                "running_default_rates",
                "running_action_averages",
                "approval_rates",
            ):
                assert _state_bytes(getattr(history_a, accessor)()) == _state_bytes(
                    getattr(history_b, accessor)()
                )
            for name in ("user_default_rates", "portfolio_rate"):
                assert _state_bytes(history_a.observation_series(name)) == (
                    _state_bytes(history_b.observation_series(name))
                )
        assert _state_bytes(population_a.current_affordability) == _state_bytes(
            population_b.current_affordability
        )
    for system_a, system_b in zip(runner_a.ai_systems, runner_b.ai_systems):
        assert _state_bytes(system_a.last_scores) == _state_bytes(system_b.last_scores)
        state_a = system_a.lender.export_state()
        state_b = system_b.lender.export_state()
        assert state_a["rounds_seen"] == state_b["rounds_seen"]
        model_a, model_b = state_a["model"], state_b["model"]
        assert (model_a is None) == (model_b is None)
        if model_a is not None:
            fit_a, fit_b = model_a.fit_result, model_b.fit_result
            assert _state_bytes(np.asarray(fit_a.intercept)) == _state_bytes(
                np.asarray(fit_b.intercept)
            )
            assert _state_bytes(fit_a.coefficients) == _state_bytes(fit_b.coefficients)


class TestAnyChunkingIsBitIdentical:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        users=st.integers(min_value=1, max_value=300),
        trials=st.integers(min_value=1, max_value=3),
        threads=st.integers(min_value=2, max_value=8),
        steps=st.integers(min_value=1, max_value=6),
        warm_up_rounds=st.integers(min_value=1, max_value=2),
        history_mode=st.sampled_from(["full", "aggregate"]),
        retrain_mode=st.sampled_from(["exact", "compressed"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_threads_never_change_a_trial(
        self,
        users,
        trials,
        threads,
        steps,
        warm_up_rounds,
        history_mode,
        retrain_mode,
        seed,
    ):
        config = CaseStudyConfig(
            num_users=users,
            num_trials=trials,
            start_year=2002,
            end_year=2002 + steps - 1,
            warm_up_rounds=warm_up_rounds,
            history_mode=history_mode,
            retrain_mode=retrain_mode,
            seed=seed,
            execution="batch",
        )
        reference, threaded = _outcome(config, 1), _outcome(config, threads)
        if isinstance(reference[0], type):
            assert threaded == reference  # the same failure, word for word
        else:
            _assert_runs_identical(config, reference, threaded)

    def test_more_threads_than_cores_under_constant_switching(self):
        config = CaseStudyConfig(
            num_users=4000,
            num_trials=2,
            end_year=2008,
            history_mode="aggregate",
            retrain_mode="compressed",
            seed=11,
            execution="batch",
        )
        reference = _run_kernel(config, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 3.0
            runs = 0
            while runs < 2 or (time.monotonic() < deadline and runs < 20):
                _assert_runs_identical(config, reference, _run_kernel(config, 8))
                runs += 1
        finally:
            sys.setswitchinterval(interval)
        assert not _kernel_threads_alive()


class TestChunkFailure:
    @staticmethod
    def _fail_in_one_chunk(monkeypatch, num_users, which):
        """Make affordability raise for the chunk holding the first or last user."""
        original = batch.affordability_state

        def failing(incomes, terms, out=None):
            if incomes.ndim == 2:
                start, stop = _chunk_bounds(incomes)
                if (start == 0) if which == "first" else (stop == num_users):
                    raise FloatingPointError("affordability overflowed in a chunk")
            return original(incomes, terms, out=out)

        monkeypatch.setattr(batch, "affordability_state", failing)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_workers_follow_the_callers_numpy_error_state(
        self, threaded_host, golden_config, monkeypatch, threads
    ):
        # The last chunk overflows: under np.errstate(over="raise") that
        # must raise on a worker thread exactly as on the calling thread.
        original = batch.affordability_state
        num_users = golden_config.num_users

        def overflowing(incomes, terms, out=None):
            if incomes.ndim == 2 and _chunk_bounds(incomes)[1] == num_users:
                np.multiply(np.float64(1e308), 10.0)
            return original(incomes, terms, out=out)

        monkeypatch.setattr(batch, "affordability_state", overflowing)
        errors = {}
        for count in (1, threads):
            config = replace(golden_config, execution="batch", max_workers=count)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError) as info:
                run_experiment(config)
            errors[count] = str(info.value)
        assert errors[threads] == errors[1]
        assert not _kernel_threads_alive()

    # The first chunk runs on the calling thread, the last on a worker.
    @pytest.mark.parametrize("which", ["first", "last"])
    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_error_matches_one_thread_and_no_thread_survives(
        self, threaded_host, golden_config, monkeypatch, threads, which
    ):
        self._fail_in_one_chunk(monkeypatch, golden_config.num_users, which)
        errors = {}
        for count in (1, threads):
            config = replace(golden_config, execution="batch", max_workers=count)
            with pytest.raises(FloatingPointError) as info:
                run_experiment(config)
            errors[count] = (type(info.value), str(info.value))
        assert errors[threads] == errors[1]
        assert not _kernel_threads_alive()
