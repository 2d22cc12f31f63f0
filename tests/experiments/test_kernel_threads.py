"""The lockstep kernel's lanes and blocks change no bit of any trial.

:mod:`repro.experiments.batch` gives each kernel thread a lane of whole
canonical shards, which it steps as a sequence of blocks, and keeps every
order-dependent reduction on the calling thread over whole trial rows.
These suites pin that contract:

* the golden experiment reproduces the pinned stream at 1, 2, 3 and 8
  kernel threads (3 threads split the 8 shards unevenly) in both
  ``history_mode`` cells, with one block per lane and,
  below 8 threads, with one shard per block;
* the block layout of the sizes the benchmark and the memory pins run,
  and of many trials, whose blocks keep a minimum width;
* a hypothesis property over users, trials, threads and block sizes
  compares every aggregate series, the filter state and the refit
  coefficients with the 1-thread run, bit for bit;
* a stress run with more threads than cores and a tiny GIL switch
  interval stays bit-identical;
* a failure inside one block surfaces exactly as under one thread, and
  leaves no kernel thread behind;
* a fused step is one pass over the lanes in either history mode.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace
from unittest import mock

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


@pytest.fixture
def threaded_host(monkeypatch):
    """An 8-core host whose kernel threads each take any lane size."""
    monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 8)
    monkeypatch.setattr(planner, "KERNEL_MIN_USER_TRIALS_PER_THREAD", 1)
    monkeypatch.setattr(planner, "KERNEL_MIN_USERS_PER_THREAD", 1)


@pytest.fixture(params=["lane", "shard"])
def blocking(request, monkeypatch):
    """One block per lane (the golden size's layout), or one per shard."""
    if request.param == "shard":
        monkeypatch.setattr(batch, "KERNEL_BLOCK_USER_TRIALS", 1)
        monkeypatch.setattr(batch, "KERNEL_BLOCK_MIN_USERS", 1)
    return request.param


@pytest.fixture
def block_widths(monkeypatch):
    """Record the user width of every block the kernel steps."""
    widths = []
    original = batch.affordability_state

    def recording(incomes, terms, out=None):
        if incomes.ndim == 2:  # a block's (trials, users) columns
            widths.append(incomes.shape[-1])
        return original(incomes, terms, out=out)

    monkeypatch.setattr(batch, "affordability_state", recording)
    return widths


def _expected_widths(trials: int, users: int, threads: int) -> set:
    plan = ShardPlan.canonical(users)
    return {
        hi - lo
        for lane in batch._lane_blocks(plan, trials, threads)
        for lo, hi in (plan.user_range(first, stop) for first, stop in lane)
    }


def _block_bounds(incomes: np.ndarray) -> tuple:
    """The user range of a block's ``(trials, users)`` view of the incomes."""
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


#: The golden runs' (blocking, threads) pairs.  At 8 threads each of the
#: golden population's 8 shards is a lane of its own, so one block per
#: shard would repeat one block per lane.
GOLDEN_BLOCKINGS = [("lane", threads) for threads in (1, 2, 3, 8)] + [
    ("shard", threads) for threads in (1, 2, 3)
]


class TestBlockedGoldens:
    """The golden experiment at every kernel thread count and blocking."""

    @pytest.mark.parametrize(
        "blocking, threads", GOLDEN_BLOCKINGS, indirect=["blocking"]
    )
    @pytest.mark.parametrize("history_mode", ["full", "aggregate"])
    def test_every_thread_count_reproduces_the_serial_stream(
        self,
        threaded_host,
        blocking,
        block_widths,
        golden_config,
        golden_serial_result,
        threads,
        history_mode,
    ):
        config = replace(
            golden_config,
            execution="batch",
            max_workers=threads,
            history_mode=history_mode,
        )
        plan = _plan(config, trials=config.num_trials)
        assert plan.trial_batch and plan.max_workers == threads
        assert f"{threads} kernel thread" in plan.describe()
        result = run_experiment(config)
        # The per-thread minimum is patched down, so the 200 users really
        # split into one lane per thread (3 threads: 3 + 3 + 2 shards), a
        # block per lane or per shard.
        widths = _expected_widths(config.num_trials, config.num_users, threads)
        assert set(block_widths) == widths
        if blocking == "shard":
            assert widths == {config.num_users // 8}
        serial = (
            golden_serial_result
            if history_mode == "full"
            else run_experiment(replace(golden_config, history_mode=history_mode))
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
            assert group_digests(trial, index) == expected_group_digests(index)
        if history_mode == "full":
            assert experiment_digests(result) == ENGINE_GOLDEN

    @pytest.mark.parametrize("threads", [2, 3])
    def test_generic_decide_path_blocks_identically(
        self,
        threaded_host,
        blocking,
        block_widths,
        golden_config,
        golden_serial_result,
        threads,
    ):
        # A lender subclass takes the per-trial decide/update path, whose
        # blocks draw and act around the calling thread's decisions.
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
        assert set(block_widths) == _expected_widths(
            config.num_trials, config.num_users, threads
        )
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


#: Two lanes of four one-shard blocks.
ONE_SHARD_LANES = [[(shard, shard + 1) for shard in range(lo, lo + 4)] for lo in (0, 4)]


class TestBlockLayout:
    """Blocks of the sizes the benchmark and memory pins run, from the plan."""

    @pytest.mark.parametrize(
        "trials, users, cores, lanes",
        [
            # giant_trial: one-shard blocks of 125,000 users.
            (1, 1_000_000, 2, ONE_SHARD_LANES),
            # Shards past the bound are blocks on their own.
            (1, 2_000_000, 2, ONE_SHARD_LANES),
            (1, 400_000, 1, [[(0, 2), (2, 4), (4, 6), (6, 8)]]),
            (1, 100_000, 1, [[(0, 8)]]),
            # Many trials: blocks widen to 5,000 users where the lane allows.
            (32, 20_000, 2, [[(0, 2), (2, 4)], [(4, 6), (6, 8)]]),
            (16, 40_000, 1, [[(shard, shard + 1) for shard in range(8)]]),
            (64, 10_000, 2, [[(0, 4)], [(4, 8)]]),
            (128, 5000, 2, [[(0, 8)]]),
            # A campaign_grid job, and 32 paper-size trials on one thread.
            (5, 1000, 1, [[(0, 8)]]),
            (32, 1000, 2, [[(0, 8)]]),
        ],
    )
    def test_layout(self, trials, users, cores, lanes):
        threads = planner.plan_execution(
            "batch", trials=trials, users=users, steps=20, cpu_count=cores
        ).max_workers
        assert len(lanes) == threads
        assert batch._lane_blocks(ShardPlan.canonical(users), trials, threads) == lanes


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


class TestAnyBlockingIsBitIdentical:
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
        seed=st.integers(min_value=0, max_value=2**16),
        block_user_trials=st.sampled_from([1, 50, 200, batch.KERNEL_BLOCK_USER_TRIALS]),
        block_min_users=st.sampled_from([1, 40, batch.KERNEL_BLOCK_MIN_USERS]),
    )
    def test_threads_never_change_a_trial(
        self,
        users,
        trials,
        threads,
        steps,
        warm_up_rounds,
        history_mode,
        seed,
        block_user_trials,
        block_min_users,
    ):
        config = CaseStudyConfig(
            num_users=users,
            num_trials=trials,
            start_year=2002,
            end_year=2002 + steps - 1,
            warm_up_rounds=warm_up_rounds,
            history_mode=history_mode,
            seed=seed,
            execution="batch",
        )
        reference = _outcome(config, 1)
        with mock.patch.multiple(
            batch,
            KERNEL_BLOCK_USER_TRIALS=block_user_trials,
            KERNEL_BLOCK_MIN_USERS=block_min_users,
        ):
            threaded = _outcome(config, threads)
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


class TestBlockFailure:
    @staticmethod
    def _fail_at(monkeypatch, users):
        """Make affordability raise in every block holding one of ``users``.

        The error names the first of them in the block, so it tells which
        block raised it.
        """
        original = batch.affordability_state

        def failing(incomes, terms, out=None):
            if incomes.ndim == 2:
                start, stop = _block_bounds(incomes)
                held = [user for user in users if start <= user < stop]
                if held:
                    raise FloatingPointError(
                        f"affordability overflowed at user {held[0]}"
                    )
            return original(incomes, terms, out=out)

        monkeypatch.setattr(batch, "affordability_state", failing)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_workers_follow_the_callers_numpy_error_state(
        self, threaded_host, golden_config, monkeypatch, threads
    ):
        # The last block overflows: under np.errstate(over="raise") that
        # must raise on a worker thread exactly as on the calling thread.
        original = batch.affordability_state
        num_users = golden_config.num_users

        def overflowing(incomes, terms, out=None):
            if incomes.ndim == 2 and _block_bounds(incomes)[1] == num_users:
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

    # The first block runs on the calling thread, the last on a worker; from
    # the middle on, blocks of several lanes fail, and the first in block
    # order (user 100) must be the one reported.
    @pytest.mark.parametrize("which", ["first", "last", "from the middle on"])
    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_error_matches_one_thread_and_no_thread_survives(
        self, threaded_host, blocking, golden_config, monkeypatch, threads, which
    ):
        num_users = golden_config.num_users
        users = {
            "first": [0],
            "last": [num_users - 1],
            # The first user of each shard in the second half.
            "from the middle on": list(
                range(num_users // 2, num_users, num_users // 8)
            ),
        }[which]
        self._fail_at(monkeypatch, users)
        errors = {}
        for count in (1, threads):
            config = replace(golden_config, execution="batch", max_workers=count)
            with pytest.raises(FloatingPointError) as info:
                run_experiment(config)
            errors[count] = (type(info.value), str(info.value))
        assert errors[threads] == errors[1]
        assert str(errors[1][1]).endswith(f"user {users[0]}")
        assert not _kernel_threads_alive()


class TestOneLanePassPerStep:
    @pytest.mark.parametrize("history_mode", ["full", "aggregate"])
    def test_a_fused_step_is_one_pass_over_the_lanes(
        self, threaded_host, blocking, golden_config, monkeypatch, history_mode
    ):
        # The filter fold, the rate row and the recorder's per-block work
        # run inside the step's one pass over the lanes, each block once.
        passes = []
        original_map = batch._KernelThreads.map

        def counting_map(threads, work):
            blocks = []

            def counted(block):
                blocks.append(block.users)
                return work(block)

            passes.append((len(threads.lanes), blocks))
            return original_map(threads, counted)

        monkeypatch.setattr(batch._KernelThreads, "map", counting_map)
        config = replace(
            golden_config,
            execution="batch",
            max_workers=3,
            history_mode=history_mode,
        )
        result = run_experiment(config)
        for index, trial in enumerate(result.trials):
            assert group_digests(trial, index) == expected_group_digests(index)
        blocks = 3 if blocking == "lane" else 8
        # One pass a step, and one for the final affordability.
        assert [(lanes, len(users)) for lanes, users in passes] == [
            (3, blocks)
        ] * (config.num_steps + 1)
