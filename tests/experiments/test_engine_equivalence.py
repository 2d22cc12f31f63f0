"""Equivalence suite: the pinned random stream of the sharded engine.

The golden SHA-256 digests pin
``run_experiment(CaseStudyConfig().scaled(num_users=200, num_trials=2))``
bit for bit.  They have been re-captured exactly once since the seed
commit: the intra-trial sharding refactor replaced the single trial-wide
generator with per-shard, per-step derived streams
(``derive_seed(trial_seed, "shard", s)`` then ``"step", k`` — see
:mod:`repro.core.sharding`), a deliberate, pinned break from the seed
stream.  In exchange the schedule is now a pure function of ``(trial seed,
canonical shard, step)``: bit-identical for any lockstep-kernel thread
count (``test_kernel_threads.py``), any execution layout
(``test_execution_equivalence.py``) and chunked or not
(``tests/core/test_loop.py``), against these same digests.

The registry itself, the digest helpers and the differential assertions
live in :mod:`tests.experiments.harness` — one source of truth shared by
every equivalence suite (engine, streaming, retrain, batch, and the
planner's ``test_execution_equivalence``).  ``ENGINE_GOLDEN`` and
``digest`` are re-exported here for backward compatibility.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.ai_system import CreditScoringSystem
from repro.credit.lender import Lender
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import _plan, run_experiment, run_trial

from tests.experiments.harness import (
    ENGINE_GOLDEN,
    assert_experiments_identical,
    digest,
    experiment_digests,
)

__all__ = ["ENGINE_GOLDEN", "digest"]


@pytest.fixture(scope="module")
def small_config(golden_config) -> CaseStudyConfig:
    return golden_config


@pytest.fixture(scope="module")
def serial_result(golden_serial_result):
    return golden_serial_result


class TestEngineBitIdentity:
    """The engine reproduces the pinned golden stream exactly."""

    def test_experiment_matches_engine_goldens(self, serial_result):
        assert experiment_digests(serial_result) == ENGINE_GOLDEN

    def test_incremental_metrics_match_recompute_cross_check(self, serial_result):
        for trial in serial_result.trials:
            history = trial.history
            assert np.array_equal(
                history.running_default_rates(),
                history.recompute_running_default_rates(),
            )
            assert np.array_equal(
                history.running_action_averages(),
                history.recompute_running_action_averages(),
            )
            assert np.array_equal(
                history.approval_rates(), history.recompute_approval_rates()
            )


class TestParallelBitIdentity:
    """Parallel trials ride independent derived-seed streams; scheduling is irrelevant."""

    def test_process_parallel_matches_serial(self, small_config, serial_result):
        parallel = run_experiment(
            replace(small_config, execution="pool", max_workers=2)
        )
        assert_experiments_identical(serial_result, parallel)

    def test_non_picklable_factory_falls_back_to_serial(self, small_config, serial_result):
        # A lambda policy factory cannot be pickled, forcing the serial fallback.
        factory = lambda config, population: CreditScoringSystem(  # noqa: E731
            Lender(cutoff=config.cutoff, warm_up_rounds=config.warm_up_rounds)
        )
        serial = run_experiment(small_config, policy_factory=factory)
        parallel = run_experiment(
            replace(small_config, execution="pool", max_workers=2),
            policy_factory=factory,
        )
        assert_experiments_identical(serial, parallel)
        # The default factory builds the identical system, so the lambda run
        # must also match the golden serial result.
        assert_experiments_identical(serial_result, parallel)

    def test_config_knob_enables_parallelism(self, small_config, serial_result):
        config = CaseStudyConfig(
            num_users=small_config.num_users,
            num_trials=small_config.num_trials,
            execution="pool",
            max_workers=2,
        )
        parallel = run_experiment(config)
        for trial_left, trial_right in zip(serial_result.trials, parallel.trials):
            assert np.array_equal(
                trial_left.user_default_rates, trial_right.user_default_rates
            )

    def test_single_trial_ignores_parallel_flag(self):
        config = CaseStudyConfig(num_users=100, num_trials=1, execution="pool")
        result = run_experiment(config)
        reference = run_trial(config, trial_index=0)
        assert np.array_equal(
            result.trials[0].user_default_rates, reference.user_default_rates
        )

    def test_max_workers_validation(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(max_workers=0)
        with pytest.raises(ValueError):
            replace(
                CaseStudyConfig(num_users=10, num_trials=2, execution="pool"),
                max_workers=0,
            )

    def test_one_worker_runs_serially(self, small_config, serial_result):
        config = replace(small_config, execution="pool", max_workers=1)
        assert _plan(config, trials=config.num_trials).layout == "serial"
        result = run_experiment(config)
        for trial_left, trial_right in zip(serial_result.trials, result.trials):
            assert np.array_equal(
                trial_left.user_default_rates, trial_right.user_default_rates
            )


class TestChunkedLoopEquivalence:
    """Running the loop in chunks appends to the same columnar history."""

    def test_chunked_run_matches_single_run(self):
        from repro.core.filters import DefaultRateFilter
        from repro.core.loop import ClosedLoop
        from repro.core.population import CreditPopulation
        from repro.data.synthetic import PopulationSpec, generate_population

        def build_loop(seed: int) -> ClosedLoop:
            rng = np.random.default_rng(seed)
            population = CreditPopulation(
                population=generate_population(PopulationSpec(size=50), rng)
            )
            return ClosedLoop(
                ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
                population=population,
                loop_filter=DefaultRateFilter(num_users=50),
            )

        rng_whole = np.random.default_rng(77)
        whole = build_loop(1).run(10, rng=rng_whole)

        # A continuation (rng=None + existing history) reuses the base the
        # loop started with, replaying the unchunked schedule exactly.
        rng_chunks = np.random.default_rng(77)
        loop = build_loop(1)
        history = loop.run(4, rng=rng_chunks)
        history = loop.run(6, history=history)

        assert history.num_steps == whole.num_steps == 10
        assert np.array_equal(whole.decisions_matrix(), history.decisions_matrix())
        assert np.array_equal(whole.actions_matrix(), history.actions_matrix())
        assert np.array_equal(
            whole.running_default_rates(), history.running_default_rates()
        )
