"""Shard-determinism suite: the execution layout never perturbs the stream.

The sharded engine's invariant is that a trial's trajectory is a pure
function of ``(trial seed, canonical shard partition, step)`` — the worker
count (``num_shards``), the executor kind (``execution`` ``"serial"`` or
``"shard"``) and the history mode are pure execution details.  This suite pins that invariant
against the same golden digests as ``test_engine_equivalence.py``:

* group-level series digests for ``num_shards in {1, 2, 8}``, serial and
  process-pooled, in both history modes;
* full per-user matrices for the pooled layouts (the orchestrator records
  centrally, so even the ``(steps, users)`` columns must be bit-identical);
* worker-side state reconciliation: after a pooled run the loop's filter
  and population hold the exact serial end state (via
  ``DefaultRateFilter.merge`` / ``import_shard_state``).

The CI shard-matrix job runs this file once per worker count with
``REPRO_TEST_SHARDS`` set; without the variable every count is covered.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core import planner
from repro.core.streaming import AggregateHistory
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment, run_trial

from tests.experiments.harness import (
    ENGINE_GOLDEN,
    digest,
    expected_group_digests,
    group_digests,
)


def _shard_counts() -> tuple:
    override = os.environ.get("REPRO_TEST_SHARDS")
    if override:
        return (int(override),)
    return (1, 2, 8)


SHARD_COUNTS = _shard_counts()


@pytest.fixture(scope="module")
def small_config(golden_config) -> CaseStudyConfig:
    return golden_config


@pytest.fixture(scope="module")
def reference_trial(small_config):
    return run_trial(small_config, trial_index=0)


class TestShardCountInvariance:
    """num_shards x execution x history_mode -> one golden stream."""

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("execution", ["serial", "shard"])
    def test_full_mode_matches_goldens(self, small_config, num_shards, execution):
        trial = run_trial(
            replace(small_config, num_shards=num_shards, execution=execution),
            trial_index=0,
        )
        assert group_digests(trial) == expected_group_digests()
        assert digest(trial.user_default_rates) == ENGINE_GOLDEN["trial0_user_rates"]
        assert (
            digest(trial.history.decisions_matrix())
            == ENGINE_GOLDEN["trial0_decisions"]
        )
        assert digest(trial.history.actions_matrix()) == ENGINE_GOLDEN["trial0_actions"]
        assert (
            digest(trial.history.public_feature_matrix("income"))
            == ENGINE_GOLDEN["trial0_income"]
        )
        assert (
            digest(trial.history.observation_series("portfolio_rate"))
            == ENGINE_GOLDEN["trial0_portfolio"]
        )

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("execution", ["serial", "shard"])
    def test_aggregate_mode_matches_goldens(
        self, small_config, num_shards, execution
    ):
        trial = run_trial(
            replace(
                small_config,
                history_mode="aggregate",
                num_shards=num_shards,
                execution=execution,
            ),
            trial_index=0,
        )
        assert isinstance(trial.history, AggregateHistory)
        assert group_digests(trial) == expected_group_digests()
        assert (
            digest(trial.history.portfolio_rate_series())
            == ENGINE_GOLDEN["trial0_portfolio"]
        )


class TestPooledStateReconciliation:
    """A pooled run leaves the loop's own objects in the serial end state."""

    def test_filter_and_population_state_match_serial(self, small_config):
        from repro.core.ai_system import CreditScoringSystem
        from repro.core.filters import DefaultRateFilter
        from repro.core.loop import ClosedLoop
        from repro.core.population import CreditPopulation
        from repro.credit.lender import Lender
        from repro.data.synthetic import PopulationSpec, generate_population

        def build_loop() -> ClosedLoop:
            rng = np.random.default_rng(3)
            population = CreditPopulation(
                population=generate_population(PopulationSpec(size=120), rng)
            )
            return ClosedLoop(
                ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
                population=population,
                loop_filter=DefaultRateFilter(num_users=120),
            )

        serial_loop = build_loop()
        serial_loop.run(6, rng=11)
        pooled_loop = build_loop()
        pooled_loop.run(6, rng=11, num_shards=4, shard_parallel=True)

        serial_obs = serial_loop.loop_filter.observation()
        pooled_obs = pooled_loop.loop_filter.observation()
        assert np.array_equal(
            serial_obs["user_default_rates"], pooled_obs["user_default_rates"]
        )
        assert serial_obs["portfolio_rate"] == pooled_obs["portfolio_rate"]
        assert np.array_equal(
            serial_loop.population.current_affordability,
            pooled_loop.population.current_affordability,
        )

    def test_pool_falls_back_for_filter_subclass(self):
        """A DefaultRateFilter subclass keeps its behavior via the serial path.

        Pooled workers instantiate the plain base class, so a subclass
        must be deemed ineligible — otherwise its overridden observation
        would silently vanish inside the pool.
        """
        from repro.core.ai_system import CreditScoringSystem
        from repro.core.filters import DefaultRateFilter
        from repro.core.loop import ClosedLoop
        from repro.core.population import CreditPopulation
        from repro.credit.lender import Lender
        from repro.data.synthetic import PopulationSpec, generate_population

        class ClippedFilter(DefaultRateFilter):
            def observation(self):
                observation = super().observation()
                observation["user_default_rates"] = np.minimum(
                    observation["user_default_rates"], 0.5
                )
                return observation

        def build() -> ClosedLoop:
            rng = np.random.default_rng(9)
            population = CreditPopulation(
                population=generate_population(PopulationSpec(size=60), rng)
            )
            return ClosedLoop(
                ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
                population=population,
                loop_filter=ClippedFilter(num_users=60),
            )

        serial = build().run(6, rng=4)
        pooled = build().run(6, rng=4, num_shards=4, shard_parallel=True)
        assert np.array_equal(
            serial.observation_series("user_default_rates"),
            pooled.observation_series("user_default_rates"),
        )
        assert np.array_equal(serial.actions_matrix(), pooled.actions_matrix())

    def test_pool_falls_back_for_non_default_filter(self):
        """An unshardable filter silently runs the bit-identical serial path."""
        from repro.core.ai_system import ConstantDecisionSystem
        from repro.core.filters import CumulativeAverageFilter
        from repro.core.loop import ClosedLoop
        from repro.core.population import CreditPopulation
        from repro.data.synthetic import PopulationSpec, generate_population

        def build(filter_factory) -> ClosedLoop:
            rng = np.random.default_rng(5)
            population = CreditPopulation(
                population=generate_population(PopulationSpec(size=60), rng)
            )
            return ClosedLoop(
                ai_system=ConstantDecisionSystem(1),
                population=population,
                loop_filter=filter_factory(),
            )

        serial = build(lambda: CumulativeAverageFilter(num_users=60)).run(4, rng=2)
        pooled = build(lambda: CumulativeAverageFilter(num_users=60)).run(
            4, rng=2, num_shards=4, shard_parallel=True
        )
        assert np.array_equal(serial.actions_matrix(), pooled.actions_matrix())


class TestExperimentLevelComposition:
    """Intra-trial sharding composes with trial-level parallelism."""

    def test_shard_parallel_composes_with_trial_parallel(self, monkeypatch):
        # auto composes pooled trials with sharded users once every pooled
        # trial has two cores to itself and the population is big enough.
        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 4)
        config = CaseStudyConfig(
            num_users=planner.AUTO_SHARD_MIN_USERS, num_trials=2, end_year=2006
        )
        composed_config = replace(config, execution="auto")
        plan = planner.plan_execution(
            "auto",
            trials=config.num_trials,
            users=config.num_users,
            steps=config.num_steps,
        )
        assert plan.layout == "pool+shard"
        serial = run_experiment(config)
        composed = run_experiment(composed_config)
        assert len(serial.trials) == len(composed.trials)
        for left, right in zip(serial.trials, composed.trials):
            assert np.array_equal(left.user_default_rates, right.user_default_rates)

    def test_config_knobs_are_honoured(self, small_config, reference_trial):
        config = CaseStudyConfig(
            num_users=small_config.num_users,
            num_trials=1,
            num_shards=2,
            execution="shard",
        )
        result = run_experiment(config)
        assert np.array_equal(
            result.trials[0].user_default_rates, reference_trial.user_default_rates
        )

    def test_invalid_shard_count_is_rejected(self, small_config):
        with pytest.raises(ValueError):
            CaseStudyConfig(num_shards=0)
        with pytest.raises(ValueError):
            replace(small_config, num_shards=-1)


class TestChunkedShardedRuns:
    """Chunked runs replay the stateless per-(shard, step) streams exactly."""

    def test_chunked_run_matches_single_run(self):
        from repro.core.ai_system import CreditScoringSystem
        from repro.core.filters import DefaultRateFilter
        from repro.core.loop import ClosedLoop
        from repro.core.population import CreditPopulation
        from repro.credit.lender import Lender
        from repro.data.synthetic import PopulationSpec, generate_population

        def build_loop() -> ClosedLoop:
            rng = np.random.default_rng(1)
            population = CreditPopulation(
                population=generate_population(PopulationSpec(size=50), rng)
            )
            return ClosedLoop(
                ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
                population=population,
                loop_filter=DefaultRateFilter(num_users=50),
            )

        whole = build_loop().run(10, rng=77)
        loop = build_loop()
        history = loop.run(4, rng=77)
        history = loop.run(6, history=history)
        assert np.array_equal(whole.decisions_matrix(), history.decisions_matrix())
        assert np.array_equal(whole.actions_matrix(), history.actions_matrix())

    def test_diagnostic_step_does_not_perturb_a_continuation(self):
        from repro.core.ai_system import CreditScoringSystem
        from repro.core.filters import DefaultRateFilter
        from repro.core.loop import ClosedLoop
        from repro.core.population import CreditPopulation
        from repro.credit.lender import Lender
        from repro.data.synthetic import PopulationSpec, generate_population

        def build_loop() -> ClosedLoop:
            rng = np.random.default_rng(1)
            population = CreditPopulation(
                population=generate_population(PopulationSpec(size=50), rng)
            )
            return ClosedLoop(
                ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
                population=population,
                loop_filter=DefaultRateFilter(num_users=50),
            )

        whole = build_loop().run(10, rng=77)
        loop = build_loop()
        history = loop.run(4, rng=77)
        # A diagnostic peek resolves its own (entropy) base per call and
        # must not clobber the continuation's schedule.  It does advance
        # the filter/AI state, so the continuation's *decisions* legally
        # differ — but the incomes depend only on (base, shard, step), so
        # they prove the rng=77 schedule survived the peek.
        loop.step(99)
        resumed = loop.run(6, history=history)
        assert np.array_equal(
            whole.public_feature_matrix("income")[4:],
            resumed.public_feature_matrix("income")[4:],
        )
