"""Tests for repro.core.loop (the closed-loop orchestrator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ai_system import ConstantDecisionSystem, CreditScoringSystem
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointSpec,
    deserialize_payload,
    list_checkpoints,
    read_checkpoint,
    serialize_payload,
)
from repro.core.filters import CumulativeAverageFilter, DefaultRateFilter
from repro.core.history import SimulationHistory
from repro.core.loop import ClosedLoop
from repro.core.population import CreditPopulation
from repro.core.sharding import ShardPlan
from repro.credit.lender import Lender
from repro.data.synthetic import PopulationSpec, generate_population


@pytest.fixture
def credit_loop(income_table):
    population = CreditPopulation(
        population=generate_population(PopulationSpec(size=60), 1),
        income_table=income_table,
    )
    return ClosedLoop(
        ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
        population=population,
        loop_filter=DefaultRateFilter(num_users=60),
    )


class TestRun:
    def test_history_has_one_record_per_step(self, credit_loop):
        history = credit_loop.run(5, rng=0)
        assert history.num_steps == 5
        assert history.num_users == 60

    def test_run_is_reproducible_with_a_seed(self, income_table):
        def build():
            population = CreditPopulation(
                population=generate_population(PopulationSpec(size=40), 3),
                income_table=income_table,
            )
            return ClosedLoop(
                ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
                population=population,
                loop_filter=DefaultRateFilter(num_users=40),
            )

        first = build().run(6, rng=42)
        second = build().run(6, rng=42)
        np.testing.assert_array_equal(first.decisions_matrix(), second.decisions_matrix())
        np.testing.assert_array_equal(first.actions_matrix(), second.actions_matrix())

    def test_warm_up_steps_approve_everyone(self, credit_loop):
        history = credit_loop.run(4, rng=0)
        decisions = history.decisions_matrix()
        np.testing.assert_array_equal(decisions[0], np.ones(60))
        np.testing.assert_array_equal(decisions[1], np.ones(60))

    def test_running_in_chunks_matches_incremental_history(self, income_table):
        population = CreditPopulation(
            population=generate_population(PopulationSpec(size=30), 5),
            income_table=income_table,
        )
        loop = ClosedLoop(
            ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
            population=population,
            loop_filter=DefaultRateFilter(num_users=30),
        )
        history = loop.run(3, rng=7)
        history = loop.run(2, rng=8, history=history)
        assert history.num_steps == 5
        assert [record.step for record in history.records] == [0, 1, 2, 3, 4]

    def test_zero_steps_returns_empty_history(self, credit_loop):
        history = credit_loop.run(0, rng=0)
        assert history.num_steps == 0

    def test_negative_steps_are_rejected(self, credit_loop):
        with pytest.raises(ValueError):
            credit_loop.run(-1)

    def test_accessors_expose_the_boxes(self, credit_loop):
        assert credit_loop.ai_system is not None
        assert credit_loop.population is not None
        assert credit_loop.loop_filter is not None


class TestStepValidation:
    def test_wrong_decision_length_is_detected(self, income_table):
        class BrokenSystem(ConstantDecisionSystem):
            def decide(self, public_features, observation, k):
                return np.ones(3)  # wrong size on purpose

        population = CreditPopulation(
            population=generate_population(PopulationSpec(size=10), 2),
            income_table=income_table,
        )
        loop = ClosedLoop(
            ai_system=BrokenSystem(),
            population=population,
            loop_filter=DefaultRateFilter(num_users=10),
        )
        with pytest.raises(ValueError, match="one decision per user"):
            loop.run(1, rng=0)

    def test_observation_in_record_is_post_update(self, credit_loop):
        history = credit_loop.run(1, rng=0)
        record = history.records[0]
        # After the first step every user was offered a mortgage, so the
        # recorded observation reflects those offers.
        rates = record.observation["user_default_rates"]
        actions = record.actions
        np.testing.assert_allclose(rates, 1.0 - actions)

    def test_retrain_false_keeps_the_policy_fixed(self, income_table):
        population = CreditPopulation(
            population=generate_population(PopulationSpec(size=30), 9),
            income_table=income_table,
        )
        system = CreditScoringSystem(Lender(warm_up_rounds=30))
        loop = ClosedLoop(
            ai_system=system,
            population=population,
            loop_filter=DefaultRateFilter(num_users=30),
            retrain=False,
        )
        loop.run(3, rng=0)
        assert system.lender.scorecard is None


class TestGenericLoop:
    def test_constant_policy_with_cumulative_filter(self, income_table):
        population = CreditPopulation(
            population=generate_population(PopulationSpec(size=20), 11),
            income_table=income_table,
        )
        loop = ClosedLoop(
            ai_system=ConstantDecisionSystem(decision=1),
            population=population,
            loop_filter=CumulativeAverageFilter(num_users=20),
        )
        history = loop.run(4, rng=1)
        assert history.num_steps == 4
        observation = history.records[-1].observation
        assert "average_action" in observation


class TestStreamBaseResolution:
    """Fresh runs re-resolve randomness; only continuations reuse the base."""

    def _build(self):
        from repro.core.ai_system import CreditScoringSystem
        from repro.core.filters import DefaultRateFilter
        from repro.core.population import CreditPopulation
        from repro.credit.lender import Lender
        from repro.data.synthetic import PopulationSpec, generate_population

        population = CreditPopulation(
            population=generate_population(
                PopulationSpec(size=30), np.random.default_rng(0)
            )
        )
        return ClosedLoop(
            ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
            population=population,
            loop_filter=DefaultRateFilter(num_users=30),
        )

    def test_fresh_runs_with_a_generator_are_independent(self):
        generator = np.random.default_rng(12)
        loop = self._build()
        first = loop.run(3, rng=generator)
        second = self._build().run(3, rng=generator)
        assert not np.array_equal(
            first.public_feature_matrix("income"),
            second.public_feature_matrix("income"),
        )

    def test_repeated_entropy_runs_are_independent(self):
        first = self._build().run(1)
        second = self._build().run(1)
        assert not np.array_equal(
            first.public_feature_matrix("income"),
            second.public_feature_matrix("income"),
        )

    def test_integer_seed_always_resets_the_base(self):
        first = self._build().run(3, rng=5)
        second = self._build().run(3, rng=5)
        assert np.array_equal(
            first.public_feature_matrix("income"),
            second.public_feature_matrix("income"),
        )


class TestChunkedRuns:
    """Chunked runs replay the stateless per-(shard, step) streams exactly."""

    @staticmethod
    def _build() -> ClosedLoop:
        population = CreditPopulation(
            population=generate_population(
                PopulationSpec(size=50), np.random.default_rng(1)
            )
        )
        return ClosedLoop(
            ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
            population=population,
            loop_filter=DefaultRateFilter(num_users=50),
        )

    def test_chunked_run_matches_single_run(self):
        whole = self._build().run(10, rng=77)
        loop = self._build()
        history = loop.run(4, rng=77)
        history = loop.run(6, history=history)
        assert np.array_equal(whole.decisions_matrix(), history.decisions_matrix())
        assert np.array_equal(whole.actions_matrix(), history.actions_matrix())


class TestShardStreams:
    """The loop hands a population one stream per canonical shard."""

    @staticmethod
    def _build(size=50) -> ClosedLoop:
        population = CreditPopulation(
            population=generate_population(
                PopulationSpec(size=size), np.random.default_rng(2)
            )
        )
        return ClosedLoop(
            ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
            population=population,
            loop_filter=DefaultRateFilter(num_users=size),
        )

    def test_shard_aware_population_runs_its_canonical_plan(self):
        loop = self._build(size=50)
        assert loop.shard_plan == ShardPlan.canonical(50)
        assert loop.shard_plan == loop.population.shard_plan

    def test_population_without_a_plan_gets_one_whole_stream(self):
        class SingleStreamPopulation:
            """A population that knows nothing of shards."""

            num_users = 5

            def __init__(self):
                self.streams = []

            def begin_step(self, k, rng):
                self.streams.append(rng)
                return {"income": rng.random(5)}

            def respond(self, decisions, k, rng):
                self.streams.append(rng)
                return (rng.random(5) < 0.5).astype(float) * decisions

        population = SingleStreamPopulation()
        loop = ClosedLoop(
            ai_system=ConstantDecisionSystem(decision=1),
            population=population,
            loop_filter=CumulativeAverageFilter(num_users=5),
        )
        assert loop.shard_plan == ShardPlan.single(5)
        loop.run(3, rng=4)
        assert len(population.streams) == 6
        assert all(isinstance(s, np.random.Generator) for s in population.streams)
        # respond continues the stream begin_step drew from in the same step.
        for step in range(3):
            assert population.streams[2 * step] is population.streams[2 * step + 1]


class TestSnapshots:
    """export_snapshot/restore_snapshot: what a step snapshot carries."""

    @staticmethod
    def _build(size=40, generic=False) -> ClosedLoop:
        population = CreditPopulation(
            population=generate_population(
                PopulationSpec(size=size), np.random.default_rng(4)
            )
        )
        if generic:
            system, loop_filter = (
                ConstantDecisionSystem(decision=1),
                CumulativeAverageFilter(num_users=size),
            )
        else:
            system, loop_filter = (
                CreditScoringSystem(Lender(warm_up_rounds=2)),
                DefaultRateFilter(num_users=size),
            )
        return ClosedLoop(ai_system=system, population=population, loop_filter=loop_filter)

    @staticmethod
    def _round_trip(payload):
        return deserialize_payload(serialize_payload(payload))

    def test_restored_loop_continues_bit_identically(self):
        whole = self._build().run(8, rng=21)
        first = self._build()
        payload = self._round_trip(first.export_snapshot(first.run(5, rng=21)))
        second = self._build()
        resumed = second.run(3, history=second.restore_snapshot(payload))
        np.testing.assert_array_equal(whole.decisions_matrix(), resumed.decisions_matrix())
        np.testing.assert_array_equal(whole.actions_matrix(), resumed.actions_matrix())
        np.testing.assert_array_equal(
            whole.public_feature_matrix("income"),
            resumed.public_feature_matrix("income"),
        )

    def test_credit_loop_components_travel_as_state(self):
        loop = self._build()
        payload = loop.export_snapshot(loop.run(3, rng=2))
        assert payload["step"] == 3
        assert payload["num_users"] == 40
        for component in ("filter", "ai_system", "population"):
            assert payload[component]["kind"] == "state"

    def test_components_without_state_hooks_travel_whole(self):
        loop = self._build(generic=True)
        payload = self._round_trip(loop.export_snapshot(loop.run(3, rng=2)))
        assert payload["filter"]["kind"] == "object"
        assert payload["ai_system"]["kind"] == "object"
        fresh = self._build(generic=True)
        fresh.restore_snapshot(payload)
        assert fresh.loop_filter is payload["filter"]["object"]
        assert fresh.ai_system is payload["ai_system"]["object"]
        np.testing.assert_array_equal(
            fresh.loop_filter.observation()["average_action"],
            loop.loop_filter.observation()["average_action"],
        )

    def test_export_needs_a_run_in_progress(self):
        with pytest.raises(ValueError, match="no run in progress"):
            self._build().export_snapshot(SimulationHistory())

    def test_restore_rejects_another_population_size(self):
        loop = self._build()
        payload = loop.export_snapshot(loop.run(2, rng=3))
        with pytest.raises(CheckpointError, match="40 users"):
            self._build(size=30).restore_snapshot(payload)

    def test_restore_rejects_a_step_the_history_does_not_hold(self):
        loop = self._build()
        payload = dict(loop.export_snapshot(loop.run(2, rng=3)))
        payload["step"] = 5
        with pytest.raises(CheckpointError, match="inconsistent"):
            self._build().restore_snapshot(payload)

    def test_run_snapshots_at_every_boundary(self, tmp_path):
        loop = self._build()
        spec = CheckpointSpec(directory=str(tmp_path), stem="loop", every=2, keep=10)
        whole = loop.run(7, rng=5, checkpoint=spec)
        snapshots = list_checkpoints(tmp_path, "loop")
        assert [step for step, _ in snapshots] == [6, 4, 2]
        assert spec.load_latest()["step"] == 6
        # Every snapshot, not just the newest, resumes to the same run.
        for step, path in snapshots:
            fresh = self._build()
            restored = fresh.restore_snapshot(read_checkpoint(path))
            resumed = fresh.run(7 - step, history=restored)
            np.testing.assert_array_equal(
                whole.decisions_matrix(), resumed.decisions_matrix()
            )
