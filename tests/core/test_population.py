"""Tests for repro.core.population."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.population import CreditPopulation, IFSPopulation, Population
from repro.core.sharding import ShardPlan
from repro.credit.mortgage import MortgageTerms
from repro.credit.repayment import GaussianRepaymentModel
from repro.data.census import Race
from repro.data.synthetic import PopulationSpec, generate_population
from repro.markov.ifs import SignalDependentIFS
from repro.markov.maps import AffineMap, FunctionMap


@pytest.fixture
def credit_population(small_population, income_table):
    return CreditPopulation(population=small_population, income_table=income_table)


class TestCreditPopulation:
    def test_satisfies_the_protocol(self, credit_population):
        assert isinstance(credit_population, Population)

    def test_begin_step_reveals_incomes(self, credit_population, rng):
        features = credit_population.begin_step(0, rng)
        assert "income" in features
        assert features["income"].shape == (credit_population.num_users,)
        assert np.all(features["income"] >= 0)

    def test_affordability_requires_begin_step(self, small_population, income_table):
        population = CreditPopulation(population=small_population, income_table=income_table)
        with pytest.raises(RuntimeError):
            population.current_affordability

    def test_respond_requires_begin_step(self, small_population, income_table, rng):
        population = CreditPopulation(population=small_population, income_table=income_table)
        with pytest.raises(RuntimeError):
            population.respond(np.ones(population.num_users), 0, rng)

    def test_respond_returns_binary_actions(self, credit_population, rng):
        credit_population.begin_step(0, rng)
        actions = credit_population.respond(np.ones(credit_population.num_users), 0, rng)
        assert set(np.unique(actions)).issubset({0.0, 1.0})

    def test_denied_users_never_repay(self, credit_population, rng):
        credit_population.begin_step(0, rng)
        actions = credit_population.respond(np.zeros(credit_population.num_users), 0, rng)
        assert actions.sum() == 0

    def test_year_of_step_offsets_from_start_year(self, credit_population):
        assert credit_population.year_of_step(0) == 2002
        assert credit_population.year_of_step(18) == 2020

    def test_groups_partition_the_population(self, credit_population):
        groups = credit_population.groups
        total = sum(indices.size for indices in groups.values())
        assert total == credit_population.num_users

    def test_races_property_matches_population(self, small_population, income_table):
        population = CreditPopulation(population=small_population, income_table=income_table)
        assert population.races.shape == (small_population.size,)

    def test_custom_terms_are_used(self, small_population, income_table, rng):
        generous = CreditPopulation(
            population=small_population,
            income_table=income_table,
            terms=MortgageTerms(living_cost=0.0, annual_rate=0.0),
        )
        generous.begin_step(0, rng)
        # With no obligations every user with positive income has a positive state.
        assert np.all(generous.current_affordability > 0)


def make_ifs_user() -> SignalDependentIFS:
    return SignalDependentIFS(
        transition_maps=(AffineMap.scalar(0.5, 0.0), AffineMap.scalar(0.5, 0.5)),
        transition_probabilities=lambda signal: [0.5, 0.5],
        output_maps=(FunctionMap(lambda x: x, name="echo"),),
        output_probabilities=lambda signal: [1.0],
    )


class TestIFSPopulation:
    def test_satisfies_the_protocol(self):
        population = IFSPopulation(
            users=[make_ifs_user()], initial_states=[np.array([0.0])]
        )
        assert isinstance(population, Population)

    def test_begin_step_reveals_nothing(self, rng):
        population = IFSPopulation(users=[make_ifs_user()], initial_states=[np.array([0.0])])
        assert population.begin_step(0, rng) == {}

    def test_respond_advances_every_user(self, rng):
        population = IFSPopulation(
            users=[make_ifs_user(), make_ifs_user()],
            initial_states=[np.array([0.0]), np.array([1.0])],
        )
        actions = population.respond(np.array([1.0, 1.0]), 0, rng)
        assert actions.shape == (2,)
        assert len(population.states) == 2

    def test_scalar_signal_is_broadcast(self, rng):
        population = IFSPopulation(
            users=[make_ifs_user(), make_ifs_user()],
            initial_states=[np.array([0.5]), np.array([0.5])],
        )
        actions = population.respond(1.0, 0, rng)
        assert actions.shape == (2,)

    def test_rejects_empty_user_list(self):
        with pytest.raises(ValueError):
            IFSPopulation(users=[], initial_states=[])

    def test_rejects_mismatched_initial_states(self):
        with pytest.raises(ValueError):
            IFSPopulation(users=[make_ifs_user()], initial_states=[])

    def test_states_are_copies(self, rng):
        population = IFSPopulation(users=[make_ifs_user()], initial_states=[np.array([0.3])])
        states = population.states
        states[0][0] = 99.0
        assert population.states[0][0] == pytest.approx(0.3)


def _shard_streams(plan, seed, replace=None):
    """One generator per shard of ``plan``; ``replace`` maps shard -> seed."""
    replace = replace or {}
    return [
        np.random.default_rng(replace.get(shard, (seed, shard)))
        for shard in range(plan.num_shards)
    ]


def _outside(plan, shard, values):
    lo, hi = plan.bounds[shard]
    return np.concatenate([values[:lo], values[hi:]])


class TestShardLocalStreams:
    """Each shard's users draw only from that shard's own stream.

    This is what lets the lockstep kernel step any run of whole shards on
    its own thread and still reproduce the serial loop bit for bit.
    """

    @pytest.fixture
    def population(self, income_table):
        return CreditPopulation(
            population=generate_population(
                PopulationSpec(size=83), np.random.default_rng(6)
            ),
            income_table=income_table,
        )

    @pytest.mark.parametrize("shard", [0, 3, 7])
    def test_income_draw_is_shard_local(self, population, shard):
        plan = population.shard_plan
        base = population.begin_step(4, _shard_streams(plan, 10))["income"]
        moved = population.begin_step(
            4, _shard_streams(plan, 10, replace={shard: 999})
        )["income"]
        lo, hi = plan.bounds[shard]
        np.testing.assert_array_equal(
            _outside(plan, shard, base), _outside(plan, shard, moved)
        )
        assert not np.array_equal(base[lo:hi], moved[lo:hi])

    def test_repayment_draw_is_shard_local(self, income_table):
        model = GaussianRepaymentModel()
        population = CreditPopulation(
            population=generate_population(
                PopulationSpec(size=83), np.random.default_rng(6)
            ),
            income_table=income_table,
            repayment_model=model,
        )
        plan = population.shard_plan
        offers = np.ones(population.num_users)
        population.begin_step(4, _shard_streams(plan, 10))
        base = population.respond(offers, 4, _shard_streams(plan, 11))
        moved = population.respond(
            offers, 4, _shard_streams(plan, 11, replace={5: 999})
        )
        np.testing.assert_array_equal(_outside(plan, 5, base), _outside(plan, 5, moved))
        # Shard 5 answers from its own stream alone.
        lo, hi = plan.bounds[5]
        expected = model.sample_repayments(
            population.current_affordability[lo:hi],
            offers[lo:hi],
            np.random.default_rng(999),
        )
        np.testing.assert_array_equal(moved[lo:hi], expected)

    def test_ifs_moves_are_shard_local(self):
        def build():
            return IFSPopulation(
                users=[make_ifs_user() for _ in range(20)],
                initial_states=[np.array([0.5]) for _ in range(20)],
            )

        plan = build().shard_plan
        signals = np.ones(20)
        base, moved = build(), build()
        base.respond(signals, 0, _shard_streams(plan, 3))
        moved.respond(signals, 0, _shard_streams(plan, 3, replace={2: 999}))
        base_states = np.array([state[0] for state in base.states])
        moved_states = np.array([state[0] for state in moved.states])
        np.testing.assert_array_equal(
            _outside(plan, 2, base_states), _outside(plan, 2, moved_states)
        )
        lo, hi = plan.bounds[2]
        assert not np.array_equal(base_states[lo:hi], moved_states[lo:hi])

    def test_shard_race_partition_is_local_to_each_shard(self, population):
        partition = population.shard_race_partition()
        assert len(partition) == population.shard_plan.num_shards
        for (lo, hi), local in zip(population.shard_plan.bounds, partition):
            indices = np.sort(np.concatenate(list(local.values())))
            np.testing.assert_array_equal(indices, np.arange(hi - lo))
            for race, rows in local.items():
                assert np.all(population.races[lo + rows] == race)

    def test_ifs_plan_is_the_canonical_partition(self):
        population = IFSPopulation(
            users=[make_ifs_user() for _ in range(5)],
            initial_states=[np.array([0.0]) for _ in range(5)],
        )
        assert population.shard_plan == ShardPlan.canonical(5)

    def test_a_wrong_number_of_streams_is_rejected(self, population):
        streams = _shard_streams(population.shard_plan, 1)[:-1]
        with pytest.raises(ValueError, match="one generator per canonical shard"):
            population.begin_step(0, streams)
        ifs = IFSPopulation(
            users=[make_ifs_user() for _ in range(3)],
            initial_states=[np.array([0.0]) for _ in range(3)],
        )
        with pytest.raises(ValueError, match="one generator per canonical shard"):
            ifs.respond(np.ones(3), 0, _shard_streams(ifs.shard_plan, 1)[:2])


class TestStateHooks:
    """export/import_state: how snapshots and the kernel move population state."""

    def test_credit_state_round_trips(self, income_table, rng):
        source = CreditPopulation(
            population=generate_population(PopulationSpec(size=10), 3),
            income_table=income_table,
        )
        target = CreditPopulation(
            population=generate_population(PopulationSpec(size=10), 3),
            income_table=income_table,
        )
        source.begin_step(2, rng)
        # Before any step there is nothing to export, and importing that
        # is a no-op.
        empty = target.export_state()
        assert empty == {"incomes": None, "affordability": None}
        target.import_state(empty)
        with pytest.raises(RuntimeError):
            target.current_affordability
        state = source.export_state()
        target.import_state(state)
        np.testing.assert_array_equal(
            target.current_affordability, source.current_affordability
        )
        # The import keeps its own copy of the state.
        state["affordability"][:] = -1.0
        assert np.all(target.current_affordability != -1.0)

    def test_credit_import_rejects_another_population_size(self, income_table, rng):
        source = CreditPopulation(
            population=generate_population(PopulationSpec(size=10), 3),
            income_table=income_table,
        )
        target = CreditPopulation(
            population=generate_population(PopulationSpec(size=25), 3),
            income_table=income_table,
        )
        source.begin_step(0, rng)
        with pytest.raises(ValueError, match="one entry per user"):
            target.import_state(source.export_state())

    def test_credit_export_is_a_detached_copy(self, credit_population, rng):
        credit_population.begin_step(0, rng)
        state = credit_population.export_state()
        state["affordability"][:] = -1.0
        assert np.all(credit_population.current_affordability != -1.0)

    def test_ifs_state_round_trips(self):
        source = IFSPopulation(
            users=[make_ifs_user() for _ in range(3)],
            initial_states=[np.array([0.25]), np.array([0.75]), np.array([0.5])],
        )
        target = IFSPopulation(
            users=[make_ifs_user() for _ in range(3)],
            initial_states=[np.array([0.0]) for _ in range(3)],
        )
        target.import_state(source.export_state())
        assert [state[0] for state in target.states] == [0.25, 0.75, 0.5]
        with pytest.raises(ValueError, match="one private state per user"):
            target.import_state({"states": target.states[:2]})
