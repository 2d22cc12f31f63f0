"""Hypothesis properties of the canonical shard partition.

:class:`~repro.core.sharding.ShardPlan` partitions are disjoint, covering
and order-preserving for any population size, and worker assignments (the
lockstep kernel's thread chunks) group the shards contiguously for any
worker count.  A population's draw for a chunk of shards depends on those
shards' own streams alone, which is what lets each kernel thread replay
its users' slice of the whole-population schedule.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.population import CreditPopulation
from repro.core.sharding import ShardPlan
from repro.data.synthetic import PopulationSpec, generate_population
from repro.utils.rng import shard_step_generator


@st.composite
def plans(draw):
    num_users = draw(st.integers(min_value=1, max_value=5000))
    if draw(st.booleans()):
        return ShardPlan.canonical(num_users)
    num_shards = draw(st.integers(min_value=1, max_value=min(16, num_users)))
    return ShardPlan.with_shards(num_users, num_shards)


class TestShardPlanProperties:
    @given(plan=plans())
    @settings(max_examples=80, deadline=None)
    def test_partition_is_disjoint_covering_order_preserving(self, plan):
        seen = np.concatenate(
            [np.arange(lo, hi) for lo, hi in plan.bounds]
        )
        # Order-preserving concatenation of disjoint ranges == identity.
        assert np.array_equal(seen, np.arange(plan.num_users))
        assert all(hi > lo for lo, hi in plan.bounds)

    @given(plan=plans(), workers=st.integers(min_value=1, max_value=32))
    @settings(max_examples=80, deadline=None)
    def test_worker_ranges_partition_the_shards(self, plan, workers):
        ranges = plan.worker_ranges(workers)
        covered = np.concatenate(
            [np.arange(start, stop) for start, stop in ranges]
        )
        assert np.array_equal(covered, np.arange(plan.num_shards))
        # Each worker's user range is the contiguous union of its shards.
        for start, stop in ranges:
            lo, hi = plan.user_range(start, stop)
            assert lo == plan.bounds[start][0]
            assert hi == plan.bounds[stop - 1][1]


class TestShardedPopulationProperties:
    @given(
        size=st.integers(min_value=8, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        step=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_sharded_income_draw_is_shard_local(self, size, seed, step):
        population = CreditPopulation(
            population=generate_population(
                PopulationSpec(size=size), np.random.default_rng(seed)
            )
        )
        plan = population.shard_plan

        def streams(owned):
            # Shards outside ``owned`` draw from an unrelated schedule.
            return [
                shard_step_generator(seed if shard in owned else seed + 1, shard, step)
                for shard in range(plan.num_shards)
            ]

        full = population.begin_step(step, streams(range(plan.num_shards)))["income"]
        # Every worker grouping replays its users' slice exactly.
        for workers in (2, plan.num_shards):
            for start, stop in plan.worker_ranges(workers):
                lo, hi = plan.user_range(start, stop)
                incomes = population.begin_step(step, streams(range(start, stop)))
                assert np.array_equal(full[lo:hi], incomes["income"][lo:hi])
