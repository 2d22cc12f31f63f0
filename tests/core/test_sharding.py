"""Unit tests for the canonical shard plans and the per-shard streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sharding import (
    NUM_CANONICAL_SHARDS,
    ShardPlan,
    max_worker_shards,
    whole_population,
)
from repro.utils.rng import derive_seed, shard_seed, shard_step_generator


class TestShardPlan:
    def test_canonical_caps_at_population_size(self):
        assert ShardPlan.canonical(3).num_shards == 3
        assert ShardPlan.canonical(1000).num_shards == NUM_CANONICAL_SHARDS

    def test_canonical_is_contiguous_and_covering(self):
        plan = ShardPlan.canonical(1003)
        assert plan.bounds[0][0] == 0
        assert plan.bounds[-1][1] == 1003
        for (_, hi), (lo, _) in zip(plan.bounds, plan.bounds[1:]):
            assert hi == lo
        assert sum(plan.sizes) == 1003

    def test_canonical_matches_array_split_sizing(self):
        plan = ShardPlan.canonical(1003)
        expected = [len(chunk) for chunk in np.array_split(np.arange(1003), 8)]
        assert list(plan.sizes) == expected

    def test_single_plan(self):
        plan = ShardPlan.single(17)
        assert plan.bounds == ((0, 17),)

    def test_validation_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ShardPlan(num_users=10, bounds=((0, 5), (6, 10)))  # gap
        with pytest.raises(ValueError):
            ShardPlan(num_users=10, bounds=((0, 5), (5, 9)))  # short
        with pytest.raises(ValueError):
            ShardPlan(num_users=10, bounds=((0, 5), (5, 5), (5, 10)))  # empty
        with pytest.raises(ValueError):
            ShardPlan(num_users=0, bounds=())

    def test_worker_ranges_cover_all_shards(self):
        plan = ShardPlan.canonical(100)
        for workers in (1, 2, 3, 8, 20):
            ranges = plan.worker_ranges(workers)
            assert len(ranges) == min(workers, plan.num_shards)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == plan.num_shards
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert stop == start

    def test_slices_match_bounds(self):
        plan = ShardPlan.canonical(30)
        joined = np.concatenate([np.arange(30)[s] for s in plan.slices()])
        assert np.array_equal(joined, np.arange(30))

    def test_with_shards_validates_the_count(self):
        assert ShardPlan.with_shards(10, 10).sizes == (1,) * 10
        for bad in (0, 11):
            with pytest.raises(ValueError, match="num_shards"):
                ShardPlan.with_shards(10, bad)
        with pytest.raises(ValueError):
            ShardPlan.with_shards(0, 1)

    def test_worker_ranges_reject_nonpositive_counts(self):
        with pytest.raises(ValueError, match="num_workers"):
            ShardPlan.canonical(100).worker_ranges(0)

    def test_user_range_spans_whole_shards(self):
        plan = ShardPlan.canonical(1003)  # sizes 126 x 3, then 125 x 5
        assert plan.user_range(0, 1) == (0, 126)
        assert plan.user_range(2, 5) == (252, 628)
        assert plan.user_range(0, plan.num_shards) == (0, 1003)
        for start, stop in ((0, 0), (3, 2), (-1, 2), (7, 9)):
            with pytest.raises(ValueError, match="invalid shard range"):
                plan.user_range(start, stop)


class TestWorkerCeiling:
    def test_max_worker_shards_caps_at_shards_and_users(self):
        assert max_worker_shards(1) == 1
        assert max_worker_shards(5) == 5
        assert max_worker_shards(10_000) == NUM_CANONICAL_SHARDS
        with pytest.raises(ValueError):
            max_worker_shards(0)

    def test_default_chunk_map_runs_one_whole_range_inline(self):
        calls = []
        results = whole_population(lambda users: calls.append(users) or len(calls))
        assert calls == [slice(None)]
        assert results == [1]


class TestShardStreams:
    def test_shard_seed_matches_derive_seed_labels(self):
        assert shard_seed(123, 4) == derive_seed(123, "shard", 4)

    def test_step_generators_are_stateless_and_reproducible(self):
        a = shard_step_generator(9, 2, 7).random(5)
        b = shard_step_generator(9, 2, 7).random(5)
        assert np.array_equal(a, b)
        c = shard_step_generator(9, 2, 8).random(5)
        assert not np.array_equal(a, c)
