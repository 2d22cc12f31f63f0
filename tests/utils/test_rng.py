"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import (
    derive_seed,
    pcg64_states,
    shard_seed,
    shard_step_generator,
    spawn_generator,
    step_seed,
    step_states,
)


class TestDeriveSeed:
    def test_is_deterministic(self):
        assert derive_seed(42, "trial", 3) == derive_seed(42, "trial", 3)

    def test_different_labels_give_different_seeds(self):
        assert derive_seed(42, "trial", 3) != derive_seed(42, "trial", 4)

    def test_different_parents_give_different_seeds(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_result_is_in_range(self):
        for label in range(50):
            seed = derive_seed(7, label)
            assert 0 <= seed < 2**63 - 1

    def test_accepts_arbitrary_label_types(self):
        assert isinstance(derive_seed(5, ("x", 1), 2.5, None), int)


class TestSpawnGenerator:
    def test_integer_seed_is_deterministic(self):
        a = spawn_generator(123).random(5)
        b = spawn_generator(123).random(5)
        np.testing.assert_array_equal(a, b)

    def test_existing_generator_is_passed_through(self):
        generator = np.random.default_rng(0)
        assert spawn_generator(generator) is generator

    def test_none_gives_a_generator(self):
        assert isinstance(spawn_generator(None), np.random.Generator)


class TestSeedChain:
    """A stream's seed is the base seed, then its shard, then its step."""

    def test_shard_seed_hashes_the_shard_label(self):
        assert shard_seed(42, 3) == derive_seed(42, "shard", 3)
        assert len({shard_seed(42, shard) for shard in range(64)}) == 64

    def test_step_seed_hashes_the_step_label(self):
        parent = shard_seed(42, 3)
        assert step_seed(parent, 5) == derive_seed(parent, "step", 5)
        assert len({step_seed(parent, step) for step in range(64)}) == 64

    def test_shard_step_generator_runs_pcg64_on_the_chained_seed(self):
        expected = np.random.Generator(
            np.random.PCG64(step_seed(shard_seed(42, 3), 5))
        )
        np.testing.assert_array_equal(
            shard_step_generator(42, 3, 5).random(6), expected.random(6)
        )

    def test_streams_differ_across_shards_and_steps(self):
        draws = {
            (shard, step): shard_step_generator(42, shard, step).random(4).tobytes()
            for shard in range(3)
            for step in range(3)
        }
        assert len(set(draws.values())) == len(draws)


class TestVectorisedSeeding:
    """``pcg64_states`` against numpy's own ``PCG64(seed)`` seeding."""

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 2, 2**63 - 1, 2**64 - 1]

    @classmethod
    def seeds(cls):
        """The edge seeds, the small ones, both sides of 2**32, and random ones."""
        rng = np.random.default_rng(2026)
        seeds = cls.EDGE_SEEDS + list(range(2, 200))
        seeds += [2**32 + offset for offset in range(-100, 100)]
        seeds += rng.integers(0, 2**32, size=500, dtype=np.uint64).tolist()
        seeds += rng.integers(0, 2**63 - 1, size=1600, dtype=np.uint64).tolist()
        return seeds

    def test_states_equal_numpys_for_2500_seeds(self):
        seeds = self.seeds()
        assert len(seeds) >= 2500
        for seed, state in zip(seeds, pcg64_states(seeds)):
            assert state == np.random.PCG64(seed).state, seed

    def test_a_reseated_generator_draws_what_a_fresh_one_draws(self):
        seeds = self.seeds()
        generator = np.random.Generator(np.random.PCG64(0))
        for seed, state in zip(seeds, pcg64_states(seeds)):
            generator.bit_generator.state = state
            fresh = np.random.Generator(np.random.PCG64(seed))
            np.testing.assert_array_equal(generator.random(3), fresh.random(3))

    def test_reseating_drops_a_buffered_half_word(self):
        # A 32-bit draw leaves half a 64-bit word buffered in the bit
        # generator; the re-seated stream must not start with it.
        generator = np.random.Generator(np.random.PCG64(0))
        generator.integers(0, 2**16, dtype=np.uint32)
        (state,) = pcg64_states([12345])
        generator.bit_generator.state = state
        fresh = np.random.Generator(np.random.PCG64(12345))
        np.testing.assert_array_equal(
            generator.integers(0, 2**16, size=5, dtype=np.uint32),
            fresh.integers(0, 2**16, size=5, dtype=np.uint32),
        )

    def test_no_seeds_give_no_states(self):
        assert pcg64_states([]) == []


class TestStepStates:
    """``step_states`` seats the streams ``shard_step_generator`` defines."""

    @pytest.mark.parametrize("seed", [0, 7, 20240101])
    def test_reseated_streams_equal_the_definition(self, seed):
        shard_seeds = [shard_seed(seed, shard) for shard in range(8)]
        generator = np.random.Generator(np.random.PCG64(0))
        for step in (0, 1, 18, 1022):
            for shard, state in enumerate(step_states(shard_seeds, step)):
                generator.bit_generator.state = state
                expected = shard_step_generator(seed, shard, step)
                np.testing.assert_array_equal(generator.random(4), expected.random(4))
                np.testing.assert_array_equal(
                    generator.standard_normal(2), expected.standard_normal(2)
                )
