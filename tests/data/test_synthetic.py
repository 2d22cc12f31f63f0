"""Tests for repro.data.synthetic (population generation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.census import Race
from repro.data.synthetic import PopulationSpec, SyntheticPopulation, generate_population


class TestPopulationSpec:
    def test_defaults_match_paper(self):
        spec = PopulationSpec()
        assert spec.size == 1000
        assert sum(spec.race_mix.values()) == pytest.approx(1.0)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            PopulationSpec(size=0)

    def test_rejects_invalid_race_mix(self):
        with pytest.raises(ValueError):
            PopulationSpec(race_mix={Race.BLACK: 0.5, Race.WHITE: 0.1, Race.ASIAN: 0.1})


class TestGeneratePopulation:
    def test_population_has_requested_size(self, rng):
        population = generate_population(PopulationSpec(size=123), rng)
        assert population.size == 123

    def test_generation_is_reproducible(self):
        a = generate_population(PopulationSpec(size=200), 42)
        b = generate_population(PopulationSpec(size=200), 42)
        assert a.races == b.races

    def test_race_shares_approximate_the_mix(self):
        population = generate_population(PopulationSpec(size=20000), 1)
        sizes = population.group_sizes()
        assert sizes[Race.WHITE] / population.size == pytest.approx(0.8406, abs=0.02)
        assert sizes[Race.BLACK] / population.size == pytest.approx(0.1235, abs=0.02)
        assert sizes[Race.ASIAN] / population.size == pytest.approx(0.0359, abs=0.02)

    def test_single_race_mix(self):
        population = generate_population(
            PopulationSpec(size=10, race_mix={Race.BLACK: 1.0}), 0
        )
        assert all(race == Race.BLACK for race in population.races)

    def test_races_are_the_per_user_draws_of_the_mix(self):
        spec = PopulationSpec(size=500)
        population = generate_population(spec, 8)
        mix = list(spec.race_mix)
        shares = np.asarray(list(spec.race_mix.values()))
        draws = np.random.default_rng(8).choice(
            len(mix), size=spec.size, p=shares / shares.sum()
        )
        assert population.races == tuple(mix[index] for index in draws)
        assert all(type(race) is Race for race in population.races)

    def test_integer_codes_give_the_enum_comparison_groups(self):
        population = generate_population(PopulationSpec(size=2000), 5)
        assert population.codes is not None
        compared = SyntheticPopulation(races=population.races).indices_by_race()
        for race, indices in population.indices_by_race().items():
            assert indices.dtype == compared[race].dtype
            np.testing.assert_array_equal(indices, compared[race])


class TestSyntheticPopulation:
    def test_indices_by_race_partition_the_population(self, small_population):
        indices = small_population.indices_by_race()
        combined = np.sort(np.concatenate(list(indices.values())))
        np.testing.assert_array_equal(combined, np.arange(small_population.size))

    def test_group_sizes_sum_to_population_size(self, small_population):
        assert sum(small_population.group_sizes().values()) == small_population.size

    def test_races_array_matches_tuple(self, small_population):
        array = small_population.races_array()
        assert array.shape == (small_population.size,)
        assert array[0] == small_population.races[0]

    def test_empty_group_has_empty_index_array(self):
        population = SyntheticPopulation(races=(Race.WHITE, Race.WHITE))
        indices = population.indices_by_race()
        assert indices[Race.ASIAN].size == 0

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_any_size_population_partitions_correctly(self, size):
        population = generate_population(PopulationSpec(size=size), 3)
        total = sum(indices.size for indices in population.indices_by_race().values())
        assert total == size
