"""Tests for repro.data.income (income sampling)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.census import INCOME_BRACKETS, Race, default_income_table
from repro.data.income import IncomeSampler
from repro.data.synthetic import PopulationSpec, generate_population


@pytest.fixture(scope="module")
def sampler():
    return IncomeSampler(default_income_table())


class TestSample:
    def test_sampled_incomes_lie_within_bracket_range(self, sampler):
        incomes = sampler.sample(2010, Race.WHITE, 500, rng=1)
        assert incomes.min() >= INCOME_BRACKETS[0][0]
        assert incomes.max() <= INCOME_BRACKETS[-1][1]

    def test_sample_size_zero_is_empty(self, sampler):
        assert sampler.sample(2010, Race.BLACK, 0, rng=1).size == 0

    def test_negative_size_is_rejected(self, sampler):
        with pytest.raises(ValueError):
            sampler.sample(2010, Race.BLACK, -1)

    def test_sampling_is_reproducible_with_seed(self, sampler):
        a = sampler.sample(2015, Race.ASIAN, 100, rng=7)
        b = sampler.sample(2015, Race.ASIAN, 100, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_asian_mean_income_exceeds_black_mean_income(self, sampler):
        asian = sampler.sample(2020, Race.ASIAN, 4000, rng=3)
        black = sampler.sample(2020, Race.BLACK, 4000, rng=3)
        assert asian.mean() > black.mean()

    def test_empirical_bracket_shares_match_table(self, sampler):
        incomes = sampler.sample(2010, Race.WHITE, 20000, rng=11)
        shares = sampler.table.bracket_shares(2010, Race.WHITE)
        first_bracket_share = float(np.mean(incomes < 15.0))
        assert first_bracket_share == pytest.approx(shares[0], abs=0.02)


class TestCachedBracketCdf:
    """The cached-CDF path replays the retired generator.choice draws exactly."""

    def _reference_sample(self, sampler, year, race, size, generator):
        # The pre-cache implementation, verbatim: per-call share lookup,
        # generator.choice with p, then in-bracket uniforms.
        shares = sampler.table.bracket_shares(year, race)
        brackets = generator.choice(len(INCOME_BRACKETS), size=size, p=shares)
        uniforms = generator.random(size)
        lows = np.array([low for low, _ in INCOME_BRACKETS], dtype=float)
        highs = np.array([high for _, high in INCOME_BRACKETS], dtype=float)
        return lows[brackets] + uniforms * (highs[brackets] - lows[brackets])

    def test_sample_bit_identical_to_retired_choice_call(self, sampler):
        for year, race, size in ((2002, Race.WHITE, 1000), (2015, Race.BLACK, 37), (2020, Race.ASIAN, 512)):
            new = sampler.sample(year, race, size, np.random.default_rng(314))
            old = self._reference_sample(
                sampler, year, race, size, np.random.default_rng(314)
            )
            np.testing.assert_array_equal(new, old)

    def test_generator_state_matches_after_sampling(self, sampler):
        # Downstream draws (the repayment phase shares the shard stream)
        # must see the identical generator state the choice-based sampler
        # left behind.
        g_new, g_old = np.random.default_rng(77), np.random.default_rng(77)
        sampler.sample(2010, Race.WHITE, 333, g_new)
        self._reference_sample(sampler, 2010, Race.WHITE, 333, g_old)
        np.testing.assert_array_equal(g_new.random(64), g_old.random(64))

    def test_cdf_is_cached_and_validated_once(self, sampler):
        first = sampler.bracket_cdf(2010, Race.WHITE)
        second = sampler.bracket_cdf(2010, Race.WHITE)
        assert first is second
        assert first[-1] == 1.0

    def test_incomes_from_uniforms_matches_sample(self, sampler):
        generator = np.random.default_rng(5)
        block = generator.random(2 * 200)
        from_uniforms = sampler.incomes_from_uniforms(
            2012, Race.BLACK, block[:200], block[200:]
        )
        direct = sampler.sample(2012, Race.BLACK, 200, np.random.default_rng(5))
        np.testing.assert_array_equal(from_uniforms, direct)

    @staticmethod
    def _edge_values(cdf):
        """NaN, 0.0, every CDF boundary and its two neighbours, and 1.0."""
        values = [np.nan, 0.0, 1.0]
        for boundary in cdf:
            values += [
                np.nextafter(boundary, -np.inf),
                boundary,
                np.nextafter(boundary, np.inf),
            ]
        return values

    @pytest.mark.parametrize("race", list(Race))
    def test_both_bracket_routes_agree_on_every_input(self, sampler, race):
        # 4,095 draws take the searchsorted route, 4,096 the comparison
        # route; each block repeats one edge value.
        cdf = sampler.bracket_cdf(2010, race)
        for value in self._edge_values(cdf):
            expected = int(cdf.searchsorted(value, side="right"))
            for size in (4095, 4096):
                brackets = sampler.brackets_from_uniforms(
                    2010, race, np.full(size, value)
                )
                assert brackets.dtype == np.int64
                assert set(brackets.tolist()) == {expected}, (value, size)

    def test_nan_uniforms_raise_on_both_routes(self, sampler):
        # NaN lands past the last bracket on both routes, so no NaN draw
        # turns into a plausible income.
        for size in (4095, 4096):
            uniforms = np.full(size, np.nan)
            brackets = sampler.brackets_from_uniforms(2010, Race.WHITE, uniforms)
            assert set(brackets.tolist()) == {len(INCOME_BRACKETS)}
            with pytest.raises(IndexError):
                sampler.incomes_from_uniforms(
                    2010, Race.WHITE, uniforms, np.zeros(size)
                )


class TestSamplePopulation:
    def test_one_income_per_user(self, sampler, rng):
        population = generate_population(PopulationSpec(size=50), rng)
        incomes = sampler.sample_population(2010, population.races, rng)
        assert incomes.shape == (50,)
        assert np.all(incomes >= 0)

    def test_reproducible_with_seed(self, sampler):
        population = generate_population(PopulationSpec(size=30), 5)
        a = sampler.sample_population(2012, population.races, 9)
        b = sampler.sample_population(2012, population.races, 9)
        np.testing.assert_array_equal(a, b)


class TestExpectedIncome:
    def test_expected_income_orders_races_correctly(self, sampler):
        assert sampler.expected_income(2020, Race.ASIAN) > sampler.expected_income(
            2020, Race.BLACK
        )

    def test_expected_income_grows_over_years(self, sampler):
        assert sampler.expected_income(2020, Race.WHITE) > sampler.expected_income(
            2002, Race.WHITE
        )

    @given(st.sampled_from(list(Race)), st.integers(min_value=2002, max_value=2020))
    @settings(max_examples=20, deadline=None)
    def test_expected_income_is_within_bracket_bounds(self, race, year):
        sampler = IncomeSampler(default_income_table())
        expected = sampler.expected_income(year, race)
        assert INCOME_BRACKETS[0][0] <= expected <= INCOME_BRACKETS[-1][1]
