"""Tests for repro.credit.borrower (the affordability state of equation 10)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.credit.borrower import BorrowerState, affordability_state
from repro.credit.mortgage import MortgageTerms
from repro.data.census import Race


class TestAffordabilityState:
    def test_matches_equation_10(self):
        terms = MortgageTerms()
        income = 50.0
        expected = (income - 10.0 - 3.5 * 0.0216 * income) / income
        assert affordability_state(income, terms)[0] == pytest.approx(expected)

    def test_high_income_approaches_one_minus_rate_share(self):
        terms = MortgageTerms()
        state = affordability_state(10_000.0, terms)[0]
        assert state == pytest.approx(1.0 - 3.5 * 0.0216 - 10.0 / 10_000.0, abs=1e-9)

    def test_income_below_living_cost_gives_negative_state(self):
        terms = MortgageTerms()
        assert affordability_state(8.0, terms)[0] < 0

    def test_zero_income_gives_large_negative_state(self):
        terms = MortgageTerms()
        assert affordability_state(0.0, terms)[0] <= -1e5

    def test_vectorised_over_incomes(self):
        terms = MortgageTerms()
        states = affordability_state([20.0, 50.0, 100.0], terms)
        assert states.shape == (3,)
        assert np.all(np.diff(states) > 0)

    def test_fixed_principal_changes_the_breakeven_income(self):
        proportional = MortgageTerms()
        fixed = MortgageTerms(fixed_principal=50.0)
        income = 11.0
        # With a $50K loan the interest is 1.08, so obligations exceed income 11.
        assert affordability_state(income, fixed)[0] < affordability_state(income, proportional)[0]

    @pytest.mark.parametrize("fixed_principal", [None, 50.0])
    def test_matches_gather_scatter_reference_bit_for_bit(self, fixed_principal):
        # Computing every entry and overwriting the non-positive ones must
        # reproduce, on positive incomes, the state computed on the gathered
        # positive incomes alone, and fill every other entry (zero,
        # negative, nan, -inf).
        terms = MortgageTerms(fixed_principal=fixed_principal)
        rng = np.random.default_rng(7)
        incomes = rng.lognormal(3.5, 1.0, size=(3, 400))
        incomes[0, ::7] = 0.0
        incomes[1, ::11] = -rng.random(incomes[1, ::11].shape) * 50.0
        incomes[2, 5] = np.nan
        incomes[2, 6] = -np.inf
        incomes[2, 7] = 1e-300
        positive = incomes > 0
        z = incomes[positive]
        expected = np.full_like(incomes, -1e6)
        expected[positive] = (z - terms.annual_obligation(z)) / z
        np.testing.assert_array_equal(affordability_state(incomes, terms), expected)

    @given(st.floats(min_value=0.1, max_value=500.0))
    @settings(max_examples=50, deadline=None)
    def test_state_is_bounded_above_by_one(self, income):
        terms = MortgageTerms()
        assert affordability_state(income, terms)[0] < 1.0


class TestBorrowerState:
    def test_from_income_populates_affordability(self):
        terms = MortgageTerms()
        borrower = BorrowerState.from_income(3, Race.WHITE, 50.0, terms)
        assert borrower.user_index == 3
        assert borrower.race is Race.WHITE
        assert borrower.affordability == pytest.approx(affordability_state(50.0, terms)[0])

    def test_can_cover_obligation_flag(self):
        terms = MortgageTerms()
        wealthy = BorrowerState.from_income(0, Race.ASIAN, 100.0, terms)
        poor = BorrowerState.from_income(1, Race.BLACK, 5.0, terms)
        assert wealthy.can_cover_obligation
        assert not poor.can_cover_obligation
