"""Tests for repro.credit.borrower (the affordability state of equation 10)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.credit.borrower import affordability_state
from repro.credit.mortgage import MortgageTerms


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

    @pytest.mark.parametrize("fixed_principal", [None, 50.0])
    def test_overflowing_incomes_get_the_finite_floor(self, fixed_principal):
        # obligation / income overflows for these positive incomes; they
        # take the non-positive incomes' floor, with no floating-point
        # error even when the caller raises on overflow, while finite
        # states keep their bits.
        terms = MortgageTerms(fixed_principal=fixed_principal)
        incomes = np.array([5e-324, 1e-308, 0.0, 1e-300, 50.0])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            states = affordability_state(incomes, terms)
        assert np.all(np.isfinite(states))
        np.testing.assert_array_equal(states[:3], [-1e6, -1e6, -1e6])
        z = incomes[3:]
        np.testing.assert_array_equal(
            states[3:], (z - terms.annual_obligation(z)) / z
        )

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


class TestInPlaceObligation:
    """The obligation built in the output array keeps every state's bits."""

    INCOMES = [
        0.0, -0.0, -5.0, -1e300, 5e-324, 1e-320, 1e-310, 2.2e-308, 1e-300,
        1e-3, 9.99, 10.0, 10.5, 50.0, 1e6, 1e300, 1e308, np.inf, -np.inf, np.nan,
    ]

    TERMS = [
        MortgageTerms(),
        MortgageTerms(fixed_principal=50.0),
        MortgageTerms(annual_rate=0.0),
        MortgageTerms(annual_rate=0.0, fixed_principal=50.0),
        MortgageTerms(income_multiple=7.25, annual_rate=0.13, living_cost=0.0),
    ]

    @staticmethod
    def _formula(incomes, terms):
        """The states through ``MortgageTerms.annual_obligation``, then the floors."""
        with np.errstate(all="ignore"):
            obligations = np.asarray(
                terms.annual_obligation(np.maximum(incomes, 0.0)), dtype=float
            )
            states = (incomes - obligations) / incomes
        floored = ~(incomes > 0) | (states == -np.inf)
        states[floored] = -1e6
        return states

    @pytest.mark.parametrize("terms", TERMS)
    @pytest.mark.parametrize("layout", ["new", "out", "strided out"])
    def test_bits_match_the_obligation_formula(self, terms, layout):
        incomes = np.array(self.INCOMES)
        rows = np.stack([incomes, incomes[::-1]])
        expected = self._formula(rows, terms)
        out = None
        if layout == "out":
            out = np.full(rows.shape, 3.0)
        elif layout == "strided out":
            out = np.full((2, 2 * incomes.size), 3.0)[:, 1::2]
        with np.errstate(all="raise"):
            states = affordability_state(rows, terms, out=out)
        if out is not None:
            assert states is out
        np.testing.assert_array_equal(
            np.ascontiguousarray(states).view(np.uint64), expected.view(np.uint64)
        )

    @pytest.mark.parametrize("terms", TERMS)
    def test_scalar_income_matches_the_formula(self, terms):
        for income in self.INCOMES:
            state = affordability_state(income, terms)
            expected = self._formula(np.array([income]), terms)
            assert state.view(np.uint64)[0] == expected.view(np.uint64)[0], income
