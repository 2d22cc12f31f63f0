"""Tests for repro.utils.stats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import (
    cesaro_averages,
    gini_coefficient,
    max_pairwise_gap,
)


class TestCesaroAverages:
    def test_matrix_per_column(self):
        series = np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 1.0]])
        result = cesaro_averages(series, axis=0)
        np.testing.assert_allclose(result[:, 0], [0.0, 1.0, 2.0])
        np.testing.assert_allclose(result[:, 1], [1.0, 1.0, 1.0])

    def test_axis_minus_one_default(self):
        series = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(cesaro_averages(series), [1.0, 1.5, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cesaro_averages(np.array([]))

    def test_default_axis_averages_each_row(self):
        series = np.array([[0.0, 2.0, 4.0], [1.0, 1.0, 4.0]])
        np.testing.assert_allclose(
            cesaro_averages(series), cesaro_averages(series.T, axis=0).T
        )
        np.testing.assert_allclose(cesaro_averages(series)[1], [1.0, 1.0, 2.0])

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_shape_is_preserved(self, rows, cols):
        series = np.ones((rows, cols))
        assert cesaro_averages(series, axis=0).shape == (rows, cols)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_last_entry_is_plain_mean(self, values):
        result = cesaro_averages(np.asarray(values))
        assert result[-1] == pytest.approx(np.mean(values), abs=1e-9)


class TestMaxPairwiseGap:
    def test_gap_of_constant_vector_is_zero(self):
        assert max_pairwise_gap([3.0, 3.0, 3.0]) == 0.0

    def test_gap_matches_max_minus_min(self):
        assert max_pairwise_gap([1.0, 5.0, 2.0]) == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "values", [[], [[1.0, 2.0], [3.0, 4.0]]], ids=["empty", "matrix"]
    )
    def test_rejects_anything_but_a_non_empty_vector(self, values):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            max_pairwise_gap(values)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_gap_is_non_negative(self, values):
        assert max_pairwise_gap(values) >= 0.0


class TestGiniCoefficient:
    def test_equal_values_give_zero(self):
        assert gini_coefficient([2.0, 2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_concentration_gives_high_gini(self):
        assert gini_coefficient([0.0, 0.0, 0.0, 10.0]) > 0.7

    @pytest.mark.parametrize("size", [2, 5, 40])
    def test_one_holder_among_n_gives_n_minus_one_over_n(self, size):
        values = np.zeros(size)
        values[-1] = 3.0
        assert gini_coefficient(values) == pytest.approx((size - 1) / size)

    def test_all_zero_vector_gives_zero(self):
        assert gini_coefficient([0.0, 0.0]) == 0.0

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            gini_coefficient([-1.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gini_coefficient([])

    @given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_gini_is_between_zero_and_one(self, values):
        result = gini_coefficient(values)
        assert -1e-9 <= result <= 1.0
