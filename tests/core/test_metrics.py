"""Tests for repro.core.metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import (
    approval_rates_by_group,
    group_approval_series,
    group_average_series,
)
from repro.data.census import Race


@pytest.fixture
def simple_groups():
    return {Race.BLACK: np.array([0, 1]), Race.WHITE: np.array([2, 3])}


class TestApprovalRates:
    def test_rates_by_group(self, simple_groups):
        decisions = np.array([[1, 1, 1, 1], [0, 0, 1, 1]], dtype=float)
        rates = approval_rates_by_group(decisions, simple_groups)
        assert rates[Race.BLACK] == pytest.approx(0.5)
        assert rates[Race.WHITE] == pytest.approx(1.0)

    def test_empty_group_reports_nan(self):
        decisions = np.ones((2, 2))
        rates = approval_rates_by_group(decisions, {Race.ASIAN: np.array([], dtype=int)})
        assert np.isnan(rates[Race.ASIAN])

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            approval_rates_by_group(np.ones(4), {Race.BLACK: np.array([0])})


class TestGroupAverageSeries:
    def test_per_step_group_means(self, simple_groups):
        series = np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]])
        grouped = group_average_series(series, simple_groups)
        np.testing.assert_allclose(grouped[Race.BLACK], [0.5, 4.5])
        np.testing.assert_allclose(grouped[Race.WHITE], [2.5, 6.5])

    def test_empty_group_is_nan(self):
        series = np.ones((2, 2))
        grouped = group_average_series(series, {Race.ASIAN: np.array([], dtype=int)})
        assert np.all(np.isnan(grouped[Race.ASIAN]))

    def test_rejects_1d_series(self):
        with pytest.raises(ValueError):
            group_average_series(np.ones(5), {Race.BLACK: np.array([0])})


class TestGroupApprovalSeries:
    def test_per_step_approval_within_each_group(self, simple_groups):
        decisions = np.array([[1, 0, 1, 1], [0, 0, 1, 0]], dtype=float)
        series = group_approval_series(decisions, simple_groups)
        np.testing.assert_allclose(series[Race.BLACK], [0.5, 0.0])
        np.testing.assert_allclose(series[Race.WHITE], [1.0, 0.5])

    def test_step_average_is_the_pooled_group_rate(self, simple_groups):
        decisions = np.random.default_rng(5).integers(0, 2, size=(7, 4)).astype(float)
        series = group_approval_series(decisions, simple_groups)
        pooled = approval_rates_by_group(decisions, simple_groups)
        for key in simple_groups:
            assert series[key].mean() == pytest.approx(pooled[key])

    def test_empty_group_is_nan_at_every_step(self):
        series = group_approval_series(
            np.ones((3, 2)), {Race.ASIAN: np.array([], dtype=int)}
        )
        assert series[Race.ASIAN].shape == (3,)
        assert np.all(np.isnan(series[Race.ASIAN]))

    def test_rejects_1d_decisions(self):
        with pytest.raises(ValueError, match="steps, users"):
            group_approval_series(np.ones(4), {Race.BLACK: np.array([0])})
