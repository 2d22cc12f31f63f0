"""Tests for repro.core.convergence (batch-means long-run estimates)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convergence import (
    batch_means,
    estimate_long_run_average,
    impact_gap_significance,
)
from repro.data.census import Race


class TestBatchMeans:
    def test_splits_into_the_requested_number_of_batches(self):
        means = batch_means(np.arange(100, dtype=float), 10)
        assert means.shape == (10,)

    def test_batch_means_of_a_constant_series_are_the_constant(self):
        np.testing.assert_allclose(batch_means(np.full(40, 3.0), 4), 3.0)

    def test_remainder_is_dropped_from_the_front(self):
        series = np.array([100.0, 1.0, 1.0, 2.0, 2.0])
        np.testing.assert_allclose(batch_means(series, 2), [1.0, 2.0])

    def test_rejects_too_few_batches(self):
        with pytest.raises(ValueError):
            batch_means(np.ones(10), 1)

    def test_rejects_series_shorter_than_the_batch_count(self):
        with pytest.raises(ValueError):
            batch_means(np.ones(3), 5)


class TestEstimateLongRunAverage:
    def test_iid_series_interval_covers_the_true_mean(self):
        rng = np.random.default_rng(0)
        series = rng.binomial(1, 0.3, size=5000).astype(float)
        result = estimate_long_run_average(series, num_batches=10)
        assert result.contains(0.3)
        assert result.estimate == pytest.approx(0.3, abs=0.03)

    def test_longer_series_give_tighter_intervals(self):
        rng = np.random.default_rng(1)
        short = estimate_long_run_average(rng.normal(size=400), num_batches=8)
        long = estimate_long_run_average(rng.normal(size=40000), num_batches=8)
        assert long.halfwidth < short.halfwidth

    def test_burn_in_discards_the_transient(self):
        series = np.concatenate([np.full(200, 10.0), np.zeros(800)])
        with_burn_in = estimate_long_run_average(series, burn_in=0.25)
        assert with_burn_in.estimate == pytest.approx(0.0, abs=1e-9)

    def test_interval_is_symmetric_around_the_estimate(self):
        rng = np.random.default_rng(2)
        result = estimate_long_run_average(rng.normal(size=1000))
        low, high = result.interval
        assert (low + high) / 2.0 == pytest.approx(result.estimate)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            estimate_long_run_average([])

    def test_rejects_invalid_confidence(self):
        with pytest.raises(ValueError):
            estimate_long_run_average(np.ones(100), confidence=1.0)

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize("num_batches", [2, 3, 10, 40, 400])
    def test_interval_equals_the_student_t_ppf_interval(self, confidence, num_batches):
        from scipy import stats

        series = np.random.default_rng(num_batches).random(num_batches * 5)
        result = estimate_long_run_average(
            series, num_batches=num_batches, confidence=confidence, burn_in=0.0
        )
        t_critical = float(stats.t.ppf(0.5 + confidence / 2.0, df=num_batches - 1))
        assert result.halfwidth == t_critical * result.standard_error
        assert result.interval == (
            result.estimate - t_critical * result.standard_error,
            result.estimate + t_critical * result.standard_error,
        )

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_halfwidth_is_non_negative(self, num_batches, seed):
        rng = np.random.default_rng(seed)
        series = rng.random(max(200, num_batches * 5))
        result = estimate_long_run_average(series, num_batches=num_batches)
        assert result.halfwidth >= 0.0
        assert result.standard_error >= 0.0


class TestImpactGapSignificance:
    def _outcomes(self, p_a: float, p_b: float, steps: int = 2000, seed: int = 0):
        rng = np.random.default_rng(seed)
        group_a = rng.binomial(1, p_a, size=(steps, 10)).astype(float)
        group_b = rng.binomial(1, p_b, size=(steps, 10)).astype(float)
        outcomes = np.hstack([group_a, group_b])
        groups = {Race.BLACK: np.arange(0, 10), Race.WHITE: np.arange(10, 20)}
        return outcomes, groups

    def test_a_real_gap_is_flagged_as_significant(self):
        outcomes, groups = self._outcomes(0.6, 0.2)
        result = impact_gap_significance(outcomes, groups)
        assert result.gap == pytest.approx(0.4, abs=0.05)
        assert result.gap_is_significant

    def test_identical_groups_are_not_flagged(self):
        outcomes, groups = self._outcomes(0.4, 0.4, seed=3)
        result = impact_gap_significance(outcomes, groups)
        assert not result.gap_is_significant

    def test_empty_groups_are_skipped(self):
        outcomes, groups = self._outcomes(0.5, 0.1)
        groups = dict(groups)
        groups[Race.ASIAN] = np.array([], dtype=int)
        result = impact_gap_significance(outcomes, groups)
        assert set(result.group_estimates) == {Race.BLACK, Race.WHITE}

    def test_requires_at_least_two_groups(self):
        outcomes, _ = self._outcomes(0.5, 0.5)
        with pytest.raises(ValueError):
            impact_gap_significance(outcomes, {Race.BLACK: np.arange(0, 20)})

    def test_rejects_bad_outcome_shapes(self):
        with pytest.raises(ValueError):
            impact_gap_significance(np.ones(10), {Race.BLACK: np.array([0])})
