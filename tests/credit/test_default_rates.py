"""Tests for repro.credit.default_rates (equation 12)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.credit.default_rates import DefaultRateTracker
from repro.data.census import Race


class TestRecordingAndRates:
    def test_initial_rates_equal_the_prior(self):
        tracker = DefaultRateTracker(3, prior_rate=0.2)
        np.testing.assert_allclose(tracker.user_rates(), [0.2, 0.2, 0.2])

    def test_single_step_rates(self):
        tracker = DefaultRateTracker(3)
        tracker.record(decisions=[1, 1, 0], repayments=[1, 0, 0])
        np.testing.assert_allclose(tracker.user_rates(), [0.0, 1.0, 0.0])

    def test_rates_accumulate_over_steps(self):
        tracker = DefaultRateTracker(1)
        tracker.record([1], [1])
        tracker.record([1], [0])
        assert tracker.user_rates()[0] == pytest.approx(0.5)
        tracker.record([1], [0])
        assert tracker.user_rates()[0] == pytest.approx(2.0 / 3.0)

    def test_denied_steps_do_not_change_the_rate(self):
        tracker = DefaultRateTracker(1)
        tracker.record([1], [0])
        rate_before = tracker.user_rates()[0]
        tracker.record([0], [0])
        assert tracker.user_rates()[0] == pytest.approx(rate_before)

    def test_steps_recorded_counter(self):
        tracker = DefaultRateTracker(2)
        tracker.record([1, 1], [1, 1])
        tracker.record([1, 0], [0, 0])
        assert tracker.steps_recorded == 2

    def test_offers_and_repayments_accessors(self):
        tracker = DefaultRateTracker(2)
        tracker.record([1, 1], [1, 0])
        np.testing.assert_allclose(tracker.offers, [1, 1])
        np.testing.assert_allclose(tracker.repayments, [1, 0])


class TestGroupRates:
    def test_group_rates_average_member_rates(self):
        tracker = DefaultRateTracker(4)
        tracker.record([1, 1, 1, 1], [1, 0, 1, 1])
        groups = {Race.BLACK: np.array([0, 1]), Race.WHITE: np.array([2, 3])}
        rates = tracker.group_rates(groups)
        assert rates[Race.BLACK] == pytest.approx(0.5)
        assert rates[Race.WHITE] == pytest.approx(0.0)

    def test_empty_group_reports_nan(self):
        tracker = DefaultRateTracker(2)
        tracker.record([1, 1], [1, 1])
        rates = tracker.group_rates({Race.ASIAN: np.array([], dtype=int)})
        assert np.isnan(rates[Race.ASIAN])


class TestPortfolioRate:
    def test_pooled_rate(self):
        tracker = DefaultRateTracker(2)
        tracker.record([1, 1], [1, 0])
        assert tracker.portfolio_rate() == pytest.approx(0.5)

    def test_no_offers_reports_prior(self):
        tracker = DefaultRateTracker(2, prior_rate=0.3)
        assert tracker.portfolio_rate() == pytest.approx(0.3)


class TestValidation:
    def test_rejects_non_positive_population(self):
        with pytest.raises(ValueError):
            DefaultRateTracker(0)

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError):
            DefaultRateTracker(2, prior_rate=1.5)

    def test_rejects_wrong_length_inputs(self):
        tracker = DefaultRateTracker(3)
        with pytest.raises(ValueError):
            tracker.record([1, 1], [1, 1])

    def test_rejects_non_binary_inputs(self):
        tracker = DefaultRateTracker(2)
        with pytest.raises(ValueError):
            tracker.record([1, 2], [1, 0])

    def test_rejects_repayment_without_offer(self):
        tracker = DefaultRateTracker(2)
        with pytest.raises(ValueError):
            tracker.record([0, 1], [1, 1])


class TestStateRoundTrip:
    """export_state/from_state: how snapshots and the kernel carry a tracker."""

    def test_from_state_rebuilds_an_equivalent_tracker(self):
        tracker = DefaultRateTracker(3, prior_rate=0.2)
        tracker.record([1, 1, 0], [1, 0, 0])
        tracker.record([1, 0, 1], [0, 0, 1])
        rebuilt = DefaultRateTracker.from_state(tracker.export_state())
        np.testing.assert_array_equal(rebuilt.user_rates(), tracker.user_rates())
        assert rebuilt.portfolio_rate() == tracker.portfolio_rate()
        assert rebuilt.steps_recorded == 2
        # The rebuilt tracker keeps counting from where the original stood.
        for each in (tracker, rebuilt):
            each.record([1, 1, 1], [1, 1, 0])
        np.testing.assert_array_equal(rebuilt.user_rates(), tracker.user_rates())
        # An untouched user still reports the prior.
        fresh = DefaultRateTracker.from_state(DefaultRateTracker(2, 0.3).export_state())
        np.testing.assert_allclose(fresh.user_rates(), [0.3, 0.3])

    def test_from_state_rejects_mismatched_repayments(self):
        state = DefaultRateTracker(3).export_state()
        state["repayments"] = np.zeros(4)
        with pytest.raises(ValueError, match="one entry per user"):
            DefaultRateTracker.from_state(state)

    def test_rebuilt_tracker_owns_its_arrays(self):
        state = DefaultRateTracker(2).export_state()
        rebuilt = DefaultRateTracker.from_state(state)
        state["offers"][:] = 5.0
        np.testing.assert_array_equal(rebuilt.offers, [0.0, 0.0])
