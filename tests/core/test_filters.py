"""Tests for repro.core.filters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.filters import (
    AnomalyClippingFilter,
    CumulativeAverageFilter,
    DefaultRateFilter,
    ExponentialMovingAverageFilter,
    IntegralFilter,
    LoopFilter,
    require_binary_decisions,
)
from tests.core.lockstep import record_step


class TestDefaultRateFilter:
    def test_initial_observation_has_prior_rates(self):
        loop_filter = DefaultRateFilter(3, prior_rate=0.1)
        observation = loop_filter.observation()
        np.testing.assert_allclose(observation["user_default_rates"], [0.1, 0.1, 0.1])

    def test_update_tracks_defaults(self):
        loop_filter = DefaultRateFilter(2)
        observation = loop_filter.update(np.array([1, 1]), np.array([1, 0]), 0)
        np.testing.assert_allclose(observation["user_default_rates"], [0.0, 1.0])
        assert observation["portfolio_rate"] == pytest.approx(0.5)

    def test_satisfies_the_protocol(self):
        assert isinstance(DefaultRateFilter(2), LoopFilter)


class TestBinaryDecisions:
    """The one 0/1 check the serial filter and the lockstep kernel share."""

    @pytest.mark.parametrize(
        "dtype", [bool, np.int8, np.int64, np.float32, np.float64]
    )
    def test_zero_one_decisions_of_any_dtype_count_alike(self, dtype):
        # The filter counts the decisions as they come, without a cast to
        # int, so every 0/1 dtype must record the same offers.
        decisions = np.array([1, 0, 1, 1])
        actions = np.array([1, 0, 0, 1])
        expected = DefaultRateFilter(4, prior_rate=0.2).update(decisions, actions, 0)
        observation = DefaultRateFilter(4, prior_rate=0.2).update(
            decisions.astype(dtype), actions, 0
        )
        np.testing.assert_array_equal(
            observation["user_default_rates"], expected["user_default_rates"]
        )
        assert observation["portfolio_rate"] == expected["portfolio_rate"]

    @pytest.mark.parametrize("value", [0.5, 1.5, 2.0, -1.0, np.nan, np.inf])
    def test_other_values_are_refused_before_anything_is_counted(self, value):
        loop_filter = DefaultRateFilter(3)
        loop_filter.update(np.array([1, 1, 0]), np.array([1, 0, 0]), 0)
        before = loop_filter.export_state()
        decisions = np.array([1.0, value, 0.0])
        with pytest.raises(ValueError, match="requires 0/1 decisions"):
            require_binary_decisions(decisions)
        with pytest.raises(ValueError, match="requires 0/1 decisions"):
            loop_filter.update(decisions, np.zeros(3), 1)
        after = loop_filter.export_state()
        assert after["steps_recorded"] == before["steps_recorded"] == 1
        np.testing.assert_array_equal(after["offers"], before["offers"])
        np.testing.assert_array_equal(after["repayments"], before["repayments"])


class TestDefaultRateFilterState:
    """export/import state: how step snapshots carry the filter."""

    @staticmethod
    def _run_filter(num_users, decisions, actions, prior_rate=0.0):
        loop_filter = DefaultRateFilter(num_users, prior_rate=prior_rate)
        for step, (decision_row, action_row) in enumerate(zip(decisions, actions)):
            loop_filter.update(np.asarray(decision_row), np.asarray(action_row), step)
        return loop_filter

    def test_state_round_trip_preserves_the_observation(self):
        loop_filter = self._run_filter(
            3, [np.array([1, 1, 0]), np.ones(3)], [np.array([1, 0, 0]), np.ones(3)],
            prior_rate=0.25,
        )
        restored = DefaultRateFilter(3)
        restored.import_state(loop_filter.export_state())
        np.testing.assert_array_equal(
            restored.observation()["user_default_rates"],
            loop_filter.observation()["user_default_rates"],
        )
        assert restored.tracker.steps_recorded == loop_filter.tracker.steps_recorded
        assert restored.tracker.num_users == 3

    def test_exported_state_is_a_detached_copy(self):
        loop_filter = self._run_filter(2, [np.ones(2)], [np.ones(2)])
        state = loop_filter.export_state()
        state["offers"][0] = 99.0
        assert loop_filter.tracker.offers[0] == 1.0

    def test_from_state_validates_array_lengths(self):
        from repro.credit.default_rates import DefaultRateTracker

        state = DefaultRateFilter(3).export_state()
        state["offers"] = np.ones(2)
        with pytest.raises(ValueError):
            DefaultRateTracker.from_state(state)


class TestCumulativeAverageFilter:
    def test_initial_value_before_any_update(self):
        loop_filter = CumulativeAverageFilter(2, initial_value=0.5)
        np.testing.assert_allclose(loop_filter.observation()["average_action"], [0.5, 0.5])

    def test_average_accumulates(self):
        loop_filter = CumulativeAverageFilter(2)
        loop_filter.update(np.ones(2), np.array([1.0, 0.0]), 0)
        observation = loop_filter.update(np.ones(2), np.array([0.0, 0.0]), 1)
        np.testing.assert_allclose(observation["average_action"], [0.5, 0.0])
        assert observation["aggregate"] == pytest.approx(0.25)

    def test_rejects_wrong_action_length(self):
        loop_filter = CumulativeAverageFilter(2)
        with pytest.raises(ValueError):
            loop_filter.update(np.ones(2), np.ones(3), 0)

    def test_rejects_non_positive_population(self):
        with pytest.raises(ValueError):
            CumulativeAverageFilter(0)


class TestExponentialMovingAverageFilter:
    def test_single_update_moves_towards_the_action(self):
        loop_filter = ExponentialMovingAverageFilter(1, alpha=0.5, initial_value=0.0)
        observation = loop_filter.update(np.ones(1), np.array([1.0]), 0)
        assert observation["average_action"][0] == pytest.approx(0.5)

    def test_alpha_one_tracks_the_latest_action_exactly(self):
        loop_filter = ExponentialMovingAverageFilter(1, alpha=1.0)
        loop_filter.update(np.ones(1), np.array([0.3]), 0)
        assert loop_filter.observation()["average_action"][0] == pytest.approx(0.3)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ExponentialMovingAverageFilter(1, alpha=0.0)

    def test_rejects_wrong_action_length(self):
        with pytest.raises(ValueError):
            ExponentialMovingAverageFilter(2).update(np.ones(2), np.ones(1), 0)


class TestIntegralFilter:
    def test_integrates_the_gap_to_the_target(self):
        loop_filter = IntegralFilter(target=0.5, gain=1.0)
        loop_filter.update(np.ones(2), np.array([1.0, 1.0]), 0)
        assert loop_filter.integral == pytest.approx(0.5)
        loop_filter.update(np.ones(2), np.array([0.0, 0.0]), 1)
        assert loop_filter.integral == pytest.approx(0.0)

    def test_gain_scales_the_increment(self):
        loop_filter = IntegralFilter(target=0.0, gain=2.0)
        loop_filter.update(np.ones(1), np.array([1.0]), 0)
        assert loop_filter.integral == pytest.approx(2.0)

    def test_rejects_empty_actions(self):
        with pytest.raises(ValueError):
            IntegralFilter().update(np.ones(0), np.ones(0), 0)


class TestAnomalyClippingFilter:
    def test_clips_before_delegating(self):
        inner = CumulativeAverageFilter(2)
        wrapper = AnomalyClippingFilter(inner, lower=0.0, upper=1.0)
        observation = wrapper.update(np.ones(2), np.array([5.0, -3.0]), 0)
        np.testing.assert_allclose(observation["average_action"], [1.0, 0.0])

    def test_observation_delegates_to_inner(self):
        inner = CumulativeAverageFilter(1, initial_value=0.2)
        wrapper = AnomalyClippingFilter(inner, lower=0.0, upper=1.0)
        assert wrapper.observation()["average_action"][0] == pytest.approx(0.2)
        assert wrapper.inner is inner

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            AnomalyClippingFilter(CumulativeAverageFilter(1), lower=1.0, upper=0.0)


class TestBatchedDefaultRateFilter:
    """Every row of the stacked filter matches its standalone twin bitwise."""

    @staticmethod
    def _random_streams(num_trials, num_users, num_steps, seed):
        rng = np.random.default_rng(seed)
        decisions = rng.integers(0, 2, size=(num_steps, num_trials, num_users)).astype(float)
        raw = rng.integers(0, 2, size=(num_steps, num_trials, num_users)).astype(float)
        actions = raw * decisions  # no repayment without an offer
        return decisions, actions

    def test_rows_match_standalone_filters(self):
        from repro.core.filters import BatchedDefaultRateFilter

        trials, users, steps = 4, 50, 6
        decisions, actions = self._random_streams(trials, users, steps, 3)
        batched = BatchedDefaultRateFilter(trials, users, steps, prior_rate=0.25)
        singles = [DefaultRateFilter(users, prior_rate=0.25) for _ in range(trials)]
        for k in range(steps):
            written = record_step(batched, decisions[k], actions[k])
            rates = batched.user_rates()
            assert written.tobytes() == rates.tobytes()
            portfolios = batched.portfolio_rates()
            for t in range(trials):
                observation = singles[t].update(decisions[k, t], actions[k, t], k)
                np.testing.assert_array_equal(
                    rates[t], observation["user_default_rates"]
                )
                assert portfolios[t] == observation["portfolio_rate"]
        assert batched.steps_recorded == steps

    def test_any_user_chunking_gives_identical_bits(self):
        from repro.core.filters import BatchedDefaultRateFilter

        trials, users, steps = 3, 41, 5
        decisions, actions = self._random_streams(trials, users, steps, 4)
        uneven = (slice(0, 7), slice(7, 30), slice(30, None))
        whole = BatchedDefaultRateFilter(trials, users, steps, prior_rate=0.1)
        chunked = BatchedDefaultRateFilter(trials, users, steps, prior_rate=0.1)
        out = np.full((trials, users), -1.0)
        for k in range(steps):
            whole_rates = record_step(whole, decisions[k], actions[k])
            chunked_rates = record_step(chunked, decisions[k], actions[k], parts=uneven)
            assert whole_rates.tobytes() == chunked_rates.tobytes()
            rates = chunked.user_rates(out=out)
            assert rates is out
            assert whole.user_rates().tobytes() == rates.tobytes()
            assert (
                whole.portfolio_rates().tobytes() == chunked.portfolio_rates().tobytes()
            )
            assert whole.step_counts.tobytes() == chunked.step_counts.tobytes()
            assert whole.totals.tobytes() == chunked.totals.tobytes()

    def test_tracker_for_trial_round_trip(self):
        from repro.core.filters import BatchedDefaultRateFilter

        trials, users, steps = 3, 20, 4
        decisions, actions = self._random_streams(trials, users, steps, 9)
        batched = BatchedDefaultRateFilter(trials, users, steps)
        for k in range(steps):
            record_step(batched, decisions[k], actions[k])
        for t in range(trials):
            tracker = batched.tracker_for_trial(t)
            assert tracker.steps_recorded == steps
            np.testing.assert_array_equal(tracker.user_rates(), batched.user_rates()[t])
        with pytest.raises(ValueError):
            batched.tracker_for_trial(trials)

    def test_validation(self):
        from repro.core.filters import BatchedDefaultRateFilter

        with pytest.raises(ValueError):
            BatchedDefaultRateFilter(0, 5, 1)
        with pytest.raises(ValueError):
            BatchedDefaultRateFilter(2, 0, 1)
        with pytest.raises(ValueError):
            BatchedDefaultRateFilter(2, 5, 1, prior_rate=1.5)
        batched = BatchedDefaultRateFilter(2, 5, 1)
        wrong, right = np.ones((2, 4), dtype=bool), np.ones((2, 5), dtype=bool)
        with pytest.raises(ValueError):
            batched.fold(slice(None), wrong, wrong, np.empty((2, 5)))
        with pytest.raises(ValueError):
            batched.fold(slice(None), right, right, np.empty((2, 4)))
