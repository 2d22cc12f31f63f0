"""Tests for repro.core.streaming (StreamingAggregator, AggregateHistory)."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.history import FullHistoryRequiredError, StepRecord
from repro.core.streaming import AggregateHistory, StreamingAggregator, sequential_sum


def _binary_stream(num_steps: int, num_users: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    decisions = rng.integers(0, 2, size=(num_steps, num_users)).astype(float)
    actions = rng.integers(0, 2, size=(num_steps, num_users)).astype(float) * decisions
    return decisions, actions


class TestStreamingAggregator:
    def test_rejects_non_positive_population(self):
        with pytest.raises(ValueError):
            StreamingAggregator(0)

    def test_rejects_out_of_range_group_indices(self):
        with pytest.raises(ValueError):
            StreamingAggregator(4, groups={"bad": np.array([0, 4])})

    @pytest.mark.parametrize(
        "groups, reason",
        [
            ({"a": np.array([0, 1]), "b": np.array([1, 2])}, "overlaps"),
            ({"a": np.array([0, 2, 2])}, "strictly increasing"),
            ({"a": np.array([2, 0])}, "strictly increasing"),
        ],
        ids=["overlapping", "repeated-index", "unsorted"],
    )
    def test_rejects_groups_the_fold_cannot_sum_in_order(self, groups, reason):
        from repro.core.streaming import BatchedStreamingAggregator

        with pytest.raises(ValueError, match=reason):
            StreamingAggregator(4, groups=groups)
        with pytest.raises(ValueError, match=reason):
            BatchedStreamingAggregator(2, 4, [{}, groups])
        with pytest.raises(ValueError, match=reason):
            AggregateHistory(num_users=4, groups=groups)

    def test_rejects_wrong_row_lengths(self):
        aggregator = StreamingAggregator(3)
        with pytest.raises(ValueError):
            aggregator.update(np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            aggregator.update(np.ones(3), np.ones(4))

    def test_series_shapes_track_the_step_count(self):
        groups = {"a": np.array([0, 1]), "b": np.array([2])}
        aggregator = StreamingAggregator(3, groups=groups)
        decisions, actions = _binary_stream(5, 3)
        for step in range(5):
            aggregator.update(decisions[step], actions[step])
        assert aggregator.num_steps == 5
        assert aggregator.num_users == 3
        assert aggregator.group_sizes == {"a": 2, "b": 1}
        for series in (
            aggregator.approval_rate_series(),
            aggregator.portfolio_rate_series(),
            aggregator.rate_sum_series(),
            aggregator.rate_sumsq_series(),
            aggregator.rate_min_series(),
            aggregator.rate_max_series(),
        ):
            assert series.shape == (5,)
        for mapping in (
            aggregator.group_default_rate_series(),
            aggregator.group_action_average_series(),
            aggregator.group_approval_series(),
        ):
            assert set(mapping) == {"a", "b"}
            assert all(series.shape == (5,) for series in mapping.values())

    def test_known_two_step_stream(self):
        aggregator = StreamingAggregator(2, groups={"all": np.array([0, 1])})
        aggregator.update(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        aggregator.update(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        # After step 0: user rates are (0, 1); after step 1: (0, 1).
        np.testing.assert_allclose(
            aggregator.group_default_rate_series()["all"], [0.5, 0.5]
        )
        np.testing.assert_allclose(aggregator.approval_rate_series(), [1.0, 0.5])
        # Offers 2 then 3, repayments 1 then 2.
        np.testing.assert_allclose(
            aggregator.portfolio_rate_series(), [0.5, 1.0 - 2.0 / 3.0]
        )
        np.testing.assert_allclose(
            aggregator.group_action_average_series()["all"], [0.5, 0.5]
        )

    def test_empty_group_reports_nan_series(self):
        aggregator = StreamingAggregator(2, groups={"none": np.array([], dtype=int)})
        aggregator.update(np.ones(2), np.ones(2))
        assert np.all(np.isnan(aggregator.group_default_rate_series()["none"]))

    def test_growth_beyond_initial_capacity(self):
        aggregator = StreamingAggregator(2, groups={"all": np.array([0, 1])})
        decisions, actions = _binary_stream(100, 2, seed=3)
        for step in range(100):
            aggregator.update(decisions[step], actions[step])
        assert aggregator.num_steps == 100
        assert aggregator.approval_rate_series().shape == (100,)
        np.testing.assert_array_equal(
            aggregator.approval_rate_series(), decisions.mean(axis=1)
        )

    def test_from_state_rebuilds_a_live_aggregator(self):
        groups = {"a": np.array([0, 2]), "b": np.array([1])}
        aggregator = StreamingAggregator(3, groups=groups, prior_rate=0.1)
        decisions, actions = _binary_stream(5, 3, seed=11)
        for step in range(5):
            aggregator.update(decisions[step], actions[step])
        restored = StreamingAggregator.from_state(
            pickle.loads(pickle.dumps(aggregator.export_state()))
        )
        assert restored.num_steps == 5
        assert restored.prior_rate == 0.1
        np.testing.assert_array_equal(
            restored.approval_rate_series(), aggregator.approval_rate_series()
        )
        for key in groups:
            np.testing.assert_array_equal(
                restored.group_default_rate_series()[key],
                aggregator.group_default_rate_series()[key],
            )
        # The restored aggregator stays live: it can keep ingesting steps
        # and produce exactly what the uninterrupted original produces.
        extra_decisions, extra_actions = _binary_stream(3, 3, seed=12)
        for step in range(3):
            restored.update(extra_decisions[step], extra_actions[step])
            aggregator.update(extra_decisions[step], extra_actions[step])
        np.testing.assert_array_equal(
            restored.group_default_rate_series()["a"],
            aggregator.group_default_rate_series()["a"],
        )

    def test_from_state_validates_shapes(self):
        aggregator = StreamingAggregator(2, groups={"a": np.array([0])})
        aggregator.update(np.ones(2), np.ones(2))
        state = aggregator.export_state()
        bad_users = dict(state, offers_cum=np.ones(3))
        with pytest.raises(ValueError):
            StreamingAggregator.from_state(bad_users)
        bad_steps = dict(state, approvals=np.ones(4))
        with pytest.raises(ValueError):
            StreamingAggregator.from_state(bad_steps)
        bad_groups = dict(state, group_rate_sums={"zzz": np.ones(1)})
        with pytest.raises(ValueError):
            StreamingAggregator.from_state(bad_groups)

    def test_export_state_round_trips_through_pickle(self):
        aggregator = StreamingAggregator(3, groups={"a": np.array([0, 2])})
        decisions, actions = _binary_stream(4, 3, seed=9)
        for step in range(4):
            aggregator.update(decisions[step], actions[step])
        state = pickle.loads(pickle.dumps(aggregator.export_state()))
        assert state["num_users"] == 3
        assert state["num_steps"] == 4
        np.testing.assert_array_equal(
            state["approvals"], aggregator.approval_rate_series()
        )
        np.testing.assert_array_equal(state["offers_cum"], decisions.sum(axis=0))


class TestAggregateHistory:
    def test_record_step_and_series(self):
        history = AggregateHistory(groups={"all": np.array([0, 1])})
        decisions, actions = _binary_stream(6, 2, seed=1)
        for step in range(6):
            history.record_step(step, {}, decisions[step], actions[step], {})
        assert history.num_steps == 6
        assert history.num_users == 2
        assert history.approval_rates().shape == (6,)
        assert not history.approval_rates().flags.writeable
        assert set(history.group_default_rate_series()) == {"all"}

    def test_append_accepts_step_records(self):
        history = AggregateHistory()
        record = StepRecord(
            step=0,
            public_features={"income": np.array([1.0, 2.0])},
            decisions=np.array([1.0, 0.0]),
            actions=np.array([1.0, 0.0]),
            observation={"portfolio_rate": 0.0},
        )
        history.append(record)
        assert history.num_steps == 1
        assert history.num_users == 2

    def test_rejects_non_contiguous_steps(self):
        history = AggregateHistory()
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        with pytest.raises(ValueError, match="contiguous"):
            history.record_step(2, {}, np.ones(2), np.ones(2), {})
        with pytest.raises(ValueError, match="contiguous"):
            history.record_step(0, {}, np.ones(2), np.ones(2), {})
        history.record_step(1, {}, np.ones(2), np.ones(2), {})
        assert history.num_steps == 2

    def test_declared_num_users_is_enforced(self):
        history = AggregateHistory(num_users=3)
        with pytest.raises(ValueError):
            history.record_step(0, {}, np.ones(2), np.ones(2), {})

    def test_empty_history_raises(self):
        history = AggregateHistory()
        with pytest.raises(ValueError):
            history.num_users
        with pytest.raises(ValueError):
            history.approval_rates()
        assert history.num_steps == 0

    def test_full_history_accessors_raise_with_guidance(self):
        history = AggregateHistory()
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        for call in (
            history.decisions_matrix,
            history.actions_matrix,
            history.running_default_rates,
            history.running_action_averages,
            history.recompute_running_default_rates,
            history.recompute_running_action_averages,
            history.recompute_approval_rates,
        ):
            with pytest.raises(FullHistoryRequiredError, match="history_mode"):
                call()
        with pytest.raises(FullHistoryRequiredError):
            history.public_feature_matrix("income")
        with pytest.raises(FullHistoryRequiredError):
            history.observation_series("portfolio_rate")
        with pytest.raises(FullHistoryRequiredError):
            history.record_at(0)
        with pytest.raises(FullHistoryRequiredError):
            history.records
        with pytest.raises(FullHistoryRequiredError):
            history.group_series(np.ones((1, 2)), {})

    def test_pickles_cleanly(self):
        history = AggregateHistory(groups={"a": np.array([0])})
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        clone = pickle.loads(pickle.dumps(history))
        assert clone.num_steps == 1
        np.testing.assert_array_equal(
            clone.approval_rates(), history.approval_rates()
        )


class TestAggregatorPickling:
    def test_pickles_leave_out_the_fold_and_keep_folding_the_same(self):
        from repro.core.streaming import BatchedStreamingAggregator

        groups = {"a": np.arange(0, 1000, 2), "b": np.arange(1, 1000, 4)}
        decisions, actions = _binary_stream(6, 1000, seed=3)

        def stacked(row):
            return np.stack([row, row[::-1]])

        single = StreamingAggregator(1000, groups=groups)
        batched = BatchedStreamingAggregator(2, 1000, [groups, {}])
        for step in range(3):
            single.update(decisions[step], actions[step])
            batched.update(stacked(decisions[step]), stacked(actions[step]))
        assert "_fold" not in single.__getstate__()
        assert "_fold" not in batched.__getstate__()
        single_clone = pickle.loads(pickle.dumps(single))
        batched_clone = pickle.loads(pickle.dumps(batched))
        for step in range(3, 6):
            for aggregator in (single, single_clone):
                aggregator.update(decisions[step], actions[step])
            for aggregator in (batched, batched_clone):
                aggregator.update(stacked(decisions[step]), stacked(actions[step]))
        for left, right in (
            (single, single_clone),
            (batched.aggregator(0), batched_clone.aggregator(0)),
        ):
            for key, series in left.group_default_rate_series().items():
                np.testing.assert_array_equal(
                    series, right.group_default_rate_series()[key]
                )
            for key, series in left.group_action_average_series().items():
                np.testing.assert_array_equal(
                    series, right.group_action_average_series()[key]
                )


class TestSequentialSumHelper:
    def test_empty_input_sums_to_zero(self):
        assert sequential_sum(np.array([])) == 0.0

    def test_single_element(self):
        assert sequential_sum(np.array([0.3])) == 0.3


class TestBatchedStreamingAggregator:
    """Every trial slice of the lockstep aggregator matches its standalone twin."""

    @staticmethod
    def _groups(num_users, seed, parts=3):
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, parts, size=num_users)
        return {f"g{j}": np.flatnonzero(assignment == j) for j in range(parts)}

    def _run_pair(self, trials=3, users=40, steps=7, seed=21):
        from repro.core.streaming import BatchedStreamingAggregator

        rng = np.random.default_rng(seed)
        groups = [self._groups(users, seed + t) for t in range(trials)]
        batched = BatchedStreamingAggregator(trials, users, groups, prior_rate=0.0)
        singles = [
            StreamingAggregator(users, groups=groups[t]) for t in range(trials)
        ]
        for _ in range(steps):
            decisions = rng.integers(0, 2, size=(trials, users)).astype(float)
            actions = rng.integers(0, 2, size=(trials, users)).astype(float) * decisions
            batched.update(decisions, actions)
            for t in range(trials):
                singles[t].update(decisions[t], actions[t])
        return batched, singles

    def test_every_series_matches_standalone(self):
        batched, singles = self._run_pair()
        for t, single in enumerate(singles):
            stacked = batched.aggregator(t)
            np.testing.assert_array_equal(
                stacked.approval_rate_series(), single.approval_rate_series()
            )
            np.testing.assert_array_equal(
                stacked.portfolio_rate_series(), single.portfolio_rate_series()
            )
            np.testing.assert_array_equal(
                stacked.rate_sum_series(), single.rate_sum_series()
            )
            np.testing.assert_array_equal(
                stacked.rate_sumsq_series(), single.rate_sumsq_series()
            )
            np.testing.assert_array_equal(
                stacked.rate_min_series(), single.rate_min_series()
            )
            np.testing.assert_array_equal(
                stacked.rate_max_series(), single.rate_max_series()
            )
            np.testing.assert_array_equal(
                stacked.rate_histogram_series(), single.rate_histogram_series()
            )
            np.testing.assert_array_equal(
                stacked.rate_low_count_series(), single.rate_low_count_series()
            )
            for key, series in single.group_default_rate_series().items():
                np.testing.assert_array_equal(
                    stacked.group_default_rate_series()[key], series
                )
            for key, series in single.group_action_average_series().items():
                np.testing.assert_array_equal(
                    stacked.group_action_average_series()[key], series
                )
            for key, series in single.group_approval_series().items():
                np.testing.assert_array_equal(
                    stacked.group_approval_series()[key], series
                )

    def test_sum_of_squares_makes_no_blas_call(self, monkeypatch):
        # A threaded BLAS ddot leaves its worker spin-waiting after each
        # call; both aggregators must reduce without np.dot.
        def no_dot(*args, **kwargs):
            raise AssertionError("np.dot called")

        monkeypatch.setattr(np, "dot", no_dot)
        batched, singles = self._run_pair(trials=2, users=3001, steps=4, seed=17)
        for t, single in enumerate(singles):
            state = single.export_state()
            np.testing.assert_array_equal(
                batched.aggregator(t).rate_sumsq_series(), single.rate_sumsq_series()
            )
            rates = np.where(
                state["offers_cum"] > 0,
                1.0 - state["repayments_cum"] / np.maximum(state["offers_cum"], 1e-12),
                0.0,
            )
            exact = math.fsum(float(value) ** 2 for value in rates)
            assert single.rate_sumsq_series()[-1] == pytest.approx(exact, rel=1e-12)

    def test_any_user_chunking_gives_identical_bits(self):
        from repro.core.streaming import BatchedStreamingAggregator

        trials, users = 3, 53
        groups = [self._groups(users, 40 + t) for t in range(trials)]
        whole = BatchedStreamingAggregator(trials, users, groups)
        chunked = BatchedStreamingAggregator(trials, users, groups)

        def uneven(work):
            parts = (slice(0, 11), slice(11, 12), slice(12, None))
            return [work(part) for part in parts]

        rng = np.random.default_rng(3)
        for _ in range(6):
            decisions = rng.integers(0, 2, size=(trials, users)).astype(float)
            actions = rng.integers(0, 2, size=(trials, users)).astype(float) * decisions
            whole.update(decisions, actions)
            chunked.update(decisions, actions, map_users=uneven)
        for t in range(trials):
            left, right = whole.trial_state(t), chunked.trial_state(t)
            for key, value in left.items():
                if isinstance(value, np.ndarray):
                    assert value.tobytes() == right[key].tobytes(), key
                elif isinstance(value, dict):
                    for group, series in value.items():
                        assert series.tobytes() == right[key][group].tobytes(), key

    def test_extracted_aggregator_is_live(self):
        # The per-trial snapshot must keep aggregating like its twin.
        batched, singles = self._run_pair(trials=2, users=20, steps=3, seed=5)
        stacked = batched.aggregator(0)
        extra_decisions = np.ones(20)
        extra_actions = np.zeros(20)
        stacked.update(extra_decisions, extra_actions)
        singles[0].update(extra_decisions, extra_actions)
        np.testing.assert_array_equal(
            stacked.portfolio_rate_series(), singles[0].portfolio_rate_series()
        )

    def test_from_aggregator_history_surface(self):
        batched, singles = self._run_pair(trials=2, users=20, steps=4, seed=8)
        history = AggregateHistory.from_aggregator(batched.aggregator(1))
        assert history.num_steps == 4
        assert history.num_users == 20
        np.testing.assert_array_equal(
            history.approval_rates(), singles[1].approval_rate_series()
        )
        with pytest.raises(FullHistoryRequiredError):
            history.decisions_matrix()
        # Further ingest continues the wrapped aggregator.
        history.record_step(4, {}, np.ones(20), np.zeros(20), {})
        assert history.num_steps == 5

    def test_growth_beyond_initial_capacity(self):
        batched, singles = self._run_pair(trials=2, users=10, steps=40, seed=13)
        for t, single in enumerate(singles):
            np.testing.assert_array_equal(
                batched.aggregator(t).portfolio_rate_series(),
                single.portfolio_rate_series(),
            )

    def test_validation(self):
        from repro.core.streaming import BatchedStreamingAggregator

        with pytest.raises(ValueError):
            BatchedStreamingAggregator(0, 5, [])
        with pytest.raises(ValueError):
            BatchedStreamingAggregator(2, 5, [None])  # one partition per trial
        batched = BatchedStreamingAggregator(2, 5, [None, None])
        with pytest.raises(ValueError):
            batched.update(np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError):
            batched.trial_state(2)
