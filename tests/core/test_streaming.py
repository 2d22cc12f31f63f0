"""Tests for repro.core.streaming (AggregateHistory, BatchedStreamingAggregator)."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.filters import BatchedDefaultRateFilter
from repro.core.history import FullHistoryRequiredError, SimulationHistory
from repro.core.metrics import group_average_series
from repro.core.streaming import AggregateHistory, sequential_sum
from tests.core.lockstep import record_step


def _binary_stream(num_steps: int, num_users: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    decisions = rng.integers(0, 2, size=(num_steps, num_users)).astype(float)
    actions = rng.integers(0, 2, size=(num_steps, num_users)).astype(float) * decisions
    return decisions, actions


def _record(history, decisions, actions, start=0):
    """Record each row of ``decisions``/``actions`` as steps ``start``, ``start + 1``, ..."""
    for offset, (offered, repaid) in enumerate(zip(decisions, actions)):
        history.record_step(start + offset, {}, offered, repaid, {})
    return history


class TestAggregateHistory:
    def test_rejects_non_positive_population(self):
        with pytest.raises(ValueError):
            AggregateHistory(0)

    def test_rejects_out_of_range_group_indices(self):
        with pytest.raises(ValueError):
            AggregateHistory(4, groups={"bad": np.array([0, 4])})

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
            AggregateHistory(4, groups=groups)
        with pytest.raises(ValueError, match=reason):
            BatchedStreamingAggregator(BatchedDefaultRateFilter(2, 4, 1), [{}, groups])

    def test_rejects_wrong_row_lengths(self):
        history = AggregateHistory(3)
        with pytest.raises(ValueError):
            history.record_step(0, {}, np.ones(2), np.ones(3), {})
        with pytest.raises(ValueError):
            history.record_step(0, {}, np.ones(3), np.ones(4), {})
        assert history.num_steps == 0

    def test_rejects_non_contiguous_steps(self):
        history = AggregateHistory(2)
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        with pytest.raises(ValueError, match="contiguous"):
            history.record_step(2, {}, np.ones(2), np.ones(2), {})
        with pytest.raises(ValueError, match="contiguous"):
            history.record_step(0, {}, np.ones(2), np.ones(2), {})
        history.record_step(1, {}, np.ones(2), np.ones(2), {})
        assert history.num_steps == 2

    def test_series_shapes_track_the_step_count(self):
        groups = {"a": np.array([0, 1]), "b": np.array([2])}
        decisions, actions = _binary_stream(5, 3)
        history = _record(AggregateHistory(3, groups=groups), decisions, actions)
        assert history.num_steps == 5
        assert history.num_users == 3
        for series in (
            history.approval_rates(),
            history.portfolio_rate_series(),
            history.rate_sum_series(),
            history.rate_sumsq_series(),
            history.rate_min_series(),
            history.rate_max_series(),
            history.rate_low_count_series(),
        ):
            assert series.shape == (5,)
            assert not series.flags.writeable
        assert history.rate_histogram_series().shape == (5, history.rate_bins)
        for mapping in (
            history.group_default_rate_series(),
            history.group_action_average_series(),
            history.group_approval_series(),
        ):
            assert set(mapping) == {"a", "b"}
            assert all(series.shape == (5,) for series in mapping.values())

    def test_known_two_step_stream(self):
        history = AggregateHistory(2, groups={"all": np.array([0, 1])})
        history.record_step(0, {}, np.array([1.0, 1.0]), np.array([1.0, 0.0]), {})
        history.record_step(1, {}, np.array([1.0, 0.0]), np.array([1.0, 0.0]), {})
        # After step 0: user rates are (0, 1); after step 1: (0, 1).
        np.testing.assert_allclose(history.group_default_rate_series()["all"], [0.5, 0.5])
        np.testing.assert_allclose(history.approval_rates(), [1.0, 0.5])
        # Offers 2 then 3, repayments 1 then 2.
        np.testing.assert_allclose(
            history.portfolio_rate_series(), [0.5, 1.0 - 2.0 / 3.0]
        )
        np.testing.assert_allclose(
            history.group_action_average_series()["all"], [0.5, 0.5]
        )

    def test_prior_rate_moves_only_the_portfolio_series(self):
        # A never-offered user has ADR_i = 0 in the full history whatever
        # the portfolio prior, so every rate series still matches it.
        groups = {"a": np.array([0, 2]), "b": np.array([1, 3])}
        decisions, actions = _binary_stream(6, 4, seed=5)
        decisions[:2] = 0.0  # no offer before step 2
        decisions[2, 0] = 1.0
        decisions[:, 3] = 0.0  # user 3 is never offered
        actions *= decisions
        full = _record(SimulationHistory(), decisions, actions)
        plain = _record(AggregateHistory(4, groups=groups), decisions[:5], actions[:5])
        with_prior = _record(
            AggregateHistory(4, groups=groups, prior_rate=0.3),
            decisions[:5],
            actions[:5],
        )
        # A restored history keeps the same semantics.
        restored = AggregateHistory.from_state(with_prior.export_state())
        for history in (plain, with_prior, restored):
            history.record_step(5, {}, decisions[5], actions[5], {})
        expected = group_average_series(full.running_default_rates(), groups)
        for key in groups:
            assert (
                with_prior.group_default_rate_series()[key].tobytes()
                == expected[key].tobytes()
            )
        for name in (
            "rate_sum_series",
            "rate_sumsq_series",
            "rate_min_series",
            "rate_max_series",
            "rate_histogram_series",
            "rate_low_count_series",
        ):
            assert (
                getattr(with_prior, name)().tobytes() == getattr(plain, name)().tobytes()
            ), name
        assert with_prior.rate_min_series()[-1] == 0.0
        portfolio = with_prior.portfolio_rate_series()
        np.testing.assert_array_equal(portfolio[:2], [0.3, 0.3])
        np.testing.assert_array_equal(portfolio[2:], plain.portfolio_rate_series()[2:])
        assert (
            restored.rate_sum_series().tobytes() == with_prior.rate_sum_series().tobytes()
        )

    def test_empty_group_reports_nan_series(self):
        history = AggregateHistory(2, groups={"none": np.array([], dtype=int)})
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        assert np.all(np.isnan(history.group_default_rate_series()["none"]))

    def test_growth_beyond_initial_capacity(self):
        decisions, actions = _binary_stream(100, 2, seed=3)
        history = _record(
            AggregateHistory(2, groups={"all": np.array([0, 1])}), decisions, actions
        )
        assert history.num_steps == 100
        np.testing.assert_array_equal(history.approval_rates(), decisions.mean(axis=1))
        assert history.rate_histogram_series().shape == (100, history.rate_bins)

    def test_empty_history_raises(self):
        history = AggregateHistory(2, groups={"a": np.array([0])})
        assert history.num_steps == 0
        assert history.num_users == 2
        for call in (
            history.approval_rates,
            history.portfolio_rate_series,
            history.group_default_rate_series,
            history.rate_sum_series,
            history.rate_histogram_series,
        ):
            with pytest.raises(ValueError, match="empty"):
                call()

    def test_full_history_accessors_raise_with_guidance(self):
        history = AggregateHistory(2)
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        for call in (
            history.decisions_matrix,
            history.actions_matrix,
            history.running_default_rates,
            history.running_action_averages,
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

    def test_from_state_rebuilds_a_live_history(self):
        groups = {"a": np.array([0, 2]), "b": np.array([1])}
        decisions, actions = _binary_stream(5, 3, seed=11)
        history = _record(
            AggregateHistory(3, groups=groups, prior_rate=0.1), decisions, actions
        )
        restored = AggregateHistory.from_state(
            pickle.loads(pickle.dumps(history.export_state()))
        )
        assert restored.num_steps == 5
        assert restored.export_state()["prior_rate"] == 0.1
        np.testing.assert_array_equal(restored.approval_rates(), history.approval_rates())
        for key in groups:
            np.testing.assert_array_equal(
                restored.group_default_rate_series()[key],
                history.group_default_rate_series()[key],
            )
        # The restored history stays live: it can keep recording steps and
        # produce exactly what the uninterrupted original produces.
        extra_decisions, extra_actions = _binary_stream(3, 3, seed=12)
        _record(restored, extra_decisions, extra_actions, start=5)
        _record(history, extra_decisions, extra_actions, start=5)
        np.testing.assert_array_equal(
            restored.group_default_rate_series()["a"],
            history.group_default_rate_series()["a"],
        )

    def test_from_state_validates_shapes(self):
        history = AggregateHistory(2, groups={"a": np.array([0])})
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        state = history.export_state()
        bad_users = dict(state, offers_cum=np.ones(3))
        with pytest.raises(ValueError):
            AggregateHistory.from_state(bad_users)
        bad_steps = dict(state, approvals=np.ones(4))
        with pytest.raises(ValueError):
            AggregateHistory.from_state(bad_steps)
        bad_groups = dict(state, group_rate_sums={"zzz": np.ones(1)})
        with pytest.raises(ValueError):
            AggregateHistory.from_state(bad_groups)

    @pytest.mark.parametrize("key", ["rate_bins", "rate_hist", "rate_low_counts"])
    def test_from_state_requires_every_exported_key(self, key):
        # Every state export_state writes carries the histogram keys, so a
        # state without one is refused rather than filled with defaults.
        history = AggregateHistory(2, groups={"a": np.array([0])})
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        state = history.export_state()
        del state[key]
        with pytest.raises(KeyError, match=key):
            AggregateHistory.from_state(state)

    def test_group_series_follow_the_partition(self):
        groups = {"b": np.array([1]), "a": np.array([0, 2])}
        history = AggregateHistory(3, groups=groups)
        history.record_step(0, {}, np.ones(3), np.array([1.0, 0.0, 1.0]), {})
        assert list(history.group_default_rate_series()) == ["b", "a"]
        np.testing.assert_array_equal(history.group_default_rate_series()["b"], [1.0])
        exported = history.export_state()["groups"]
        np.testing.assert_array_equal(exported["a"], [0, 2])
        exported["a"][0] = 1
        np.testing.assert_array_equal(history.export_state()["groups"]["a"], [0, 2])

    def test_rate_histogram_edges_split_the_unit_interval_evenly(self):
        history = AggregateHistory(3, rate_bins=4)
        assert history.rate_bins == 4
        edges = history.rate_histogram_edges()
        np.testing.assert_allclose(edges, [0.0, 0.25, 0.5, 0.75, 1.0])
        edges[0] = -1.0
        assert history.rate_histogram_edges()[0] == 0.0

    def test_export_state_round_trips_through_pickle(self):
        decisions, actions = _binary_stream(4, 3, seed=9)
        history = _record(
            AggregateHistory(3, groups={"a": np.array([0, 2])}), decisions, actions
        )
        state = pickle.loads(pickle.dumps(history.export_state()))
        assert state["num_users"] == 3
        assert state["num_steps"] == 4
        np.testing.assert_array_equal(state["approvals"], history.approval_rates())
        np.testing.assert_array_equal(state["offers_cum"], decisions.sum(axis=0))

    def test_pickles_cleanly(self):
        history = AggregateHistory(2, groups={"a": np.array([0])})
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        clone = pickle.loads(pickle.dumps(history))
        assert clone.num_steps == 1
        np.testing.assert_array_equal(clone.approval_rates(), history.approval_rates())


class TestAggregatorPickling:
    def test_pickles_leave_out_the_fold_and_keep_folding_the_same(self):
        from repro.core.streaming import BatchedStreamingAggregator

        groups = {"a": np.arange(0, 1000, 2), "b": np.arange(1, 1000, 4)}
        decisions, actions = _binary_stream(6, 1000, seed=3)

        def stacked(row):
            return np.stack([row, row[::-1]])

        def update_batched(aggregator, step):
            record_step(
                aggregator.rate_filter,
                stacked(decisions[step]),
                stacked(actions[step]),
                aggregator,
            )

        single = AggregateHistory(1000, groups=groups)
        batched = BatchedStreamingAggregator(
            BatchedDefaultRateFilter(2, 1000, 6), [groups, {}]
        )
        for step in range(3):
            single.record_step(step, {}, decisions[step], actions[step], {})
            update_batched(batched, step)
        assert "_fold" not in single.__getstate__()
        assert "_fold" not in batched.__getstate__()
        single_clone = pickle.loads(pickle.dumps(single))
        batched_clone = pickle.loads(pickle.dumps(batched))
        for step in range(3, 6):
            for history in (single, single_clone):
                history.record_step(step, {}, decisions[step], actions[step], {})
            for aggregator in (batched, batched_clone):
                update_batched(aggregator, step)
        for left, right in (
            (single, single_clone),
            (batched.history(0), batched_clone.history(0)),
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
    """Every trial of the lockstep aggregator matches its own AggregateHistory."""

    @staticmethod
    def _groups(num_users, seed, parts=3):
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, parts, size=num_users)
        return {f"g{j}": np.flatnonzero(assignment == j) for j in range(parts)}

    def _run_pair(self, trials=3, users=40, steps=7, seed=21):
        from repro.core.streaming import BatchedStreamingAggregator

        rng = np.random.default_rng(seed)
        groups = [self._groups(users, seed + t) for t in range(trials)]
        rate_filter = BatchedDefaultRateFilter(trials, users, steps, prior_rate=0.0)
        batched = BatchedStreamingAggregator(rate_filter, groups)
        singles = [AggregateHistory(users, groups=groups[t]) for t in range(trials)]
        for step in range(steps):
            decisions = rng.integers(0, 2, size=(trials, users)).astype(float)
            actions = rng.integers(0, 2, size=(trials, users)).astype(float) * decisions
            record_step(rate_filter, decisions, actions, batched)
            for t in range(trials):
                singles[t].record_step(step, {}, decisions[t], actions[t], {})
        return batched, singles

    def test_every_series_matches_its_own_history(self):
        batched, singles = self._run_pair()
        for t, single in enumerate(singles):
            stacked = batched.history(t)
            np.testing.assert_array_equal(
                stacked.approval_rates(), single.approval_rates()
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
                batched.history(t).rate_sumsq_series(), single.rate_sumsq_series()
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
        whole = BatchedStreamingAggregator(
            BatchedDefaultRateFilter(trials, users, 6), groups
        )
        chunked = BatchedStreamingAggregator(
            BatchedDefaultRateFilter(trials, users, 6), groups
        )

        uneven = (slice(0, 11), slice(11, 12), slice(12, None))
        rng = np.random.default_rng(3)
        for _ in range(6):
            decisions = rng.integers(0, 2, size=(trials, users)).astype(float)
            actions = rng.integers(0, 2, size=(trials, users)).astype(float) * decisions
            whole_rates = record_step(whole.rate_filter, decisions, actions, whole)
            chunked_rates = record_step(
                chunked.rate_filter, decisions, actions, chunked, parts=uneven
            )
            assert whole_rates.tobytes() == chunked_rates.tobytes()
        for t in range(trials):
            left = whole.history(t).export_state()
            right = chunked.history(t).export_state()
            for key, value in left.items():
                if isinstance(value, np.ndarray):
                    assert value.tobytes() == right[key].tobytes(), key
                elif isinstance(value, dict):
                    for group, series in value.items():
                        assert series.tobytes() == right[key][group].tobytes(), key

    def test_handed_over_history_is_live(self):
        # The per-trial history must keep recording like its twin.
        batched, singles = self._run_pair(trials=2, users=20, steps=3, seed=5)
        history = batched.history(1)
        assert history.num_steps == 3
        assert history.num_users == 20
        np.testing.assert_array_equal(
            history.approval_rates(), singles[1].approval_rates()
        )
        with pytest.raises(FullHistoryRequiredError):
            history.decisions_matrix()
        for recorder in (history, singles[1]):
            recorder.record_step(3, {}, np.ones(20), np.zeros(20), {})
        assert history.num_steps == 4
        np.testing.assert_array_equal(
            history.portfolio_rate_series(), singles[1].portfolio_rate_series()
        )

    def test_growth_beyond_initial_capacity(self):
        batched, singles = self._run_pair(trials=2, users=10, steps=40, seed=13)
        for t, single in enumerate(singles):
            np.testing.assert_array_equal(
                batched.history(t).portfolio_rate_series(),
                single.portfolio_rate_series(),
            )

    def test_validation(self):
        from repro.core.streaming import BatchedStreamingAggregator

        with pytest.raises(ValueError):
            BatchedStreamingAggregator(BatchedDefaultRateFilter(0, 5, 1), [])
        with pytest.raises(ValueError):
            # one partition per trial
            BatchedStreamingAggregator(BatchedDefaultRateFilter(2, 5, 1), [None])
        with pytest.raises(ValueError, match="prior rate must be 0"):
            # the aggregator's ADR_i rows are the filter's
            BatchedStreamingAggregator(
                BatchedDefaultRateFilter(2, 5, 1, prior_rate=0.2), [None, None]
            )
        batched = BatchedStreamingAggregator(
            BatchedDefaultRateFilter(2, 5, 1), [None, None]
        )
        with pytest.raises(ValueError):
            batched.fold(slice(None), np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError):
            batched.history(2)
        # The filter folds each step first; the aggregator never runs ahead
        # of it, and a snapshot needs both at the same step.
        decisions, rates = np.ones((2, 5)), np.zeros((2, 5))
        with pytest.raises(ValueError, match="filter folds each step first"):
            batched.finish_step(
                decisions, rates, [batched.fold(slice(None), decisions, rates)]
            )
        record_step(batched.rate_filter, decisions, np.zeros((2, 5)))
        with pytest.raises(ValueError, match="filter folds each step first"):
            batched.history(0)
        batched.finish_step(
            decisions, rates, [batched.fold(slice(None), decisions, rates)]
        )
        assert batched.history(0).num_steps == 1

    def test_owns_no_per_user_row_besides_the_cesaro_row(self):
        """The counts live in the filter: one copy of them per run."""
        batched, _ = self._run_pair(trials=2, users=7, steps=3, seed=2)
        per_user = [
            name
            for name, value in vars(batched).items()
            if isinstance(value, np.ndarray) and value.shape == (2, 7)
        ]
        assert per_user == ["_cesaro"]
        state = batched.history(1).export_state()
        rate_filter = batched.rate_filter
        repayments = rate_filter.read(rate_filter.cell_repayments)[1]
        offers = rate_filter.read(rate_filter.cell_offers)[1]
        np.testing.assert_array_equal(state["offers_cum"], offers)
        np.testing.assert_array_equal(state["repayments_cum"], repayments)
        np.testing.assert_array_equal(state["actions_cum"], repayments)
