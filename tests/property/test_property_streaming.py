"""Property-based tests on the streaming aggregation subsystem.

Three families of properties pin :class:`repro.core.streaming.AggregateHistory`:

* **Stream/batch agreement** — recording a random decision/action stream
  step by step must agree *bit for bit* with the full history's derived
  series and :func:`~repro.core.metrics.group_average_series` evaluated
  on the materialised ``(steps, users)`` matrices (the aggregate history
  replays the exact float operations of the full-history engine,
  including the sequential group summation order — see
  ``sequential_sum``).
* **One-pass group folds** — :class:`~repro.core.streaming.GroupFold`,
  which both aggregators use, equals ``sequential_sum(values[indices])``
  bit for bit on random partitions, with empty groups, ungrouped users,
  signed zeros, subnormals and large magnitudes.
* **Lockstep recording** — the stacked filter plus
  :class:`~repro.core.streaming.BatchedStreamingAggregator`, folded in
  uneven user chunks, equals one aggregate history and one
  :class:`~repro.credit.default_rates.DefaultRateTracker` per trial, bit
  for bit, over short streams and over 254-256 steps, where the filter's
  integer cells fill ``uint16`` and then need ``uint32``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filters import BatchedDefaultRateFilter
from repro.core.history import SimulationHistory
from repro.core.metrics import group_average_series, group_approval_series
from repro.core.streaming import (
    AggregateHistory,
    BatchedStreamingAggregator,
    GroupFold,
    sequential_sum,
)
from repro.credit.default_rates import DefaultRateTracker
from tests.core.lockstep import record_step


def _random_stream(num_steps: int, num_users: int, seed: int):
    """Return a deterministic 0/1 decision stream and 0/1 action stream."""
    rng = np.random.default_rng(seed)
    decisions = rng.integers(0, 2, size=(num_steps, num_users)).astype(float)
    actions = (
        rng.integers(0, 2, size=(num_steps, num_users)).astype(float) * decisions
    )
    return decisions, actions


def _random_partition(num_users: int, seed: int):
    """Split the users into two or three labelled groups (possibly empty)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=num_users)
    return {key: np.flatnonzero(labels == key) for key in range(3)}


def _record(history, decisions, actions):
    for step in range(decisions.shape[0]):
        history.record_step(step, {}, decisions[step], actions[step], {})
    return history


def _fill_aggregate(decisions, actions, groups):
    return _record(AggregateHistory(decisions.shape[1], groups=groups), decisions, actions)


stream_shapes = st.tuples(
    st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=40)
)
seeds = st.integers(min_value=0, max_value=10_000)


class TestStreamMatchesBatchRecompute:
    @given(stream_shapes, seeds)
    @settings(max_examples=40, deadline=None)
    def test_group_default_rates_match_batch_formula(self, shape, seed):
        num_steps, num_users = shape
        decisions, actions = _random_stream(num_steps, num_users, seed)
        groups = _random_partition(num_users, seed + 1)
        aggregator = _fill_aggregate(decisions, actions, groups)

        history = _record(SimulationHistory(), decisions, actions)
        batch = group_average_series(history.running_default_rates(), groups)
        streamed = aggregator.group_default_rate_series()
        for key in groups:
            np.testing.assert_array_equal(streamed[key], batch[key])

    @given(stream_shapes, seeds)
    @settings(max_examples=40, deadline=None)
    def test_group_action_averages_match_batch_formula(self, shape, seed):
        num_steps, num_users = shape
        decisions, actions = _random_stream(num_steps, num_users, seed)
        groups = _random_partition(num_users, seed + 2)
        aggregator = _fill_aggregate(decisions, actions, groups)

        history = _record(SimulationHistory(), decisions, actions)
        batch = group_average_series(
            history.running_action_averages(), groups
        )
        streamed = aggregator.group_action_average_series()
        for key in groups:
            np.testing.assert_array_equal(streamed[key], batch[key])

    @given(stream_shapes, seeds)
    @settings(max_examples=40, deadline=None)
    def test_approval_series_match_batch_formula(self, shape, seed):
        num_steps, num_users = shape
        decisions, actions = _random_stream(num_steps, num_users, seed)
        groups = _random_partition(num_users, seed + 3)
        aggregator = _fill_aggregate(decisions, actions, groups)

        history = _record(SimulationHistory(), decisions, actions)
        np.testing.assert_array_equal(
            aggregator.approval_rates(), history.approval_rates()
        )
        batch = group_approval_series(history.decisions_matrix(), groups)
        streamed = aggregator.group_approval_series()
        for key in groups:
            np.testing.assert_array_equal(streamed[key], batch[key])

    @given(stream_shapes, seeds)
    @settings(max_examples=40, deadline=None)
    def test_rate_moments_match_the_rate_matrix(self, shape, seed):
        num_steps, num_users = shape
        decisions, actions = _random_stream(num_steps, num_users, seed)
        aggregator = _fill_aggregate(decisions, actions, groups=None)

        history = _record(SimulationHistory(), decisions, actions)
        rates = history.running_default_rates()
        np.testing.assert_array_equal(
            aggregator.rate_min_series(), rates.min(axis=1)
        )
        np.testing.assert_array_equal(
            aggregator.rate_max_series(), rates.max(axis=1)
        )
        np.testing.assert_allclose(
            aggregator.rate_sum_series(), rates.sum(axis=1), rtol=1e-12, atol=1e-12
        )


#: Values where a fold's order and the sign of zero show: signed zeros,
#: subnormals, the smallest normal, and magnitudes whose sums would lose
#: the small terms under any other order (kept below overflow for 40 users).
tricky_values = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0, 0.1]
) | st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def folded_stacks(draw):
    """A ``(rows, users)`` value stack and one random partition per row.

    Codes ``-1`` leave a user in no group; a drawn group may be empty.
    """
    rows = draw(st.integers(min_value=1, max_value=3))
    users = draw(st.integers(min_value=1, max_value=40))
    num_groups = draw(st.integers(min_value=0, max_value=4))
    values = np.array(
        draw(st.lists(tricky_values, min_size=rows * users, max_size=rows * users))
    ).reshape(rows, users)
    partitions = []
    for _ in range(rows):
        codes = np.array(
            draw(
                st.lists(
                    st.integers(min_value=-1, max_value=num_groups - 1),
                    min_size=users,
                    max_size=users,
                )
            )
        )
        partitions.append(
            {f"g{j}": np.flatnonzero(codes == j) for j in range(num_groups)}
        )
    return values, partitions


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestGroupFold:
    """One ``bincount`` pass equals the per-group sequential fold, bit for bit."""

    @given(folded_stacks())
    @settings(max_examples=150, deadline=None)
    def test_fold_matches_the_sequential_sum(self, stack):
        values, partitions = stack
        fold = GroupFold(values.shape[1], partitions)
        totals = fold.sums(values)
        assert len(totals) == len(fold.keys)
        for (row, key), total in zip(fold.keys, totals):
            expected = sequential_sum(values[row][partitions[row][key]])
            assert _bits(total) == _bits(expected)

    @given(folded_stacks())
    @settings(max_examples=60, deadline=None)
    def test_both_aggregators_fold_like_the_sequential_sum(self, stack):
        """The aggregate history folds its decision row as given, so any
        value reaches the fold; the batched aggregator takes the kernel's
        0/1 decisions (here with signed zeros), which it counts per chunk."""
        values, partitions = stack
        rows, users = values.shape
        for row, groups in enumerate(partitions):
            single = AggregateHistory(users, groups=groups)
            single.record_step(0, {}, values[row], np.zeros(users), {})
            state = single.export_state()
            for key, indices in groups.items():
                expected = sequential_sum(values[row][indices])
                assert _bits(state["group_decision_sums"][key][0]) == _bits(expected)
        binary = np.where(values > 0, 1.0, np.copysign(0.0, values))
        rate_filter = BatchedDefaultRateFilter(rows, users, 1)
        batched = BatchedStreamingAggregator(rate_filter, partitions)
        record_step(rate_filter, binary, np.zeros_like(binary), batched)
        for row, groups in enumerate(partitions):
            state = batched.history(row).export_state()
            for key, indices in groups.items():
                expected = sequential_sum(binary[row][indices])
                assert _bits(state["group_decision_sums"][key][0]) == _bits(expected)


class TestSequentialSum:
    @given(st.integers(min_value=0, max_value=200), seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_a_python_left_fold(self, size, seed):
        values = np.random.default_rng(seed).random(size)
        total = 0.0
        for value in values.tolist():
            total += value
        assert sequential_sum(values) == total

    @given(
        st.tuples(
            st.integers(min_value=2, max_value=25), st.integers(min_value=1, max_value=40)
        ),
        seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_fancy_indexed_group_reduction(self, shape, seed):
        """The exact order numpy uses in ``series[:, idx].mean(axis=1)``.

        Two or more steps make the fancy-indexed selection non-contiguous,
        which is what forces numpy onto the sequential accumulation that
        ``sequential_sum`` reproduces (a single-step selection is contiguous
        and takes the SIMD pairwise path instead — the documented
        one-step-history caveat of the streaming module).
        """
        num_steps, num_users = shape
        series = np.random.default_rng(seed).random((num_steps, num_users))
        indices = np.flatnonzero(
            np.random.default_rng(seed + 1).integers(0, 2, size=num_users)
        )
        if indices.size == 0:
            return
        reference = series[:, indices].mean(axis=1)
        streamed = np.array(
            [sequential_sum(series[k][indices]) / indices.size for k in range(num_steps)]
        )
        np.testing.assert_array_equal(streamed, reference)


@st.composite
def lockstep_streams(draw):
    """Stacked 0/1 offer streams, per-trial partitions and a chunk map.

    Repayments happen only where offered; a drawn flag writes the zero
    decisions as ``-0.0``.  Every partition has an empty group and a
    one-member group besides 0-3 drawn ones, and users may be in no group.
    The chunk map splits the users into 1-8 uneven ranges.
    """
    trials = draw(st.integers(min_value=1, max_value=3))
    users = draw(st.integers(min_value=1, max_value=60))
    steps = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(seeds))
    offer_share = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    decisions = (rng.random((steps, trials, users)) < offer_share).astype(float)
    actions = (rng.random((steps, trials, users)) < 0.6) * decisions
    if draw(st.booleans()):
        decisions[decisions == 0.0] = -0.0
    num_groups = draw(st.integers(min_value=0, max_value=3))
    partitions = []
    for _ in range(trials):
        labels = rng.integers(-1, num_groups, size=users)
        single = int(rng.integers(users))
        labels[single] = num_groups
        groups = {f"g{j}": np.flatnonzero(labels == j) for j in range(num_groups)}
        groups["one"] = np.array([single])
        groups["empty"] = np.array([], dtype=np.intp)
        partitions.append(groups)
    cuts = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=max(users - 1, 1)),
                max_size=min(7, users - 1),
            )
        )
    )
    bounds = [0, *cuts, users]
    chunks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return decisions, actions, partitions, chunks


@st.composite
def long_lockstep_streams(draw):
    """Few users over 254, 255 or 256 steps: both sides of ``uint16`` cells.

    User 0 of every trial is offered and repays at every step, so its cell
    ends on the grid's last point, ``(S + 1) ** 2 - 1`` (65,535 at 255
    steps, the largest ``uint16``).  The other users draw their offers and
    repayments; the chunk map splits the users unevenly.
    """
    steps = draw(st.sampled_from([254, 255, 256]))
    trials = draw(st.integers(min_value=1, max_value=2))
    users = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(seeds))
    offer_share = draw(st.sampled_from([0.3, 0.7, 1.0]))
    decisions = (rng.random((steps, trials, users)) < offer_share).astype(float)
    actions = (rng.random((steps, trials, users)) < 0.6) * decisions
    decisions[:, :, 0] = 1.0
    actions[:, :, 0] = 1.0
    partitions = []
    for _ in range(trials):
        labels = rng.integers(-1, 2, size=users)
        partitions.append({f"g{j}": np.flatnonzero(labels == j) for j in range(2)})
    cut = draw(st.integers(min_value=1, max_value=users - 1))
    chunks = [slice(0, cut), slice(cut, users)]
    return decisions, actions, partitions, chunks


def _series(aggregator: AggregateHistory):
    yield "approvals", aggregator.approval_rates()
    yield "portfolio", aggregator.portfolio_rate_series()
    yield "rate_sums", aggregator.rate_sum_series()
    yield "rate_sumsqs", aggregator.rate_sumsq_series()
    yield "rate_mins", aggregator.rate_min_series()
    yield "rate_maxs", aggregator.rate_max_series()
    yield "rate_hist", aggregator.rate_histogram_series()
    yield "rate_lows", aggregator.rate_low_count_series()
    for name, groups in (
        ("group_rates", aggregator.group_default_rate_series()),
        ("group_actions", aggregator.group_action_average_series()),
        ("group_approvals", aggregator.group_approval_series()),
    ):
        for key, series in groups.items():
            yield f"{name}[{key}]", series


def _assert_same_state(left, right):
    assert left.keys() == right.keys()
    for key, value in left.items():
        other = right[key]
        if isinstance(value, dict):
            assert value.keys() == other.keys(), key
            for group, series in value.items():
                assert series.tobytes() == other[group].tobytes(), (key, group)
        elif isinstance(value, np.ndarray):
            assert value.dtype == other.dtype, key
            assert value.tobytes() == other.tobytes(), key
        else:
            assert value == other, key


class TestLockstepRecording:
    """The kernel's recording equals one aggregate history per trial."""

    @given(lockstep_streams())
    @settings(max_examples=120, deadline=None)
    def test_chunked_lockstep_recording_matches_per_trial_histories(self, stream):
        decisions, actions, partitions, chunks = stream
        steps, trials, users = decisions.shape
        rate_filter = BatchedDefaultRateFilter(trials, users, steps)
        batched = BatchedStreamingAggregator(rate_filter, partitions)
        singles = [AggregateHistory(users, groups=groups) for groups in partitions]
        trackers = [DefaultRateTracker(users) for _ in range(trials)]
        for k in range(steps):
            rates = record_step(
                rate_filter, decisions[k], actions[k], batched, parts=chunks
            )
            portfolio = rate_filter.portfolio_rates()
            for t in range(trials):
                singles[t].record_step(k, {}, decisions[k, t], actions[k, t], {})
                trackers[t].record(decisions[k, t], actions[k, t])
                assert _bits(portfolio[t]) == _bits(trackers[t].portfolio_rate())
                assert rates[t].tobytes() == trackers[t].user_rates().tobytes()
        for t, single in enumerate(singles):
            _assert_same_state(
                batched.history(t).export_state(), single.export_state()
            )
            stacked = batched.history(t)
            for (name, left), (_, right) in zip(_series(stacked), _series(single)):
                assert left.tobytes() == right.tobytes(), name

    @given(long_lockstep_streams())
    @settings(max_examples=12, deadline=None)
    def test_cells_past_the_uint16_grid_match_per_trial_histories(self, stream):
        decisions, actions, partitions, chunks = stream
        steps, trials, users = decisions.shape
        rate_filter = BatchedDefaultRateFilter(trials, users, steps)
        assert rate_filter.cells.dtype == (np.uint16 if steps <= 255 else np.uint32)
        batched = BatchedStreamingAggregator(rate_filter, partitions)
        singles = [AggregateHistory(users, groups=groups) for groups in partitions]
        trackers = [DefaultRateTracker(users) for _ in range(trials)]
        for k in range(steps):
            rates = record_step(
                rate_filter, decisions[k], actions[k], batched, parts=chunks
            )
            portfolio = rate_filter.portfolio_rates()
            for t in range(trials):
                singles[t].record_step(k, {}, decisions[k, t], actions[k, t], {})
                trackers[t].record(decisions[k, t], actions[k, t])
                assert _bits(portfolio[t]) == _bits(trackers[t].portfolio_rate())
                assert rates[t].tobytes() == trackers[t].user_rates().tobytes()
        assert (rate_filter.cells[:, 0] == (steps + 1) ** 2 - 1).all()
        for t, single in enumerate(singles):
            tracker = rate_filter.tracker_for_trial(t)
            assert tracker.offers.tobytes() == trackers[t].offers.tobytes()
            assert tracker.repayments.tobytes() == trackers[t].repayments.tobytes()
            _assert_same_state(
                batched.history(t).export_state(), single.export_state()
            )
