"""Property-based tests on the streaming aggregation subsystem.

Two families of properties pin :class:`repro.core.streaming.StreamingAggregator`:

* **Stream/batch agreement** — feeding a random decision/action stream step
  by step must agree *bit for bit* with the batch ``recompute_*`` /
  :func:`~repro.core.metrics.group_average_series` formulations evaluated
  on the materialised ``(steps, users)`` matrices (the aggregator replays
  the exact float operations of the full-history engine, including the
  sequential group summation order — see ``sequential_sum``).
* **One-pass group folds** — :class:`~repro.core.streaming.GroupFold`,
  which both aggregators use, equals ``sequential_sum(values[indices])``
  bit for bit on random partitions, with empty groups, ungrouped users,
  signed zeros, subnormals and large magnitudes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import SimulationHistory
from repro.core.metrics import group_average_series, group_approval_series
from repro.core.streaming import (
    BatchedStreamingAggregator,
    GroupFold,
    StreamingAggregator,
    sequential_sum,
)


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


def _fill_aggregator(decisions, actions, groups):
    aggregator = StreamingAggregator(decisions.shape[1], groups=groups)
    for step in range(decisions.shape[0]):
        aggregator.update(decisions[step], actions[step])
    return aggregator


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
        aggregator = _fill_aggregator(decisions, actions, groups)

        history = SimulationHistory()
        for step in range(num_steps):
            history.record_step(step, {}, decisions[step], actions[step], {})
        batch = group_average_series(history.recompute_running_default_rates(), groups)
        streamed = aggregator.group_default_rate_series()
        for key in groups:
            np.testing.assert_array_equal(streamed[key], batch[key])

    @given(stream_shapes, seeds)
    @settings(max_examples=40, deadline=None)
    def test_group_action_averages_match_batch_formula(self, shape, seed):
        num_steps, num_users = shape
        decisions, actions = _random_stream(num_steps, num_users, seed)
        groups = _random_partition(num_users, seed + 2)
        aggregator = _fill_aggregator(decisions, actions, groups)

        history = SimulationHistory()
        for step in range(num_steps):
            history.record_step(step, {}, decisions[step], actions[step], {})
        batch = group_average_series(
            history.recompute_running_action_averages(), groups
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
        aggregator = _fill_aggregator(decisions, actions, groups)

        history = SimulationHistory()
        for step in range(num_steps):
            history.record_step(step, {}, decisions[step], actions[step], {})
        np.testing.assert_array_equal(
            aggregator.approval_rate_series(), history.recompute_approval_rates()
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
        aggregator = _fill_aggregator(decisions, actions, groups=None)

        history = SimulationHistory()
        for step in range(num_steps):
            history.record_step(step, {}, decisions[step], actions[step], {})
        rates = history.recompute_running_default_rates()
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
        """The decision series is folded as given, so any value reaches the fold."""
        values, partitions = stack
        rows, users = values.shape
        batched = BatchedStreamingAggregator(rows, users, partitions)
        batched.update(values, np.zeros_like(values))
        for row, groups in enumerate(partitions):
            single = StreamingAggregator(users, groups=groups)
            single.update(values[row], np.zeros(users))
            for state in (single.export_state(), batched.trial_state(row)):
                for key, indices in groups.items():
                    expected = sequential_sum(values[row][indices])
                    assert _bits(state["group_decision_sums"][key][0]) == _bits(
                        expected
                    )


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
