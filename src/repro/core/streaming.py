"""Streaming (memory-bounded) aggregation of closed-loop trajectories.

The paper's group-level figures only need the race-wise series ``ADR_s(k)``,
the Cesàro action averages and the approval rates — yet the full-history
engine materialises every ``(steps, users)`` column, which makes *memory*
the binding constraint at million-user scale.  This module provides the
``history_mode="aggregate"`` path of the engine:

* :class:`StreamingAggregator` consumes each step's decisions and actions
  online and maintains group-level running series in ``O(users)`` running
  state plus ``O(steps * groups)`` output — no per-user history rows are
  ever retained.
* :class:`AggregateHistory` wraps an aggregator behind the
  :class:`~repro.core.history.SimulationHistory` ingest surface
  (``record_step``/``append``/``num_steps``), so
  :meth:`~repro.core.loop.ClosedLoop.run` can record into either store.
  Per-user accessors (``decisions_matrix`` and friends) raise
  :class:`~repro.core.history.FullHistoryRequiredError` with a clear
  message instead of silently degrading.

Bit-identity with the full-history path is a hard guarantee, pinned by
``tests/experiments/test_streaming_equivalence.py``: the full path derives
group series via :func:`~repro.core.metrics.group_average_series`, i.e.
``series[:, indices].mean(axis=1)`` on a fancy-indexed selection, which
numpy evaluates as a *sequential left-to-right* accumulation over the
group's users (the fancy-indexed intermediate is F-ordered, so the
reduction runs over the outer iterator axis without SIMD pairwise
blocking).  The streaming path reproduces that exact summation order:
:class:`GroupFold` adds every user's value into its group's bin in user
order with one ``np.bincount`` pass, which equals :func:`sequential_sum`
(``np.cumsum(...)[-1]``) on each group's indices, so the per-step group
sums — and hence the series — agree bit for bit.  (One
documented caveat: a *single-step* history's fancy-indexed selection is
contiguous, so numpy reduces it with SIMD pairwise blocking instead; group
means of a one-step run can therefore differ from the full path in the
last ulp.  Every real simulation spans many steps.)

Sharding note: the lockstep kernel splits the users into chunks of whole
canonical shards on threads, but its chunks only update the elementwise
per-user state and count the integer rate histograms, which are exact
under any split (:meth:`BatchedStreamingAggregator.update`).  Every sum
whose value depends on the order of its terms runs once over the whole
row, so the sequential fold order above holds under any thread count.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.core.history import (
    FullHistoryRequiredError,
    StepRecord,
    _grown,
    _readonly,
    running_default_rates_from_cums,
)
from repro.core.sharding import UserChunkMap, whole_population

__all__ = [
    "StreamingAggregator",
    "BatchedStreamingAggregator",
    "AggregateHistory",
    "GroupFold",
    "sequential_sum",
    "DEFAULT_RATE_BINS",
    "RATE_HISTOGRAM_LOW_THRESHOLD",
]

#: Initial row capacity of the per-step series (matches SimulationHistory).
_INITIAL_CAPACITY = 32

#: Number of equal-width ``ADR_i(k)`` histogram bins on [0, 1] kept per step
#: (matches the default binning of the fig5 density driver).
DEFAULT_RATE_BINS = 20

#: Threshold of the dedicated low-rate counter (the paper's "share of users
#: with ADR <= 0.10" summary of Figure 5).
RATE_HISTOGRAM_LOW_THRESHOLD = 0.10


def _sum_of_squares(values: np.ndarray) -> float:
    """Return ``sum(values ** 2)`` of a 1-D float array, off BLAS.

    ``np.einsum`` reduces in its own compiled loop, with no ``(users)``
    squared temporary, and leaves no BLAS worker thread spin-waiting after
    the call, which a threaded ``np.dot`` does.  Both aggregators use this
    one expression, so their series stay bitwise equal.
    """
    return float(np.einsum("i,i->", values, values))


def sequential_sum(values: np.ndarray) -> float:
    """Return the left-to-right sequential float sum of ``values``.

    This is bit-identical to the accumulation order numpy uses when
    reducing a fancy-indexed ``(steps, users)`` selection along the user
    axis (the full-history group path), which is *not* the SIMD pairwise
    order of a contiguous ``np.sum``.  ``np.cumsum`` performs the same
    sequential fold in C, so the last prefix sum is the exact sequential
    total.
    """
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return 0.0
    return float(np.cumsum(array)[-1])


def _validated_groups(
    groups: Mapping[object, np.ndarray] | None, num_users: int
) -> Dict[object, np.ndarray]:
    """Validate and copy a group partition (may be empty).

    Each group must list strictly increasing user indices, and no user may
    belong to two groups: :class:`GroupFold` sums in user order, which is
    the order of the sequential fold only for such index sets.
    """
    if groups is None:
        return {}
    validated: Dict[object, np.ndarray] = {}
    claimed = np.zeros(num_users, dtype=bool)
    for key, indices in groups.items():
        index_array = np.asarray(indices, dtype=np.intp).ravel()
        if index_array.size and (
            index_array.min() < 0 or index_array.max() >= num_users
        ):
            raise ValueError(
                f"group {key!r} has user indices outside [0, {num_users})"
            )
        if np.any(index_array[1:] <= index_array[:-1]):
            raise ValueError(
                f"group {key!r} must list strictly increasing user indices"
            )
        if claimed[index_array].any():
            raise ValueError(f"group {key!r} overlaps an earlier group")
        claimed[index_array] = True
        validated[key] = index_array.copy()
    return validated


class GroupFold:
    """Per-group sums of per-user series in one ``np.bincount`` pass.

    Built once from one partition per row of a ``(rows, users)`` stack,
    each already checked by the aggregators' group validation (in range,
    disjoint, strictly increasing): each user carries the code of its
    group, and users in no group a shared sink code that is never read.
    :meth:`sums` then folds every group of every row with a single
    ``bincount``, which adds each value into its bin in user order starting
    from ``+0.0``.  For such index sets that equals
    ``sequential_sum(series[row][indices])`` bit for bit, save for the sign
    of zero: a sequential fold of nothing but ``-0.0`` stays ``-0.0``.  Bins
    that come out exactly zero are therefore refolded sequentially.
    """

    def __init__(
        self, num_users: int, partitions: Iterable[Mapping[object, np.ndarray]]
    ) -> None:
        partitions = list(partitions)
        #: ``(row, group key)`` of each folded sum, in :meth:`sums` order.
        self.keys = [
            (row, key) for row, groups in enumerate(partitions) for key in groups
        ]
        self._members = [
            indices for groups in partitions for indices in groups.values()
        ]
        self._codes = np.full(
            (len(partitions), num_users), len(self._members), dtype=np.intp
        )
        for code, ((row, _), indices) in enumerate(zip(self.keys, self._members)):
            self._codes[row, indices] = code

    def sums(self, series: np.ndarray) -> np.ndarray:
        """Return each group's sum of ``series``, rows then groups in order.

        ``series`` has the ``(rows, users)`` shape of the partitions (a
        single row may also be passed flat).
        """
        rows = series.reshape(self._codes.shape)
        totals = np.bincount(
            self._codes.reshape(-1),
            weights=rows.reshape(-1),
            minlength=len(self._members) + 1,
        )[:-1]
        for code in np.flatnonzero(totals == 0.0):
            row, _ = self.keys[code]
            totals[code] = sequential_sum(rows[row][self._members[code]])
        return totals


class _FoldedGroups:
    """Owns an aggregator's :class:`GroupFold`, which pickles leave out.

    The fold's group codes (8 bytes per user) follow from the partition, so
    pickled aggregators (checkpoints, pooled and persisted trial results)
    omit the fold and rebuild it on load.  Aggregators pickled before the
    fold existed load the same way.
    """

    _num_users: int

    def _partitions(self) -> "list[Mapping[object, np.ndarray]]":
        raise NotImplementedError

    def _build_fold(self) -> None:
        partitions = self._partitions()
        self._fold = (
            GroupFold(self._num_users, partitions) if any(partitions) else None
        )

    def __getstate__(self) -> Dict[str, object]:
        return {name: value for name, value in vars(self).items() if name != "_fold"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        vars(self).update(state)
        self._build_fold()


class StreamingAggregator(_FoldedGroups):
    """Online group-level aggregation of a closed-loop decision/action stream.

    The aggregator holds ``O(users)`` running state (cumulative offers,
    repayments and action sums — the same cumulative quantities the
    full-history engine folds into its derived series) and appends one row
    per step to ``O(steps)``/``O(steps * groups)`` output series:

    * per-group running average default rates — the paper's ``ADR_s(k)``;
    * per-group Cesàro action averages (Definition 3's limit quantity);
    * per-group and population-wide approval rates;
    * the pooled portfolio default rate;
    * population-wide per-step moments of ``ADR_i(k)`` (sum, sum of
      squares, min, max) so dispersion summaries survive without the
      ``(steps, users)`` matrix.

    Every series is bit-identical to the corresponding full-history
    derivation (see the module docstring for why the group sums are
    sequential folds in user order).

    Parameters
    ----------
    num_users:
        Number of users in the population.
    groups:
        Optional partition: mapping from group key (e.g. a
        :class:`~repro.data.census.Race`) to the strictly increasing user
        indices in that group; groups may not overlap, and users may belong
        to no group.  Empty groups report ``nan`` series like
        :func:`~repro.core.metrics.group_average_series`.
    prior_rate:
        Portfolio default rate reported before any offer exists, matching
        :class:`~repro.credit.default_rates.DefaultRateTracker`.
    """

    def __init__(
        self,
        num_users: int,
        groups: Mapping[object, np.ndarray] | None = None,
        prior_rate: float = 0.0,
        rate_bins: int = DEFAULT_RATE_BINS,
    ) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if rate_bins < 2:
            raise ValueError("rate_bins must be at least 2")
        self._num_users = int(num_users)
        self._prior_rate = float(prior_rate)
        self._groups = _validated_groups(groups, self._num_users)
        self._num_steps = 0
        self._capacity = _INITIAL_CAPACITY
        # Per-step histogram of ADR_i(k) on a fixed [0, 1] binning: integer
        # counts, so per-shard and per-trial histograms pool exactly into
        # the full-history histogram of the concatenated stack (the fig5
        # density path in aggregate mode).  np.histogram is called with the
        # explicit edge array so the bin-assignment arithmetic is the same
        # one the full-history driver uses.
        self._rate_bins = int(rate_bins)
        self._rate_edges = np.linspace(0.0, 1.0, self._rate_bins + 1)
        self._rate_hist = np.zeros((self._capacity, self._rate_bins), dtype=np.int64)
        self._rate_low_counts = np.zeros(self._capacity, dtype=np.int64)
        # O(users) running state — identical to SimulationHistory's
        # incremental layer, so the derived rows agree bit for bit.
        self._offers_cum = np.zeros(self._num_users, dtype=float)
        self._repayments_cum = np.zeros(self._num_users, dtype=float)
        self._actions_cum = np.zeros(self._num_users, dtype=float)
        # O(steps) global series.
        self._approvals = np.empty(self._capacity, dtype=float)
        self._decision_sums = np.empty(self._capacity, dtype=float)
        self._offers_totals = np.empty(self._capacity, dtype=float)
        self._repayments_totals = np.empty(self._capacity, dtype=float)
        self._portfolio = np.empty(self._capacity, dtype=float)
        self._rate_sums = np.empty(self._capacity, dtype=float)
        self._rate_sumsqs = np.empty(self._capacity, dtype=float)
        self._rate_mins = np.empty(self._capacity, dtype=float)
        self._rate_maxs = np.empty(self._capacity, dtype=float)
        # O(steps * groups) series: per-group sequential sums per step.
        self._group_rate_sums = {key: np.empty(self._capacity) for key in self._groups}
        self._group_action_sums = {key: np.empty(self._capacity) for key in self._groups}
        self._group_decision_sums = {
            key: np.empty(self._capacity) for key in self._groups
        }
        self._build_fold()

    def _partitions(self) -> "list[Mapping[object, np.ndarray]]":
        return [self._groups]

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_users(self) -> int:
        """Return the number of users this aggregator observes."""
        return self._num_users

    @property
    def num_steps(self) -> int:
        """Return the number of aggregated steps."""
        return self._num_steps

    @property
    def group_keys(self) -> Tuple[object, ...]:
        """Return the group keys, in partition order."""
        return tuple(self._groups)

    @property
    def group_sizes(self) -> Dict[object, int]:
        """Return the number of users in each group."""
        return {key: int(indices.size) for key, indices in self._groups.items()}

    @property
    def prior_rate(self) -> float:
        """Return the portfolio rate reported before any offer exists."""
        return self._prior_rate

    def group_indices(self) -> Dict[object, np.ndarray]:
        """Return a copy of the group partition."""
        return {key: indices.copy() for key, indices in self._groups.items()}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def update(self, decisions: np.ndarray, actions: np.ndarray) -> None:
        """Fold one step of decisions and actions into the running series."""
        decisions_row = np.asarray(decisions, dtype=float).ravel()
        actions_row = np.asarray(actions, dtype=float).ravel()
        if decisions_row.shape[0] != self._num_users:
            raise ValueError(
                "decisions must have one entry per user "
                f"({decisions_row.shape[0]} != {self._num_users})"
            )
        if actions_row.shape[0] != self._num_users:
            raise ValueError(
                "actions must have one entry per user "
                f"({actions_row.shape[0]} != {self._num_users})"
            )
        if self._num_steps >= self._capacity:
            self._grow()
        row = self._num_steps
        # Replay, term by term, SimulationHistory._update_running_stats so
        # the derived per-user rows are bit-identical to the full engine;
        # the rate fold itself is the shared single definition.
        self._offers_cum += decisions_row
        self._repayments_cum += actions_row * decisions_row
        self._actions_cum += actions_row
        rates = running_default_rates_from_cums(
            self._offers_cum, self._repayments_cum
        )
        cesaro = self._actions_cum / float(row + 1)
        self._approvals[row] = np.mean(decisions_row)
        self._decision_sums[row] = float(decisions_row.sum())
        offers_total = float(self._offers_cum.sum())
        repayments_total = float(self._repayments_cum.sum())
        self._offers_totals[row] = offers_total
        self._repayments_totals[row] = repayments_total
        # Same branch and same float ops as DefaultRateTracker.portfolio_rate.
        self._portfolio[row] = (
            self._prior_rate
            if offers_total == 0
            else 1.0 - repayments_total / offers_total
        )
        self._rate_sums[row] = float(rates.sum())
        self._rate_sumsqs[row] = _sum_of_squares(rates)
        self._rate_mins[row] = float(rates.min())
        self._rate_maxs[row] = float(rates.max())
        self._rate_hist[row], _ = np.histogram(rates, bins=self._rate_edges)
        self._rate_low_counts[row] = int(
            np.count_nonzero(rates <= RATE_HISTOGRAM_LOW_THRESHOLD)
        )
        if self._fold is not None:
            for series, store in (
                (rates, self._group_rate_sums),
                (cesaro, self._group_action_sums),
                (decisions_row, self._group_decision_sums),
            ):
                for (_, key), total in zip(self._fold.keys, self._fold.sums(series)):
                    store[key][row] = total
        self._num_steps += 1

    def _grow(self) -> None:
        new_capacity = max(_INITIAL_CAPACITY, self._capacity * 2)
        for attribute in (
            "_approvals",
            "_decision_sums",
            "_offers_totals",
            "_repayments_totals",
            "_portfolio",
            "_rate_sums",
            "_rate_sumsqs",
            "_rate_mins",
            "_rate_maxs",
        ):
            setattr(
                self,
                attribute,
                _grown(getattr(self, attribute), new_capacity, self._num_steps),
            )
        for series in (
            self._group_rate_sums,
            self._group_action_sums,
            self._group_decision_sums,
        ):
            for key in series:
                series[key] = _grown(series[key], new_capacity, self._num_steps)
        self._rate_hist = _grown(self._rate_hist, new_capacity, self._num_steps)
        self._rate_low_counts = _grown(
            self._rate_low_counts, new_capacity, self._num_steps
        )
        self._capacity = new_capacity

    # ------------------------------------------------------------------
    # Series queries
    # ------------------------------------------------------------------

    def _group_mean_series(
        self, sums: Mapping[object, np.ndarray]
    ) -> Dict[object, np.ndarray]:
        result: Dict[object, np.ndarray] = {}
        for key, indices in self._groups.items():
            if indices.size == 0:
                result[key] = np.full(self._num_steps, np.nan)
            else:
                # Sum-then-divide matches np.mean's reduce-then-true_divide.
                result[key] = sums[key][: self._num_steps] / indices.size
        return result

    def group_default_rate_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group running default-rate series ``ADR_s(k)``.

        Bit-identical to ``group_average_series(running_default_rates(),
        groups)`` on the full-history path.
        """
        return self._group_mean_series(self._group_rate_sums)

    def group_action_average_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group Cesàro action averages over time."""
        return self._group_mean_series(self._group_action_sums)

    def group_approval_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group per-step approval rates."""
        return self._group_mean_series(self._group_decision_sums)

    def approval_rate_series(self) -> np.ndarray:
        """Return the per-step population approval rates."""
        return self._approvals[: self._num_steps].copy()

    def portfolio_rate_series(self) -> np.ndarray:
        """Return the pooled default rate of all offers made up to each step."""
        return self._portfolio[: self._num_steps].copy()

    def rate_sum_series(self) -> np.ndarray:
        """Return, per step, the sum of ``ADR_i(k)`` over all users."""
        return self._rate_sums[: self._num_steps].copy()

    def rate_sumsq_series(self) -> np.ndarray:
        """Return, per step, the sum of squared ``ADR_i(k)`` over all users."""
        return self._rate_sumsqs[: self._num_steps].copy()

    def rate_min_series(self) -> np.ndarray:
        """Return, per step, the minimum ``ADR_i(k)`` over all users."""
        return self._rate_mins[: self._num_steps].copy()

    def rate_max_series(self) -> np.ndarray:
        """Return, per step, the maximum ``ADR_i(k)`` over all users."""
        return self._rate_maxs[: self._num_steps].copy()

    @property
    def rate_bins(self) -> int:
        """Return the number of ``ADR_i(k)`` histogram bins kept per step."""
        return self._rate_bins

    def rate_histogram_edges(self) -> np.ndarray:
        """Return the fixed [0, 1] bin edges of the per-step histograms."""
        return self._rate_edges.copy()

    def rate_histogram_series(self) -> np.ndarray:
        """Return the per-step ``ADR_i(k)`` histogram counts.

        A ``(steps, rate_bins)`` integer matrix.  Counts pool exactly
        across shards and trials (integer addition), so the summed
        histograms equal ``np.histogram`` of the concatenated full-history
        stack step by step — the fig5 density in bounded memory.
        """
        return self._rate_hist[: self._num_steps].copy()

    def rate_low_count_series(self) -> np.ndarray:
        """Return, per step, how many users have ``ADR_i(k) <= 0.10``.

        The exact counter behind Figure 5's "share of users with ADR <=
        0.10" summary (a histogram with a bin edge at 0.10 cannot recover
        it: values exactly at the threshold fall into the next bin).
        """
        return self._rate_low_counts[: self._num_steps].copy()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """Return a picklable snapshot of the aggregator's running state.

        The per-user cumulative vectors, the per-step series (trimmed to
        the filled rows) and the group partition: everything
        :meth:`from_state` needs to rebuild a live aggregator (the batched
        aggregator hands out per-trial aggregators this way).
        """
        filled = self._num_steps
        return {
            "num_users": self._num_users,
            "prior_rate": self._prior_rate,
            "num_steps": filled,
            "groups": self.group_indices(),
            "rate_bins": self._rate_bins,
            "rate_hist": self._rate_hist[:filled].copy(),
            "rate_low_counts": self._rate_low_counts[:filled].copy(),
            "offers_cum": self._offers_cum.copy(),
            "repayments_cum": self._repayments_cum.copy(),
            "actions_cum": self._actions_cum.copy(),
            "approvals": self._approvals[:filled].copy(),
            "decision_sums": self._decision_sums[:filled].copy(),
            "offers_totals": self._offers_totals[:filled].copy(),
            "repayments_totals": self._repayments_totals[:filled].copy(),
            "portfolio": self._portfolio[:filled].copy(),
            "rate_sums": self._rate_sums[:filled].copy(),
            "rate_sumsqs": self._rate_sumsqs[:filled].copy(),
            "rate_mins": self._rate_mins[:filled].copy(),
            "rate_maxs": self._rate_maxs[:filled].copy(),
            "group_rate_sums": {
                key: self._group_rate_sums[key][:filled].copy() for key in self._groups
            },
            "group_action_sums": {
                key: self._group_action_sums[key][:filled].copy()
                for key in self._groups
            },
            "group_decision_sums": {
                key: self._group_decision_sums[key][:filled].copy()
                for key in self._groups
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "StreamingAggregator":
        """Rebuild a live (updatable) aggregator from a snapshot."""
        aggregator = cls(
            int(state["num_users"]),
            groups=state["groups"],  # type: ignore[arg-type]
            prior_rate=float(state["prior_rate"]),
            rate_bins=int(state.get("rate_bins", DEFAULT_RATE_BINS)),
        )
        filled = int(state["num_steps"])
        while aggregator._capacity < filled:
            aggregator._grow()
        aggregator._num_steps = filled
        rate_hist = np.asarray(
            state.get("rate_hist", np.zeros((filled, aggregator._rate_bins))),
            dtype=np.int64,
        )
        if rate_hist.shape != (filled, aggregator._rate_bins):
            raise ValueError("state 'rate_hist' must be (num_steps, rate_bins)")
        aggregator._rate_hist[:filled] = rate_hist
        rate_low = np.asarray(
            state.get("rate_low_counts", np.zeros(filled)), dtype=np.int64
        ).ravel()
        if rate_low.shape != (filled,):
            raise ValueError("state 'rate_low_counts' must have one entry per step")
        aggregator._rate_low_counts[:filled] = rate_low
        for attribute, key in (
            ("_offers_cum", "offers_cum"),
            ("_repayments_cum", "repayments_cum"),
            ("_actions_cum", "actions_cum"),
        ):
            value = np.asarray(state[key], dtype=float).ravel()
            if value.shape != (aggregator._num_users,):
                raise ValueError(f"state {key!r} must have one entry per user")
            setattr(aggregator, attribute, value.copy())
        for attribute, key in (
            ("_approvals", "approvals"),
            ("_decision_sums", "decision_sums"),
            ("_offers_totals", "offers_totals"),
            ("_repayments_totals", "repayments_totals"),
            ("_portfolio", "portfolio"),
            ("_rate_sums", "rate_sums"),
            ("_rate_sumsqs", "rate_sumsqs"),
            ("_rate_mins", "rate_mins"),
            ("_rate_maxs", "rate_maxs"),
        ):
            value = np.asarray(state[key], dtype=float).ravel()
            if value.shape != (filled,):
                raise ValueError(f"state {key!r} must have one entry per step")
            getattr(aggregator, attribute)[:filled] = value
        for attribute, key in (
            ("_group_rate_sums", "group_rate_sums"),
            ("_group_action_sums", "group_action_sums"),
            ("_group_decision_sums", "group_decision_sums"),
        ):
            series = state[key]
            if set(series) != set(aggregator._groups):  # type: ignore[arg-type]
                raise ValueError(f"state {key!r} must cover exactly the group keys")
            for group_key, values in series.items():  # type: ignore[union-attr]
                value = np.asarray(values, dtype=float).ravel()
                if value.shape != (filled,):
                    raise ValueError(
                        f"state {key!r}[{group_key!r}] must have one entry per step"
                    )
                getattr(aggregator, attribute)[group_key][:filled] = value
        return aggregator


class BatchedStreamingAggregator(_FoldedGroups):
    """``T`` independent streaming aggregators advanced in lockstep.

    The trial-batched engine records ``T`` trials of the same closed loop
    side by side.  Each trial's aggregate series are defined over its own
    user stream, but the expensive per-step state updates — the cumulative
    offer/repayment/action vectors and the derived ``ADR_i`` / Cesàro
    rows — are identical elementwise math, so this class keeps them
    stacked as ``(trials, users)`` arrays and updates them in single fused
    calls.  The per-trial reductions (sums, extrema, histograms) run on
    contiguous rows of the stack, which is the same memory layout a
    standalone :class:`StreamingAggregator` reduces, and one
    :class:`GroupFold` pass folds every trial's groups in user order, as
    the standalone fold does for its own row — every series of trial ``t`` is
    therefore **bit-identical** to feeding trial ``t``'s stream through its
    own aggregator (pinned by ``tests/core/test_streaming.py`` and the
    batch-equivalence suite).

    Parameters
    ----------
    num_trials:
        Number of stacked trials.
    num_users:
        Users per trial.
    groups_per_trial:
        One group partition per trial (trials draw independent populations,
        so the race index sets differ row by row).
    prior_rate, rate_bins:
        As in :class:`StreamingAggregator`, shared by every trial.
    """

    def __init__(
        self,
        num_trials: int,
        num_users: int,
        groups_per_trial: "list[Mapping[object, np.ndarray] | None]",
        prior_rate: float = 0.0,
        rate_bins: int = DEFAULT_RATE_BINS,
    ) -> None:
        if num_trials <= 0:
            raise ValueError("num_trials must be positive")
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if rate_bins < 2:
            raise ValueError("rate_bins must be at least 2")
        if len(groups_per_trial) != num_trials:
            raise ValueError("groups_per_trial must have one partition per trial")
        self._num_trials = int(num_trials)
        self._num_users = int(num_users)
        self._prior_rate = float(prior_rate)
        self._rate_bins = int(rate_bins)
        self._rate_edges = np.linspace(0.0, 1.0, self._rate_bins + 1)
        self._groups = [
            _validated_groups(groups, self._num_users) for groups in groups_per_trial
        ]
        self._num_steps = 0
        self._capacity = _INITIAL_CAPACITY
        shape = (self._num_trials, self._num_users)
        # Fused O(trials * users) running state (one array, not T).
        self._offers_cum = np.zeros(shape, dtype=float)
        self._repayments_cum = np.zeros(shape, dtype=float)
        self._actions_cum = np.zeros(shape, dtype=float)
        # The current step's ADR_i and Cesàro rows, rewritten in place.
        self._step_rates = np.empty(shape, dtype=float)
        self._step_cesaro = np.empty(shape, dtype=float)
        # Per-trial O(steps) series, stacked as (trials, capacity).
        series_shape = (self._num_trials, self._capacity)
        self._approvals = np.empty(series_shape, dtype=float)
        self._decision_sums = np.empty(series_shape, dtype=float)
        self._offers_totals = np.empty(series_shape, dtype=float)
        self._repayments_totals = np.empty(series_shape, dtype=float)
        self._portfolio = np.empty(series_shape, dtype=float)
        self._rate_sums = np.empty(series_shape, dtype=float)
        self._rate_sumsqs = np.empty(series_shape, dtype=float)
        self._rate_mins = np.empty(series_shape, dtype=float)
        self._rate_maxs = np.empty(series_shape, dtype=float)
        self._rate_hist = np.zeros(
            (self._num_trials, self._capacity, self._rate_bins), dtype=np.int64
        )
        self._rate_low_counts = np.zeros(series_shape, dtype=np.int64)
        self._group_rate_sums = [
            {key: np.empty(self._capacity) for key in groups}
            for groups in self._groups
        ]
        self._group_action_sums = [
            {key: np.empty(self._capacity) for key in groups}
            for groups in self._groups
        ]
        self._group_decision_sums = [
            {key: np.empty(self._capacity) for key in groups}
            for groups in self._groups
        ]
        self._build_fold()

    def _partitions(self) -> "list[Mapping[object, np.ndarray]]":
        return self._groups

    @property
    def num_trials(self) -> int:
        """Return the number of stacked trials."""
        return self._num_trials

    @property
    def num_steps(self) -> int:
        """Return the number of lockstep-aggregated steps."""
        return self._num_steps

    def _grow(self) -> None:
        new_capacity = max(_INITIAL_CAPACITY, self._capacity * 2)
        filled = self._num_steps

        def regrow(stacked: np.ndarray) -> np.ndarray:
            fresh = np.empty(
                (self._num_trials, new_capacity) + stacked.shape[2:],
                dtype=stacked.dtype,
            )
            fresh[:, :filled] = stacked[:, :filled]
            return fresh

        for attribute in (
            "_approvals",
            "_decision_sums",
            "_offers_totals",
            "_repayments_totals",
            "_portfolio",
            "_rate_sums",
            "_rate_sumsqs",
            "_rate_mins",
            "_rate_maxs",
            "_rate_hist",
            "_rate_low_counts",
        ):
            setattr(self, attribute, regrow(getattr(self, attribute)))
        for per_trial in (
            self._group_rate_sums,
            self._group_action_sums,
            self._group_decision_sums,
        ):
            for series in per_trial:
                for key in series:
                    series[key] = _grown(series[key], new_capacity, filled)
        self._capacity = new_capacity

    def update(
        self,
        decisions: np.ndarray,
        actions: np.ndarray,
        map_users: UserChunkMap | None = None,
    ) -> None:
        """Fold one lockstep step of ``(trials, users)`` decisions/actions.

        Replays :meth:`StreamingAggregator.update` for every trial: the
        cumulative vectors and derived per-user rows update in fused 2-D
        operations (elementwise, hence row-identical), the per-step scalars
        reduce each contiguous trial row exactly as the standalone
        aggregator reduces its own arrays, and the group folds add in user
        order per trial, as the standalone fold does.

        ``map_users`` may split the elementwise part over user chunks on
        several threads (by default it runs in one piece on this thread).
        The chunks also count the rate histogram and the low-rate users:
        integer counts, exact under any split.  Every sum whose value
        depends on the order of its terms runs afterwards on this thread,
        over whole trial rows.
        """
        shape = (self._num_trials, self._num_users)
        if decisions.shape != shape or actions.shape != shape:
            raise ValueError(
                f"decisions and actions must both have shape {shape}"
            )
        if self._num_steps >= self._capacity:
            self._grow()
        row = self._num_steps
        rates = self._step_rates
        cesaro = self._step_cesaro

        def fold(users: slice) -> tuple:
            offered = decisions[:, users]
            acted = actions[:, users]
            offers_cum = self._offers_cum[:, users]
            repayments_cum = self._repayments_cum[:, users]
            actions_cum = self._actions_cum[:, users]
            chunk_cesaro = cesaro[:, users]
            offers_cum += offered
            # The Cesàro rows hold actions * decisions until their turn.
            repayments_cum += np.multiply(acted, offered, out=chunk_cesaro)
            actions_cum += acted
            chunk_rates = running_default_rates_from_cums(
                offers_cum, repayments_cum, out=rates[:, users]
            )
            np.divide(actions_cum, float(row + 1), out=chunk_cesaro)
            histograms = np.stack(
                [
                    np.histogram(trial_rates, bins=self._rate_edges)[0]
                    for trial_rates in chunk_rates
                ]
            )
            lows = np.count_nonzero(
                chunk_rates <= RATE_HISTOGRAM_LOW_THRESHOLD, axis=1
            )
            return histograms, lows

        counts = (map_users or whole_population)(fold)
        self._rate_hist[:, row] = sum(histograms for histograms, _ in counts)
        self._rate_low_counts[:, row] = sum(lows for _, lows in counts)
        for trial in range(self._num_trials):
            decisions_row = decisions[trial]
            rates_row = rates[trial]
            self._approvals[trial, row] = np.mean(decisions_row)
            self._decision_sums[trial, row] = float(decisions_row.sum())
            offers_total = float(self._offers_cum[trial].sum())
            repayments_total = float(self._repayments_cum[trial].sum())
            self._offers_totals[trial, row] = offers_total
            self._repayments_totals[trial, row] = repayments_total
            self._portfolio[trial, row] = (
                self._prior_rate
                if offers_total == 0
                else 1.0 - repayments_total / offers_total
            )
            self._rate_sums[trial, row] = float(rates_row.sum())
            self._rate_sumsqs[trial, row] = _sum_of_squares(rates_row)
            self._rate_mins[trial, row] = float(rates_row.min())
            self._rate_maxs[trial, row] = float(rates_row.max())
        if self._fold is not None:
            for series, store in (
                (rates, self._group_rate_sums),
                (cesaro, self._group_action_sums),
                (decisions, self._group_decision_sums),
            ):
                for (trial, key), total in zip(
                    self._fold.keys, self._fold.sums(series)
                ):
                    store[trial][key][row] = total
        self._num_steps += 1

    def trial_state(self, trial: int) -> Dict[str, object]:
        """Return trial ``trial``'s state as a standalone-aggregator snapshot."""
        if not 0 <= trial < self._num_trials:
            raise ValueError("trial index out of range")
        filled = self._num_steps
        return {
            "num_users": self._num_users,
            "prior_rate": self._prior_rate,
            "num_steps": filled,
            "groups": {
                key: indices.copy() for key, indices in self._groups[trial].items()
            },
            "rate_bins": self._rate_bins,
            "rate_hist": self._rate_hist[trial, :filled].copy(),
            "rate_low_counts": self._rate_low_counts[trial, :filled].copy(),
            "offers_cum": self._offers_cum[trial].copy(),
            "repayments_cum": self._repayments_cum[trial].copy(),
            "actions_cum": self._actions_cum[trial].copy(),
            "approvals": self._approvals[trial, :filled].copy(),
            "decision_sums": self._decision_sums[trial, :filled].copy(),
            "offers_totals": self._offers_totals[trial, :filled].copy(),
            "repayments_totals": self._repayments_totals[trial, :filled].copy(),
            "portfolio": self._portfolio[trial, :filled].copy(),
            "rate_sums": self._rate_sums[trial, :filled].copy(),
            "rate_sumsqs": self._rate_sumsqs[trial, :filled].copy(),
            "rate_mins": self._rate_mins[trial, :filled].copy(),
            "rate_maxs": self._rate_maxs[trial, :filled].copy(),
            "group_rate_sums": {
                key: self._group_rate_sums[trial][key][:filled].copy()
                for key in self._groups[trial]
            },
            "group_action_sums": {
                key: self._group_action_sums[trial][key][:filled].copy()
                for key in self._groups[trial]
            },
            "group_decision_sums": {
                key: self._group_decision_sums[trial][key][:filled].copy()
                for key in self._groups[trial]
            },
        }

    def aggregator(self, trial: int) -> StreamingAggregator:
        """Return a live standalone aggregator holding trial ``trial``'s state."""
        return StreamingAggregator.from_state(self.trial_state(trial))


class AggregateHistory:
    """A memory-bounded trajectory store for ``history_mode="aggregate"``.

    Presents the same ingest surface as
    :class:`~repro.core.history.SimulationHistory` (``record_step``,
    ``append``, ``num_steps``, ``num_users``, ``approval_rates``), but
    folds every step into a :class:`StreamingAggregator` instead of
    retaining ``(steps, users)`` matrices: public features and per-user
    observations are consumed and dropped, so the store's footprint is
    ``O(users)`` running state plus ``O(steps * groups)`` series.

    Accessors that fundamentally need per-user rows —
    ``decisions_matrix``, ``actions_matrix``, ``running_default_rates``,
    ``records`` and friends — raise
    :class:`~repro.core.history.FullHistoryRequiredError` naming the knob
    to flip, rather than returning degraded data.

    Parameters
    ----------
    num_users:
        Optional user count; inferred from the first recorded step when
        omitted.
    groups:
        Optional group partition forwarded to the aggregator.
    prior_rate:
        Portfolio prior, as in :class:`StreamingAggregator`.
    """

    def __init__(
        self,
        num_users: int | None = None,
        groups: Mapping[object, np.ndarray] | None = None,
        prior_rate: float = 0.0,
    ) -> None:
        self._declared_num_users = None if num_users is None else int(num_users)
        self._groups = groups
        self._prior_rate = float(prior_rate)
        self._aggregator: StreamingAggregator | None = None
        if self._declared_num_users is not None:
            self._aggregator = StreamingAggregator(
                self._declared_num_users, groups=self._groups, prior_rate=self._prior_rate
            )

    @classmethod
    def from_aggregator(cls, aggregator: StreamingAggregator) -> "AggregateHistory":
        """Wrap an existing aggregator as a history.

        The trial-batched engine aggregates all trials through one
        :class:`BatchedStreamingAggregator` and exposes each trial's slice
        as a standalone aggregator; this constructor gives it the
        ``AggregateHistory`` surface :class:`~repro.experiments.runner.TrialResult`
        expects.  Further ``record_step`` calls continue the wrapped
        aggregator.
        """
        history = cls.__new__(cls)
        history._declared_num_users = aggregator.num_users
        history._groups = aggregator.group_indices()
        history._prior_rate = aggregator.prior_rate
        history._aggregator = aggregator
        return history

    # ------------------------------------------------------------------
    # Ingest (mirrors SimulationHistory)
    # ------------------------------------------------------------------

    def append(self, record: StepRecord) -> None:
        """Fold one step's record into the aggregate series."""
        self.record_step(
            record.step,
            record.public_features,
            record.decisions,
            record.actions,
            record.observation,
        )

    def record_step(
        self,
        step: int,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
    ) -> None:
        """Aggregate one step; features and observations are not retained.

        Steps must arrive in order without gaps: the running series divide
        by the step count, so a skipped or replayed step would silently
        corrupt every Cesàro average.  The full-history store can warn and
        keep the latest fragment; an aggregate store cannot rewind, so
        out-of-order recording is rejected outright.
        """
        if step != self.num_steps:
            raise ValueError(
                f"aggregate histories require contiguous steps: expected step "
                f"{self.num_steps}, got {step}"
            )
        decisions_row = np.asarray(decisions, dtype=float).ravel()
        if self._aggregator is None:
            self._aggregator = StreamingAggregator(
                decisions_row.shape[0], groups=self._groups, prior_rate=self._prior_rate
            )
        self._aggregator.update(decisions_row, actions)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def aggregator(self) -> StreamingAggregator:
        """Return the underlying aggregator."""
        self._require_non_empty()
        assert self._aggregator is not None
        return self._aggregator

    @property
    def num_steps(self) -> int:
        """Return the number of aggregated steps."""
        return 0 if self._aggregator is None else self._aggregator.num_steps

    @property
    def num_users(self) -> int:
        """Return the number of users (fixed at the first recorded step)."""
        if self._aggregator is None:
            raise ValueError("the history is empty")
        return self._aggregator.num_users

    def _require_non_empty(self) -> None:
        if self._aggregator is None or self._aggregator.num_steps == 0:
            raise ValueError("the history is empty")

    # ------------------------------------------------------------------
    # Aggregate series (bit-identical to the full-history derivations)
    # ------------------------------------------------------------------

    def approval_rates(self) -> np.ndarray:
        """Return the per-step fraction of approved users."""
        self._require_non_empty()
        return _readonly(self.aggregator.approval_rate_series())

    def portfolio_rate_series(self) -> np.ndarray:
        """Return the pooled portfolio default rate over time."""
        self._require_non_empty()
        return _readonly(self.aggregator.portfolio_rate_series())

    def group_default_rate_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group ``ADR_s(k)`` series."""
        self._require_non_empty()
        return self.aggregator.group_default_rate_series()

    def group_action_average_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group Cesàro action-average series."""
        self._require_non_empty()
        return self.aggregator.group_action_average_series()

    def group_approval_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group per-step approval-rate series."""
        self._require_non_empty()
        return self.aggregator.group_approval_series()

    def rate_histogram_series(self) -> np.ndarray:
        """Return the per-step ``ADR_i(k)`` histogram counts (fig5 input)."""
        self._require_non_empty()
        return self.aggregator.rate_histogram_series()

    def rate_histogram_edges(self) -> np.ndarray:
        """Return the fixed bin edges of the per-step rate histograms."""
        self._require_non_empty()
        return self.aggregator.rate_histogram_edges()

    def rate_low_count_series(self) -> np.ndarray:
        """Return, per step, the count of users with ``ADR_i(k) <= 0.10``."""
        self._require_non_empty()
        return self.aggregator.rate_low_count_series()

    # ------------------------------------------------------------------
    # Full-history-only surface: fail loudly, name the fix
    # ------------------------------------------------------------------

    def _full_history_required(self, accessor: str) -> FullHistoryRequiredError:
        return FullHistoryRequiredError(
            f"{accessor} requires per-user history rows, which "
            'history_mode="aggregate" does not retain; rerun with '
            'history_mode="full" to materialise the (steps, users) columns'
        )

    def decisions_matrix(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("decisions_matrix")

    def actions_matrix(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("actions_matrix")

    def public_feature_matrix(self, name: str) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required(f"public_feature_matrix({name!r})")

    def observation_series(self, name: str) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required(f"observation_series({name!r})")

    def running_default_rates(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("running_default_rates")

    def running_action_averages(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("running_action_averages")

    def recompute_running_default_rates(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("recompute_running_default_rates")

    def recompute_running_action_averages(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("recompute_running_action_averages")

    def recompute_approval_rates(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("recompute_approval_rates")

    def group_series(
        self, per_user_series: np.ndarray, groups: Mapping[object, np.ndarray]
    ) -> Dict[object, np.ndarray]:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("group_series")

    @property
    def records(self) -> Iterable[StepRecord]:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("records")

    def record_at(self, index: int) -> StepRecord:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("record_at")
