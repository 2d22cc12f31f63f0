"""Streaming (memory-bounded) aggregation of closed-loop trajectories.

The paper's group-level figures only need the race-wise series ``ADR_s(k)``,
the Cesàro action averages and the approval rates — yet the full-history
engine materialises every ``(steps, users)`` column, which makes *memory*
the binding constraint at million-user scale.  This module provides the
``history_mode="aggregate"`` path of the engine:

* :class:`AggregateHistory` consumes each step's decisions and actions
  online through the :class:`~repro.core.history.SimulationHistory`
  ingest surface (``record_step``/``num_steps``), so
  :meth:`~repro.core.loop.ClosedLoop.run` can record into either store.
  It maintains group-level running series in ``O(users)`` running state
  plus ``O(steps * groups)`` output — no per-user history rows are ever
  retained — and its per-user accessors (``decisions_matrix`` and friends)
  raise :class:`~repro.core.history.FullHistoryRequiredError` with a clear
  message instead of silently degrading.
* :class:`BatchedStreamingAggregator` records the lockstep kernel's
  ``T`` trials side by side and hands each trial over as an
  :class:`AggregateHistory`.

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

Sharding note: the lockstep kernel splits the users into blocks of whole
canonical shards on threads.  In a block, :meth:`BatchedStreamingAggregator.fold`
reads tables at the filter's integer cells, writes only elementwise
per-user state (the Cesàro row) and makes only reductions that are exact
under any split: ``ADR_i`` min and max, the integer rate histograms and
low-rate counts, and per-group decision counts (sums of 0/1 decisions are
integers).  Every sum whose value depends on the order of its terms (the
``ADR_i`` and Cesàro group folds, the ``ADR_i`` sum and sum of squares)
runs once over the whole row, after the blocks
(:meth:`BatchedStreamingAggregator.finish_step`), so the sequential fold
order above holds under any thread count.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.filters import BatchedDefaultRateFilter
from repro.core.history import FullHistoryRequiredError, StepRecord, _grown, _readonly
from repro.credit.default_rates import user_default_rates

__all__ = [
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
    the call, which a threaded ``np.dot`` does.  Both aggregate recorders
    use this one expression, so their series stay bitwise equal.
    """
    return float(np.einsum("i,i->", values, values))


def rate_bin_codes(rates: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Return ``2 * bin + low`` for each rate in ``[edges[0], edges[-1]]``.

    ``bin`` is the rate's ``np.histogram`` bin over the edge array: with
    explicit edges ``np.histogram`` counts ``x`` in bin ``i`` when
    ``edges[i] <= x < edges[i + 1]``, the last bin closed on the right,
    which is the number of interior edges ``<= x``.  ``low`` is
    ``x <= RATE_HISTOGRAM_LOW_THRESHOLD``.  So ``np.bincount`` of a row's
    codes with ``minlength=2 * bins``, reshaped to ``(bins, 2)``, gives
    the row's histogram (summed over the last axis) and its low-rate count
    (the sum of column 1).  The lockstep aggregator builds these codes
    once per run, one per cell of the filter's grid.
    """
    codes = np.searchsorted(edges[1:-1], rates, side="right")
    codes *= 2
    codes += rates <= RATE_HISTOGRAM_LOW_THRESHOLD
    # Narrow codes gather and count faster than intp ones.
    return codes.astype(np.uint16 if 2 * edges.size <= 1 << 16 else np.uint32)


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
    each already checked by the recorders' group validation (in range,
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
        totals = np.bincount(
            self._codes.reshape(-1),
            weights=series.reshape(-1),
            minlength=len(self._members) + 1,
        )[:-1]
        return self.refold_zeros(totals, series)

    def counts(self, values: np.ndarray, users: slice = slice(None)) -> np.ndarray:
        """Return each group's sum of 0/1 ``values`` over the ``users`` columns.

        Such sums are integer counts, exact under any split of the users
        and in any order, so per-chunk counts add up to the whole-row
        :meth:`sums` bit for bit, save for the sign of zero, which
        :meth:`refold_zeros` settles once the chunks are added.  One
        ``bincount`` per row, over contiguous columns.
        """
        rows = values.reshape(len(self._codes), -1)
        totals = np.zeros(len(self._members) + 1)
        for codes, row in zip(self._codes[:, users], rows[:, users]):
            totals += np.bincount(codes, weights=row, minlength=totals.size)
        return totals[:-1]

    def refold_zeros(self, totals: np.ndarray, series: np.ndarray) -> np.ndarray:
        """Refold sequentially, in place, the ``totals`` that are exactly zero.

        A ``bincount`` bin starts from ``+0.0``; the sequential fold of a
        group holding nothing but ``-0.0`` stays ``-0.0``.
        """
        rows = series.reshape(self._codes.shape)
        for code in np.flatnonzero(totals == 0.0):
            row, _ = self.keys[code]
            totals[code] = sequential_sum(rows[row][self._members[code]])
        return totals


class _FoldedGroups:
    """Owns a recorder's :class:`GroupFold`, which pickles leave out.

    The fold's group codes (8 bytes per user) follow from the partition, so
    pickled recorders (checkpoints, pooled and persisted trial results)
    omit the fold and rebuild it on load.
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


class AggregateHistory(_FoldedGroups):
    """A memory-bounded trajectory store for ``history_mode="aggregate"``.

    Presents the ingest surface of
    :class:`~repro.core.history.SimulationHistory` (``record_step``,
    ``num_steps``, ``num_users``, ``approval_rates``) but retains no
    ``(steps, users)`` matrix: each step's decisions and actions fold into
    ``O(users)`` running state (cumulative offers, repayments and action
    sums, the cumulative sums the full history derives its series from),
    and public features and observations are dropped.  Each step appends
    one row to ``O(steps)`` / ``O(steps * groups)`` series:

    * per-group running average default rates — the paper's ``ADR_s(k)``;
    * per-group Cesàro action averages (Definition 3's limit quantity);
    * per-group and population-wide approval rates;
    * the pooled portfolio default rate;
    * population-wide per-step summaries of ``ADR_i(k)`` (sum, sum of
      squares, min, max, a fixed-bin histogram and the low-rate count), so
      the dispersion and density figures need no ``(steps, users)``
      matrix.

    Every series is bit-identical to the corresponding full-history
    derivation (see the module docstring for why the group sums are
    sequential folds in user order).  Accessors that fundamentally need
    per-user rows — ``decisions_matrix``, ``actions_matrix``,
    ``running_default_rates``, ``records`` and friends — raise
    :class:`~repro.core.history.FullHistoryRequiredError` naming the knob
    to flip, rather than returning degraded data.

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
        :class:`~repro.credit.default_rates.DefaultRateTracker`.  A user
        never offered credit has ``ADR_i = 0``, as in the full history.
    rate_bins:
        Number of equal-width ``ADR_i(k)`` histogram bins on [0, 1].
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
        # counts, so per-trial histograms pool exactly into the histogram
        # of the concatenated full-history stack (the fig5 density path in
        # aggregate mode).  np.histogram is called with the explicit edge
        # array so the bin-assignment arithmetic is the full-history one.
        self._rate_bins = int(rate_bins)
        self._rate_edges = np.linspace(0.0, 1.0, self._rate_bins + 1)
        self._rate_hist = np.zeros((self._capacity, self._rate_bins), dtype=np.int64)
        self._rate_low_counts = np.zeros(self._capacity, dtype=np.int64)
        # O(users) running state.
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
        """Return the number of users this history observes."""
        return self._num_users

    @property
    def num_steps(self) -> int:
        """Return the number of recorded steps."""
        return self._num_steps

    def _require_non_empty(self) -> None:
        if self._num_steps == 0:
            raise ValueError("the history is empty")

    # ------------------------------------------------------------------
    # Ingest (mirrors SimulationHistory)
    # ------------------------------------------------------------------

    def record_step(
        self,
        step: int,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
    ) -> None:
        """Fold one step into the running series; features and observations are dropped.

        Steps must arrive in order without gaps: the running series divide
        by the step count, so a skipped or replayed step would silently
        corrupt every Cesàro average.  The full-history store can warn and
        keep the latest fragment; an aggregate store cannot rewind, so
        out-of-order recording is rejected outright.
        """
        if step != self._num_steps:
            raise ValueError(
                f"aggregate histories require contiguous steps: expected step "
                f"{self._num_steps}, got {step}"
            )
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
        # The cumulative sums run in step order, as the full history's
        # do, so the per-user rows are bit-identical to its derived
        # series; the rate fold itself is the shared single definition,
        # at the full history's prior of 0 (the prior rate is only the
        # portfolio's).
        self._offers_cum += decisions_row
        self._repayments_cum += actions_row * decisions_row
        self._actions_cum += actions_row
        rates = user_default_rates(self._offers_cum, self._repayments_cum)
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
            "_rate_hist",
            "_rate_low_counts",
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
        self._capacity = new_capacity

    # ------------------------------------------------------------------
    # Aggregate series (bit-identical to the full-history derivations)
    # ------------------------------------------------------------------

    def _filled(self, series: np.ndarray) -> np.ndarray:
        """Return the recorded rows of ``series`` as a read-only view."""
        self._require_non_empty()
        return _readonly(series[: self._num_steps])

    def _group_mean_series(
        self, sums: Mapping[object, np.ndarray]
    ) -> Dict[object, np.ndarray]:
        self._require_non_empty()
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

    def approval_rates(self) -> np.ndarray:
        """Return the per-step fraction of approved users."""
        return self._filled(self._approvals)

    def portfolio_rate_series(self) -> np.ndarray:
        """Return the pooled default rate of all offers made up to each step."""
        return self._filled(self._portfolio)

    def rate_sum_series(self) -> np.ndarray:
        """Return, per step, the sum of ``ADR_i(k)`` over all users."""
        return self._filled(self._rate_sums)

    def rate_sumsq_series(self) -> np.ndarray:
        """Return, per step, the sum of squared ``ADR_i(k)`` over all users."""
        return self._filled(self._rate_sumsqs)

    def rate_min_series(self) -> np.ndarray:
        """Return, per step, the minimum ``ADR_i(k)`` over all users."""
        return self._filled(self._rate_mins)

    def rate_max_series(self) -> np.ndarray:
        """Return, per step, the maximum ``ADR_i(k)`` over all users."""
        return self._filled(self._rate_maxs)

    @property
    def rate_bins(self) -> int:
        """Return the number of ``ADR_i(k)`` histogram bins kept per step."""
        return self._rate_bins

    def rate_histogram_edges(self) -> np.ndarray:
        """Return the fixed [0, 1] bin edges of the per-step histograms."""
        return self._rate_edges.copy()

    def rate_histogram_series(self) -> np.ndarray:
        """Return the per-step ``ADR_i(k)`` histogram counts (fig5 input).

        A ``(steps, rate_bins)`` integer matrix.  Counts pool exactly
        across trials (integer addition), so the summed histograms equal
        ``np.histogram`` of the concatenated full-history stack step by
        step — the fig5 density in bounded memory.
        """
        return self._filled(self._rate_hist)

    def rate_low_count_series(self) -> np.ndarray:
        """Return, per step, how many users have ``ADR_i(k) <= 0.10``.

        The exact counter behind Figure 5's "share of users with ADR <=
        0.10" summary (a histogram with a bin edge at 0.10 cannot recover
        it: values exactly at the threshold fall into the next bin).
        """
        return self._filled(self._rate_low_counts)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """Return a picklable snapshot of the history's running state.

        The per-user cumulative vectors, the per-step series (trimmed to
        the filled rows) and the group partition: everything
        :meth:`from_state` needs to rebuild a live history.
        """
        filled = self._num_steps
        return {
            "num_users": self._num_users,
            "prior_rate": self._prior_rate,
            "num_steps": filled,
            "groups": {key: indices.copy() for key, indices in self._groups.items()},
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
    def from_state(cls, state: Mapping[str, object]) -> "AggregateHistory":
        """Rebuild a live (recordable) history from a snapshot."""
        history = cls(
            int(state["num_users"]),
            groups=state["groups"],  # type: ignore[arg-type]
            prior_rate=float(state["prior_rate"]),
            rate_bins=int(state["rate_bins"]),
        )
        for attribute, key in (
            ("_offers_cum", "offers_cum"),
            ("_repayments_cum", "repayments_cum"),
            ("_actions_cum", "actions_cum"),
        ):
            value = np.asarray(state[key], dtype=float).ravel()
            if value.shape != (history._num_users,):
                raise ValueError(f"state {key!r} must have one entry per user")
            np.copyto(getattr(history, attribute), value)
        history._load_series(state)
        return history

    def _load_series(self, state: Mapping[str, object]) -> None:
        """Take a snapshot's per-step series (everything but the per-user rows)."""
        filled = int(state["num_steps"])
        while self._capacity < filled:
            self._grow()
        self._num_steps = filled
        rate_hist = np.asarray(state["rate_hist"], dtype=np.int64)
        if rate_hist.shape != (filled, self._rate_bins):
            raise ValueError("state 'rate_hist' must be (num_steps, rate_bins)")
        self._rate_hist[:filled] = rate_hist
        rate_low = np.asarray(state["rate_low_counts"], dtype=np.int64).ravel()
        if rate_low.shape != (filled,):
            raise ValueError("state 'rate_low_counts' must have one entry per step")
        self._rate_low_counts[:filled] = rate_low
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
            getattr(self, attribute)[:filled] = value
        for attribute, key in (
            ("_group_rate_sums", "group_rate_sums"),
            ("_group_action_sums", "group_action_sums"),
            ("_group_decision_sums", "group_decision_sums"),
        ):
            series = state[key]
            if set(series) != set(self._groups):  # type: ignore[arg-type]
                raise ValueError(f"state {key!r} must cover exactly the group keys")
            for group_key, values in series.items():  # type: ignore[union-attr]
                value = np.asarray(values, dtype=float).ravel()
                if value.shape != (filled,):
                    raise ValueError(
                        f"state {key!r}[{group_key!r}] must have one entry per step"
                    )
                getattr(self, attribute)[group_key][:filled] = value

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

    @property
    def records(self) -> Iterable[StepRecord]:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("records")

    def record_at(self, index: int) -> StepRecord:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("record_at")


class _ChunkReductions(NamedTuple):
    """One user chunk's share of a step: every reduction exact under any split."""

    rate_mins: np.ndarray
    rate_maxs: np.ndarray
    rate_hist: np.ndarray
    rate_low_counts: np.ndarray
    group_decisions: np.ndarray | None


class BatchedStreamingAggregator(_FoldedGroups):
    """``T`` independent aggregate recordings advanced in lockstep.

    The trial-batched engine records ``T`` trials of the same closed loop
    side by side, over one stacked
    :class:`~repro.core.filters.BatchedDefaultRateFilter`.  The aggregator
    owns no per-user counts: it reads the filter's cells, its per-trial
    step counts and totals, and the ``ADR_i(k)`` row the filter writes each
    step.  In the credit loop a user repays only when offered, so the
    running action sums an :class:`AggregateHistory` keeps equal the
    repayment counts, and the Cesàro row is ``r / (k + 1)`` with
    ``r`` read from the filter's :attr:`~repro.core.filters.BatchedDefaultRateFilter.cell_repayments`
    table.  That row, rewritten in place every step, is the aggregator's
    only ``(trials, users)`` array.  A cell's rate-histogram bin and
    low-rate flag come from one more table, built once from the filter's
    ``ADR_i`` table (:func:`rate_bin_codes`), so a chunk's histogram is one
    ``bincount``.

    Inputs follow the lockstep kernel's contract, the filter's: 0/1
    decisions, and repayments (actions) only where offered.  An
    :class:`AggregateHistory`, which keeps its own counts, folds any floats.

    A step is :meth:`fold` on each user chunk (chunks may run on several
    threads), then one :meth:`finish_step`.
    The chunks make every reduction that is exact under any split, and
    the approvals, decision sums, totals and portfolio rates come from
    the filter's per-trial counts, so no count row is summed again.  The
    four reductions whose bits depend on the order of their terms run over
    whole rows, as :class:`AggregateHistory` runs them.  Every series of
    trial ``t`` is therefore **bit-identical** to recording trial ``t``'s
    stream in its own :class:`AggregateHistory` (pinned by
    ``tests/core/test_streaming.py``,
    ``tests/property/test_property_streaming.py`` and the batch-equivalence
    suite).

    Parameters
    ----------
    rate_filter:
        The stacked filter whose cells and rates the aggregator reads;
        each step it folds before the aggregator does.  Its prior rate
        must be 0: never-offered users then have ``ADR_i = 0``, as in the
        full history, and the portfolio rate is 0 before any offer.
    groups_per_trial:
        One group partition per trial (trials draw independent populations,
        so the race index sets differ row by row).
    rate_bins:
        As in :class:`AggregateHistory`, shared by every trial.
    """

    def __init__(
        self,
        rate_filter: BatchedDefaultRateFilter,
        groups_per_trial: "list[Mapping[object, np.ndarray] | None]",
        rate_bins: int = DEFAULT_RATE_BINS,
    ) -> None:
        if rate_bins < 2:
            raise ValueError("rate_bins must be at least 2")
        if len(groups_per_trial) != rate_filter.num_trials:
            raise ValueError("groups_per_trial must have one partition per trial")
        if rate_filter.prior_rate != 0.0:
            raise ValueError(
                "the rate filter's prior rate must be 0: its ADR_i rows are "
                "the aggregator's, which are 0 for never-offered users"
            )
        self._rate_filter = rate_filter
        self._num_trials = rate_filter.num_trials
        self._num_users = rate_filter.num_users
        self._rate_bins = int(rate_bins)
        self._rate_edges = np.linspace(0.0, 1.0, self._rate_bins + 1)
        self._groups = [
            _validated_groups(groups, self._num_users) for groups in groups_per_trial
        ]
        self._num_steps = 0
        self._capacity = _INITIAL_CAPACITY
        # The current step's Cesàro row, rewritten in place.
        self._cesaro = np.empty((self._num_trials, self._num_users), dtype=float)
        self._rate_codes = rate_bin_codes(rate_filter.cell_rates, self._rate_edges)
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

    @property
    def rate_filter(self) -> BatchedDefaultRateFilter:
        """Return the stacked filter whose counts the aggregator reads."""
        return self._rate_filter

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

    def _require_filter_steps(self, steps: int) -> None:
        recorded = self._rate_filter.steps_recorded
        if recorded != steps:
            raise ValueError(
                f"the rate filter has folded {recorded} steps where the "
                f"aggregator expects {steps}: the filter folds each step "
                "first, then the aggregator"
            )

    def fold(
        self, users: slice, decisions: np.ndarray, rates: np.ndarray
    ) -> _ChunkReductions:
        """Fold one user chunk of a step; return its exact reductions.

        Runs once the filter has folded the same chunk of the step:
        ``rates`` is the ``(trials, users)`` ``ADR_i(k)`` row the filter
        wrote, and only its ``users`` columns are read, as are the chunk's
        cells.  Writes the chunk's Cesàro columns and returns its ``ADR_i``
        min and max, rate histogram, low-rate count and per-group decision
        counts, for :meth:`finish_step`.
        """
        shape = (self._num_trials, self._num_users)
        if decisions.shape != shape or rates.shape != shape:
            raise ValueError(f"decisions and rates must both have shape {shape}")
        rate_filter = self._rate_filter
        cells = rate_filter.cells[:, users]
        cesaro = rate_filter.read(
            rate_filter.cell_repayments, cells, out=self._cesaro[:, users]
        )
        np.divide(cesaro, float(self._num_steps + 1), out=cesaro)
        codes = rate_filter.read(self._rate_codes, cells)
        counts = np.stack(
            [np.bincount(row, minlength=2 * self._rate_bins) for row in codes]
        ).reshape(self._num_trials, self._rate_bins, 2)
        chunk_rates = rates[:, users]
        return _ChunkReductions(
            rate_mins=chunk_rates.min(axis=1, initial=np.inf),
            rate_maxs=chunk_rates.max(axis=1, initial=-np.inf),
            rate_hist=counts.sum(axis=2),
            rate_low_counts=counts[:, :, 1].sum(axis=1),
            group_decisions=(
                None if self._fold is None else self._fold.counts(decisions, users)
            ),
        )

    def finish_step(
        self,
        decisions: np.ndarray,
        rates: np.ndarray,
        chunks: Sequence[_ChunkReductions],
    ) -> None:
        """Record one step from every chunk's :meth:`fold` result.

        Merges the chunks' reductions by integer addition and min/max.
        ``decisions`` and ``rates`` are the step's whole rows, as given to
        :meth:`fold`.  Then runs, over whole rows, the four reductions
        whose bits depend on the order of their terms: the ``ADR_i`` sum
        and sum of squares (contiguous trial rows) and the ``ADR_i`` and
        Cesàro group folds (:class:`GroupFold`, user order).
        """
        self._require_filter_steps(self._num_steps + 1)
        if self._num_steps >= self._capacity:
            self._grow()
        row = self._num_steps
        step_offers = self._rate_filter.step_counts[0]
        # np.mean of a 0/1 row is its exact count over the user count.
        self._approvals[:, row] = step_offers / self._num_users
        self._decision_sums[:, row] = step_offers
        self._offers_totals[:, row], self._repayments_totals[:, row] = (
            self._rate_filter.totals
        )
        self._portfolio[:, row] = self._rate_filter.portfolio_rates()
        self._rate_mins[:, row] = np.minimum.reduce([c.rate_mins for c in chunks])
        self._rate_maxs[:, row] = np.maximum.reduce([c.rate_maxs for c in chunks])
        self._rate_hist[:, row] = np.add.reduce([c.rate_hist for c in chunks])
        self._rate_low_counts[:, row] = np.add.reduce(
            [c.rate_low_counts for c in chunks]
        )
        for trial, trial_rates in enumerate(rates):
            self._rate_sums[trial, row] = float(trial_rates.sum())
            self._rate_sumsqs[trial, row] = _sum_of_squares(trial_rates)
        fold = self._fold
        if fold is not None:
            counts = np.add.reduce([c.group_decisions for c in chunks])
            self._store(
                self._group_decision_sums, row, fold.refold_zeros(counts, decisions)
            )
            self._store(self._group_rate_sums, row, fold.sums(rates))
            self._store(self._group_action_sums, row, fold.sums(self._cesaro))
        self._num_steps += 1

    def _store(
        self, store: "list[Dict[object, np.ndarray]]", row: int, totals: np.ndarray
    ) -> None:
        for (trial, key), total in zip(self._fold.keys, totals):
            store[trial][key][row] = total

    def history(self, trial: int) -> AggregateHistory:
        """Return trial ``trial``'s recording as a live :class:`AggregateHistory`.

        Its running rows are written once, straight from the filter's
        cells (the action sums are the repayments), so the filter must be
        at the same step.  The per-step series are copied in.
        """
        if not 0 <= trial < self._num_trials:
            raise ValueError("trial index out of range")
        self._require_filter_steps(self._num_steps)
        rate_filter = self._rate_filter
        history = AggregateHistory(
            self._num_users,
            groups=self._groups[trial],
            prior_rate=rate_filter.prior_rate,
            rate_bins=self._rate_bins,
        )
        cells = rate_filter.cells[trial]
        rate_filter.read(rate_filter.cell_offers, cells, out=history._offers_cum)
        rate_filter.read(rate_filter.cell_repayments, cells, out=history._repayments_cum)
        np.copyto(history._actions_cum, history._repayments_cum)
        filled = self._num_steps
        history._load_series(
            {
                "num_steps": filled,
                "rate_hist": self._rate_hist[trial, :filled],
                "rate_low_counts": self._rate_low_counts[trial, :filled],
                "approvals": self._approvals[trial, :filled],
                "decision_sums": self._decision_sums[trial, :filled],
                "offers_totals": self._offers_totals[trial, :filled],
                "repayments_totals": self._repayments_totals[trial, :filled],
                "portfolio": self._portfolio[trial, :filled],
                "rate_sums": self._rate_sums[trial, :filled],
                "rate_sumsqs": self._rate_sumsqs[trial, :filled],
                "rate_mins": self._rate_mins[trial, :filled],
                "rate_maxs": self._rate_maxs[trial, :filled],
                **{
                    name: {key: sums[:filled] for key, sums in series[trial].items()}
                    for name, series in (
                        ("group_rate_sums", self._group_rate_sums),
                        ("group_action_sums", self._group_action_sums),
                        ("group_decision_sums", self._group_decision_sums),
                    )
                },
            }
        )
        return history
