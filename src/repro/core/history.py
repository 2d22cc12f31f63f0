"""Recording of closed-loop simulations (columnar engine).

The trajectory store is *columnar*: decisions, actions, public features and
observations live in preallocated ``(capacity, users)`` float arrays that
grow geometrically, so appending a step is a handful of in-place row writes
and ``decisions_matrix`` / ``actions_matrix`` / ``public_feature_matrix``
are O(1) slicing views instead of per-call ``np.vstack`` over Python lists.

Derived metrics are *incremental*: an internal running-statistics layer
(cumulative offers, repayments and action sums, all ``O(users)`` state)
fills one row of each derived series per appended step, so
``running_default_rates``, ``running_action_averages`` and
``approval_rates`` cost O(1) per query rather than O(steps * users).  The
original cumulative-sum formulations are kept as ``recompute_*``
cross-checks; the equivalence suite asserts both paths agree bit-for-bit.

The record-of-dicts interface survives: the orchestrator may still append
one :class:`StepRecord` per time step, and :attr:`SimulationHistory.records`
is a lazy sequence view that materialises :class:`StepRecord` objects from
the columns on demand.  One caveat: a feature/observation key that vanishes
and later reappears keeps only its latest contiguous fragment (a
``RuntimeWarning`` is emitted); the closed loop always records a consistent
key set, so this only affects hand-built pathological histories.

This full-history store is one of two recording modes.  At million-user
scale the ``(steps, users)`` columns make memory the binding constraint, so
the loop can instead record into the memory-bounded
:class:`~repro.core.streaming.AggregateHistory`
(``ClosedLoop.run(..., history_mode="aggregate")``), which keeps only
group-level series.  Consumers that fundamentally need per-user rows raise
:class:`FullHistoryRequiredError` in that mode.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["StepRecord", "SimulationHistory", "FullHistoryRequiredError"]


class FullHistoryRequiredError(RuntimeError):
    """An accessor needs per-user history rows that were never retained.

    Raised by :class:`~repro.core.streaming.AggregateHistory` (and by
    result objects backed by it) when a caller asks for a ``(steps,
    users)`` matrix or per-user series in ``history_mode="aggregate"``.
    The fix is always the same: rerun with ``history_mode="full"``.
    """

#: Initial row capacity of a freshly allocated history.
_INITIAL_CAPACITY = 32


@dataclass(frozen=True)
class StepRecord:
    """Everything observed in one pass through the loop.

    Attributes
    ----------
    step:
        The time index ``k``.
    public_features:
        The features the population revealed before the decision.
    decisions:
        The AI system's output ``pi(k, i)``, one entry per user.
    actions:
        The users' responses ``y_i(k)``, one entry per user.
    observation:
        The filter's output *after* folding in this step.
    """

    step: int
    public_features: Mapping[str, np.ndarray]
    decisions: np.ndarray
    actions: np.ndarray
    observation: Mapping[str, np.ndarray | float]


class _Column:
    """One named, preallocated column of the history.

    A column is either scalar-per-step (``width is None``, backed by a
    ``(capacity,)`` array) or vector-per-step (backed by a
    ``(capacity, width)`` array).  ``start``/``count`` track the contiguous
    run of steps the column covers, so a key that only appears in some
    records is reported exactly like the old record-of-dicts store: matrix
    queries require full coverage, per-record access only shows the key
    where it was present.
    """

    __slots__ = ("data", "width", "start", "count")

    def __init__(self, value: np.ndarray | float, capacity: int, start: int) -> None:
        array = np.asarray(value, dtype=float)
        if array.ndim == 0:
            self.width: int | None = None
            self.data = np.empty(capacity, dtype=float)
        else:
            self.width = int(array.shape[-1]) if array.ndim == 1 else int(array.size)
            self.data = np.empty((capacity, self.width), dtype=float)
        self.start = start
        self.count = 0

    def write(self, step: int, value: np.ndarray | float) -> None:
        """Write ``value`` at row ``step``, tracking contiguity."""
        if step != self.start + self.count:
            # The key vanished and reappeared; keep only the latest
            # contiguous fragment (pathological usage — the closed loop
            # always records a consistent key set).
            self.start = step
            self.count = 0
        if self.width is None:
            self.data[step] = float(value)
        else:
            self.data[step, :] = np.asarray(value, dtype=float).ravel()
        self.count += 1

    def grow(self, capacity: int) -> None:
        """Reallocate the backing array to ``capacity`` rows."""
        self.data = _grown(self.data, capacity, self.start + self.count)

    def covers(self, num_steps: int) -> bool:
        """Return whether the column has a value for every step so far."""
        return self.start == 0 and self.count == num_steps

    def trimmed(self) -> "_Column":
        """Return a copy whose backing array holds only the filled rows."""
        clone = object.__new__(_Column)
        clone.width = self.width
        clone.data = self.data[: self.start + self.count].copy()
        clone.start = self.start
        clone.count = self.count
        return clone

    def present_at(self, step: int) -> bool:
        """Return whether the column has a value at ``step``."""
        return self.start <= step < self.start + self.count


class _RecordsView(Sequence):
    """Read-only sequence of :class:`StepRecord` built from the columns."""

    def __init__(self, history: "SimulationHistory") -> None:
        self._history = history

    def __len__(self) -> int:
        return self._history.num_steps

    def __iter__(self) -> Iterator[StepRecord]:
        for index in range(len(self)):
            yield self._history.record_at(index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._history.record_at(i) for i in range(*index.indices(len(self)))]
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("record index out of range")
        return self._history.record_at(index)


def _readonly(view: np.ndarray) -> np.ndarray:
    """Return ``view`` marked read-only (it aliases the internal buffers)."""
    view.flags.writeable = False
    return view


def _grown(old: np.ndarray, capacity: int, filled: int) -> np.ndarray:
    """Return a reallocated copy of ``old`` with ``capacity`` rows."""
    fresh = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
    fresh[:filled] = old[:filled]
    return fresh


def running_default_rates_from_cums(
    offers_cum: np.ndarray,
    repayments_cum: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Return ``ADR_i`` from cumulative offers/repayments (the shared fold).

    This is the single definition of the per-user running default rate —
    "offered but not repaid", rate 0 before any offer — used by **both**
    recording modes: :class:`SimulationHistory`'s incremental layer and the
    streaming :class:`~repro.core.streaming.StreamingAggregator`.  Keeping
    it in one place is what makes the cross-mode bit-identity guarantee
    structural rather than two formulas kept in sync by convention.
    ``out``, when given, receives the rates (it must not overlap the
    inputs).
    """
    never_offered = ~(offers_cum > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.maximum(offers_cum, 1e-12, out=out)
        np.divide(repayments_cum, rates, out=rates)
        np.subtract(1.0, rates, out=rates)
    np.copyto(rates, 0.0, where=never_offered)
    return rates


class SimulationHistory:
    """A full closed-loop trajectory in columnar, preallocated storage.

    The public surface matches the original record-of-dicts store —
    ``append``/``records``/matrix accessors — but storage is columnar
    (see the module docstring) and the derived series are maintained
    incrementally as steps arrive.

    Matrix accessors return **read-only views** into the internal buffers;
    callers that need to mutate the result should copy it first.

    Parameters
    ----------
    records:
        Optional iterable of :class:`StepRecord` to append at construction
        (compatibility with the old dataclass signature).
    """

    def __init__(self, records: Iterable[StepRecord] | None = None) -> None:
        self._num_steps = 0
        self._num_users: int | None = None
        self._capacity = 0
        self._steps = np.empty(0, dtype=np.int64)
        self._decisions = np.empty((0, 0), dtype=float)
        self._actions = np.empty((0, 0), dtype=float)
        self._features: Dict[str, _Column] = {}
        self._observations: Dict[str, _Column] = {}
        # Incremental running-statistics layer (O(users) state per step).
        self._offers_cum = np.empty(0, dtype=float)
        self._repayments_cum = np.empty(0, dtype=float)
        self._actions_cum = np.empty(0, dtype=float)
        self._running_rates = np.empty((0, 0), dtype=float)
        self._running_actions = np.empty((0, 0), dtype=float)
        self._approvals = np.empty(0, dtype=float)
        # True while _offers_cum/_repayments_cum/_actions_cum reflect every
        # recorded step; record_step_precomputed skips maintaining them (its
        # caller already computed the derived rows) and a later plain
        # record_step rebuilds them first (exact — see _rebuild_cums).
        self._cums_valid = True
        if records is not None:
            for record in records:
                self.append(record)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def append(self, record: StepRecord) -> None:
        """Append one step's record."""
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
        """Write one step directly into the columns (the fast ingest path).

        This is what :meth:`repro.core.loop.ClosedLoop.run` calls: values
        are copied straight into the preallocated arrays, so no intermediate
        per-step dicts or record objects are allocated.
        """
        decisions_row = np.asarray(decisions, dtype=float).ravel()
        actions_row = np.asarray(actions, dtype=float).ravel()
        if not self._cums_valid:
            self._rebuild_cums()
        row = self._ingest_row(
            step, public_features, observation, decisions_row, actions_row
        )
        self._update_running_stats(row)
        self._num_steps += 1

    def _ingest_row(
        self,
        step: int,
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
        decisions_row: np.ndarray,
        actions_row: np.ndarray,
    ) -> int:
        """Validate and write one step's columns; return the row index.

        The shared tail of both ingest paths (:meth:`record_step` and
        :meth:`record_step_precomputed`): per-user shape checks, column
        value preparation *before* any storage mutation (a bad value
        leaves the history exactly as it was — a half-written step would
        poison the column coverage bookkeeping), lazy initialisation and
        growth, and the columnar row writes.  Public features are always
        per-user-shaped series: scalars are promoted to width-1 columns so
        ``public_feature_matrix`` stays 2-D.  The caller appends the
        derived statistics for ``row`` and advances ``_num_steps``.
        """
        expected_users = (
            self._num_users if self._num_users is not None else decisions_row.shape[0]
        )
        if decisions_row.shape[0] != expected_users:
            raise ValueError(
                "decisions must have one entry per user "
                f"({decisions_row.shape[0]} != {expected_users})"
            )
        if actions_row.shape[0] != expected_users:
            raise ValueError(
                "actions must have one entry per user "
                f"({actions_row.shape[0]} != {expected_users})"
            )
        feature_rows = [
            (
                name,
                self._prepare_value(
                    self._features, name, np.atleast_1d(np.asarray(value, dtype=float))
                ),
            )
            for name, value in public_features.items()
        ]
        observation_rows = [
            (name, self._prepare_value(self._observations, name, value))
            for name, value in observation.items()
        ]
        if self._num_users is None:
            self._initialise(expected_users)
        if self._num_steps >= self._capacity:
            self._grow()
        row = self._num_steps
        self._steps[row] = int(step)
        self._decisions[row, :] = decisions_row
        self._actions[row, :] = actions_row
        for name, value in feature_rows:
            self._write_column(self._features, name, row, value)
        for name, value in observation_rows:
            self._write_column(self._observations, name, row, value)
        return row

    def record_step_precomputed(
        self,
        step: int,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
        *,
        running_rates: np.ndarray,
        running_actions: np.ndarray,
        approval: float,
    ) -> None:
        """Ingest one step whose derived statistics are already computed.

        The trial-batched engine maintains the cumulative offer/repayment
        state for all trials at once, so per-trial histories would
        recompute the identical ``O(users)`` running-statistics rows ``T``
        times per step.  This ingest path stores the caller's rows directly
        instead of running :meth:`_update_running_stats`.

        The caller **must** supply exactly what the incremental layer would
        compute for this step — ``running_rates`` equal to
        :func:`running_default_rates_from_cums` over the history's
        cumulative 0/1 decisions/actions, ``running_actions`` the Cesàro
        row, ``approval`` the decision mean — or the stored series (and the
        ``recompute_*`` cross-checks) would silently disagree.  The batch
        equivalence suite pins this bit for bit.  Mixing with the plain
        :meth:`record_step` afterwards is supported: the cumulative vectors
        are rebuilt exactly from the recorded 0/1 columns on the next plain
        ingest.
        """
        decisions_row = np.asarray(decisions, dtype=float).ravel()
        actions_row = np.asarray(actions, dtype=float).ravel()
        rates_row = np.asarray(running_rates, dtype=float).ravel()
        running_actions_row = np.asarray(running_actions, dtype=float).ravel()
        expected_users = (
            self._num_users if self._num_users is not None else decisions_row.shape[0]
        )
        for name, row_value in (
            ("running_rates", rates_row),
            ("running_actions", running_actions_row),
        ):
            if row_value.shape[0] != expected_users:
                raise ValueError(
                    f"{name} must have one entry per user "
                    f"({row_value.shape[0]} != {expected_users})"
                )
        row = self._ingest_row(
            step, public_features, observation, decisions_row, actions_row
        )
        self._running_rates[row, :] = rates_row
        self._running_actions[row, :] = running_actions_row
        self._approvals[row] = float(approval)
        self._cums_valid = False
        self._num_steps += 1

    def _rebuild_cums(self) -> None:
        """Rebuild the cumulative vectors from the recorded columns.

        Decisions and actions are 0/1, so their per-user column sums are
        small integers — exact in float regardless of summation order —
        and the rebuilt vectors equal the sequential per-step accumulation
        bit for bit.
        """
        filled = self._num_steps
        decisions = self._decisions[:filled]
        actions = self._actions[:filled]
        self._offers_cum = decisions.sum(axis=0)
        self._repayments_cum = (actions * decisions).sum(axis=0)
        self._actions_cum = actions.sum(axis=0)
        self._cums_valid = True

    @staticmethod
    def _prepare_value(
        columns: Dict[str, _Column], name: str, value: np.ndarray | float
    ) -> np.ndarray | float:
        """Coerce ``value`` for ``name``'s column, validating before any write."""
        column = columns.get(name)
        if column is not None and column.width is not None:
            row = np.asarray(value, dtype=float).ravel()
            if row.size != column.width:
                raise ValueError(
                    f"column {name!r} expects width {column.width}, got {row.size}"
                )
            return row
        if column is not None:  # scalar column
            return float(value)
        array = np.asarray(value, dtype=float)
        return float(array) if array.ndim == 0 else array.ravel()

    def _initialise(self, num_users: int) -> None:
        self._num_users = int(num_users)
        self._capacity = _INITIAL_CAPACITY
        self._steps = np.empty(self._capacity, dtype=np.int64)
        self._decisions = np.empty((self._capacity, self._num_users), dtype=float)
        self._actions = np.empty((self._capacity, self._num_users), dtype=float)
        self._offers_cum = np.zeros(self._num_users, dtype=float)
        self._repayments_cum = np.zeros(self._num_users, dtype=float)
        self._actions_cum = np.zeros(self._num_users, dtype=float)
        self._running_rates = np.empty((self._capacity, self._num_users), dtype=float)
        self._running_actions = np.empty((self._capacity, self._num_users), dtype=float)
        self._approvals = np.empty(self._capacity, dtype=float)

    def _grow(self) -> None:
        """Double the row capacity of every preallocated array."""
        new_capacity = max(_INITIAL_CAPACITY, self._capacity * 2)
        for attribute in (
            "_decisions",
            "_actions",
            "_running_rates",
            "_running_actions",
            "_approvals",
            "_steps",
        ):
            setattr(
                self,
                attribute,
                _grown(getattr(self, attribute), new_capacity, self._num_steps),
            )
        for column in self._features.values():
            column.grow(new_capacity)
        for column in self._observations.values():
            column.grow(new_capacity)
        self._capacity = new_capacity

    def _write_column(
        self,
        columns: Dict[str, _Column],
        name: str,
        row: int,
        value: np.ndarray | float,
    ) -> None:
        column = columns.get(name)
        if column is None:
            column = _Column(value, self._capacity, start=row)
            columns[name] = column
        elif column.count and row != column.start + column.count:
            warnings.warn(
                f"column {name!r} skipped steps "
                f"{column.start + column.count}..{row - 1}; earlier values are "
                "discarded and only the latest contiguous fragment is kept",
                RuntimeWarning,
                stacklevel=4,
            )
        column.write(row, value)

    def _update_running_stats(self, row: int) -> None:
        """Fold step ``row`` into the incremental derived series.

        The updates replay, term by term, the cumulative sums of the
        ``recompute_*`` formulations, so the incremental series are
        bit-identical to the O(steps * users) recomputation.
        """
        decisions_row = self._decisions[row]
        actions_row = self._actions[row]
        self._offers_cum += decisions_row
        self._repayments_cum += actions_row * decisions_row
        self._actions_cum += actions_row
        self._running_rates[row, :] = running_default_rates_from_cums(
            self._offers_cum, self._repayments_cum
        )
        self._running_actions[row, :] = self._actions_cum / float(row + 1)
        self._approvals[row] = np.mean(decisions_row)

    # ------------------------------------------------------------------
    # Record access (compatibility surface)
    # ------------------------------------------------------------------

    @property
    def records(self) -> _RecordsView:
        """Return the steps as a lazy sequence of :class:`StepRecord`."""
        return _RecordsView(self)

    def record_at(self, index: int) -> StepRecord:
        """Materialise the :class:`StepRecord` of step ``index``."""
        if not 0 <= index < self._num_steps:
            raise IndexError("record index out of range")
        features = {
            name: column.data[index].copy()
            for name, column in self._features.items()
            if column.present_at(index)
        }
        observation: Dict[str, np.ndarray | float] = {}
        for name, column in self._observations.items():
            if column.present_at(index):
                observation[name] = (
                    float(column.data[index])
                    if column.width is None
                    else column.data[index].copy()
                )
        return StepRecord(
            step=int(self._steps[index]),
            public_features=features,
            decisions=self._decisions[index].copy(),
            actions=self._actions[index].copy(),
            observation=observation,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_steps(self) -> int:
        """Return the number of recorded steps."""
        return self._num_steps

    @property
    def num_users(self) -> int:
        """Return the number of users (fixed at the first recorded step)."""
        self._require_non_empty()
        assert self._num_users is not None
        return self._num_users

    # ------------------------------------------------------------------
    # Matrix views
    # ------------------------------------------------------------------

    def decisions_matrix(self) -> np.ndarray:
        """Return the decisions as a read-only ``(steps, users)`` view."""
        self._require_non_empty()
        return _readonly(self._decisions[: self._num_steps])

    def actions_matrix(self) -> np.ndarray:
        """Return the actions as a read-only ``(steps, users)`` view."""
        self._require_non_empty()
        return _readonly(self._actions[: self._num_steps])

    def public_feature_matrix(self, name: str) -> np.ndarray:
        """Return one public feature (e.g. income) as a ``(steps, users)`` view."""
        self._require_non_empty()
        column = self._features.get(name)
        if column is None or not column.covers(self._num_steps):
            raise KeyError(f"public feature {name!r} was not recorded")
        return _readonly(column.data[: self._num_steps])

    def observation_series(self, name: str) -> np.ndarray:
        """Return one observation entry stacked over time.

        Per-user (array-valued) observations produce a ``(steps, users)``
        matrix, scalar observations a ``(steps,)`` vector.  The distinction
        is by the dimensionality of the recorded value — a per-user array
        from a 1-user population stays a ``(steps, 1)`` matrix instead of
        being silently flattened to a scalar series.
        """
        self._require_non_empty()
        column = self._observations.get(name)
        if column is None or not column.covers(self._num_steps):
            raise KeyError(f"observation {name!r} was not recorded")
        return _readonly(column.data[: self._num_steps])

    # ------------------------------------------------------------------
    # Incremental derived series (O(1) per query)
    # ------------------------------------------------------------------

    def running_action_averages(self) -> np.ndarray:
        """Return the Cesàro averages of the actions, per user, over time.

        Entry ``[k, i]`` is ``(1 / (k + 1)) * sum_{j <= k} y_i(j)`` — the
        quantity whose limit Definition 3 (equal impact) constrains.
        Maintained incrementally; O(1) per query.
        """
        self._require_non_empty()
        return _readonly(self._running_actions[: self._num_steps])

    def running_default_rates(self) -> np.ndarray:
        """Return the cumulative average default rates ``ADR_i(k)`` over time.

        Defaults are "offered but not repaid"; a user with no offers so far
        has rate 0 by convention, matching
        :class:`repro.credit.default_rates.DefaultRateTracker`.
        Maintained incrementally; O(1) per query.
        """
        self._require_non_empty()
        return _readonly(self._running_rates[: self._num_steps])

    def approval_rates(self) -> np.ndarray:
        """Return the per-step fraction of approved users (O(1) per query)."""
        self._require_non_empty()
        return _readonly(self._approvals[: self._num_steps])

    # ------------------------------------------------------------------
    # Cross-check recomputations (the original O(steps * users) math)
    # ------------------------------------------------------------------

    def recompute_running_default_rates(self) -> np.ndarray:
        """Recompute ``ADR_i(k)`` from scratch via cumulative sums.

        Kept as a cross-check of the incremental layer; the equivalence
        suite asserts bit-identity with :meth:`running_default_rates`.
        """
        decisions = self.decisions_matrix()
        actions = self.actions_matrix()
        offers = np.cumsum(decisions, axis=0)
        repayments = np.cumsum(actions * decisions, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(offers > 0, 1.0 - repayments / np.maximum(offers, 1e-12), 0.0)
        return rates

    def recompute_running_action_averages(self) -> np.ndarray:
        """Recompute the Cesàro action averages from scratch (cross-check)."""
        from repro.utils.stats import cesaro_averages

        return cesaro_averages(self.actions_matrix(), axis=0)

    def recompute_approval_rates(self) -> np.ndarray:
        """Recompute the per-step approval rates from scratch (cross-check)."""
        return self.decisions_matrix().mean(axis=1)

    # ------------------------------------------------------------------
    # Grouping
    # ------------------------------------------------------------------

    def group_series(
        self, per_user_series: np.ndarray, groups: Mapping[object, np.ndarray]
    ) -> Dict[object, np.ndarray]:
        """Average a ``(steps, users)`` series over each group of user indices."""
        series = np.asarray(per_user_series, dtype=float)
        result: Dict[object, np.ndarray] = {}
        for key, indices in groups.items():
            if indices.size == 0:
                result[key] = np.full(series.shape[0], np.nan)
            else:
                result[key] = series[:, indices].mean(axis=1)
        return result

    def _require_non_empty(self) -> None:
        if self._num_steps == 0:
            raise ValueError("the history is empty")

    # ------------------------------------------------------------------
    # Pickling (the parallel runner ships histories between processes)
    # ------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Pickle only the filled rows, not the over-allocated capacity."""
        state = dict(self.__dict__)
        filled = self._num_steps
        for attribute in (
            "_steps",
            "_decisions",
            "_actions",
            "_running_rates",
            "_running_actions",
            "_approvals",
        ):
            state[attribute] = state[attribute][:filled].copy()
        state["_features"] = {
            name: column.trimmed() for name, column in self._features.items()
        }
        state["_observations"] = {
            name: column.trimmed() for name, column in self._observations.items()
        }
        state["_capacity"] = filled
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
