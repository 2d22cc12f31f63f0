"""Recording of closed-loop simulations (columnar engine).

The trajectory store is *columnar*: decisions, actions, public features and
observations live in preallocated ``(capacity, users)`` float arrays that
grow geometrically, so appending a step is a handful of in-place row writes
and ``decisions_matrix`` / ``actions_matrix`` / ``public_feature_matrix``
are O(1) slicing views instead of per-call ``np.vstack`` over Python lists.

The history keeps only what was recorded.  The derived series are
computed from the columns on each call: ``running_default_rates`` applies
:func:`~repro.credit.default_rates.user_default_rates` to the cumulative
offers and repayments, ``running_action_averages`` is
:func:`~repro.utils.stats.cesaro_averages` of the actions, and
``approval_rates`` the per-step mean of the decisions.

Steps arrive through :meth:`SimulationHistory.record_step`, and
:attr:`SimulationHistory.records` is a lazy sequence view that materialises
one :class:`StepRecord` per step from the columns on demand (Table 1 reads
it).  One caveat: a feature/observation key that vanishes and later
reappears keeps only its latest contiguous fragment (a ``RuntimeWarning``
is emitted); the closed loop always records a consistent key set, so this
only affects hand-built pathological histories.

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
from typing import Dict, Iterator, Mapping, Sequence

import numpy as np

from repro.credit.default_rates import user_default_rates
from repro.utils.stats import cesaro_averages

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
    steps is reported consistently: matrix queries require full coverage,
    per-record access only shows the key where it was present.
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


class SimulationHistory:
    """A full closed-loop trajectory in columnar, preallocated storage.

    Storage is columnar (see the module docstring); the derived series are
    computed from the decision and action columns on each call.

    Matrix accessors return **read-only views** into the internal buffers;
    callers that need to mutate the result should copy it first.
    """

    def __init__(self) -> None:
        self._num_steps = 0
        self._num_users: int | None = None
        self._capacity = 0
        self._steps = np.empty(0, dtype=np.int64)
        self._decisions = np.empty((0, 0), dtype=float)
        self._actions = np.empty((0, 0), dtype=float)
        self._features: Dict[str, _Column] = {}
        self._observations: Dict[str, _Column] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def record_step(
        self,
        step: int,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
    ) -> None:
        """Write one step directly into the columns.

        This is what :meth:`repro.core.loop.ClosedLoop.run` and the lockstep
        kernel call: values are copied straight into the preallocated
        arrays, so no intermediate per-step dicts or record objects are
        allocated.  Every value is checked and prepared *before* any
        storage mutation: a bad value leaves the history exactly as it was
        (a half-written step would poison the column coverage
        bookkeeping).  Public features are always per-user-shaped series:
        scalars are promoted to width-1 columns so
        ``public_feature_matrix`` stays 2-D.
        """
        decisions_row = np.asarray(decisions, dtype=float).ravel()
        actions_row = np.asarray(actions, dtype=float).ravel()
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
        self._num_steps += 1

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

    def _grow(self) -> None:
        """Double the row capacity of every preallocated array."""
        new_capacity = max(_INITIAL_CAPACITY, self._capacity * 2)
        for attribute in ("_decisions", "_actions", "_steps"):
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

    # ------------------------------------------------------------------
    # Record access
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
    # Derived series, computed from the columns on each call
    # ------------------------------------------------------------------

    def running_action_averages(self) -> np.ndarray:
        """Return the Cesàro averages of the actions, per user, over time.

        Entry ``[k, i]`` is ``(1 / (k + 1)) * sum_{j <= k} y_i(j)`` — the
        quantity whose limit Definition 3 (equal impact) constrains.
        """
        return _readonly(cesaro_averages(self.actions_matrix(), axis=0))

    def running_default_rates(self) -> np.ndarray:
        """Return the cumulative average default rates ``ADR_i(k)`` over time.

        Defaults are "offered but not repaid"; a user with no offers so far
        has rate 0 by convention, matching
        :class:`repro.credit.default_rates.DefaultRateTracker`.  The
        cumulative sums run in step order, so each row has the bits a
        tracker fed the same steps reports.
        """
        decisions = self.decisions_matrix()
        offers = np.cumsum(decisions, axis=0)
        repayments = np.multiply(self.actions_matrix(), decisions)
        np.cumsum(repayments, axis=0, out=repayments)
        return _readonly(user_default_rates(offers, repayments))

    def approval_rates(self) -> np.ndarray:
        """Return the per-step fraction of approved users."""
        return _readonly(self.decisions_matrix().mean(axis=1))

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
        for attribute in ("_steps", "_decisions", "_actions"):
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
