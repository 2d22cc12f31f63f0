"""Filters: the aggregation box between the users and the AI system.

The filter consumes each step's decisions and actions and maintains the
aggregate signal the AI system observes and is retrained on.  The paper's
credit case study uses the cumulative average default rate per user
(:class:`DefaultRateFilter`, and :class:`BatchedDefaultRateFilter` for the
lockstep kernel).  :class:`CumulativeAverageFilter`, the per-user Cesàro
average of the actions, is the generic filter that drives the loop over
non-credit populations such as
:class:`~repro.core.population.IFSPopulation`.

Every filter implements the :class:`LoopFilter` protocol: ``observation()``
returns the current aggregate signal (a dict of named arrays/scalars) and
``update(decisions, actions, k)`` folds in a new step and returns the
refreshed observation.
"""

from __future__ import annotations

from typing import Dict, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.history import _readonly
from repro.credit.default_rates import DefaultRateTracker, user_default_rates

__all__ = [
    "LoopFilter",
    "DefaultRateFilter",
    "BatchedDefaultRateFilter",
    "CumulativeAverageFilter",
    "require_binary_decisions",
]

#: Observation type: named aggregate signals.
Observation = Dict[str, np.ndarray | float]


def require_binary_decisions(decisions: np.ndarray) -> None:
    """Reject credit decisions other than 0 and 1.

    The default-rate filter counts an offer for each 1, and no other value
    has a meaning there.  The serial filter and the lockstep kernel both
    refuse such decisions through this check, so every layout takes or
    refuses the same policies.
    """
    values = np.asarray(decisions)
    if np.any((values != 0.0) & (values != 1.0)):
        raise ValueError(
            "the credit loop requires 0/1 decisions, but the AI system "
            "returned other values"
        )


@runtime_checkable
class LoopFilter(Protocol):
    """Protocol for the filter box of the closed loop."""

    def observation(self) -> Observation:
        """Return the current aggregate signal."""
        ...  # pragma: no cover - protocol

    def update(
        self, decisions: np.ndarray, actions: np.ndarray, k: int
    ) -> Observation:
        """Fold in one step of decisions/actions and return the new signal."""
        ...  # pragma: no cover - protocol


class DefaultRateFilter:
    """Cumulative average default rates per user (the paper's filter).

    The observation contains ``user_default_rates`` (one entry per user) and
    the pooled ``portfolio_rate``.

    Its cumulative state round-trips through :meth:`export_state` and
    :meth:`import_state`, which the checkpoint layer uses for step
    snapshots.
    """

    def __init__(self, num_users: int, prior_rate: float = 0.0) -> None:
        self._tracker = DefaultRateTracker(num_users, prior_rate=prior_rate)

    @property
    def tracker(self) -> DefaultRateTracker:
        """Return the underlying default-rate tracker."""
        return self._tracker

    def export_state(self) -> Dict[str, object]:
        """Return a picklable snapshot of the filter's cumulative state."""
        return self._tracker.export_state()

    def import_state(self, state: Dict[str, object]) -> None:
        """Replace this filter's cumulative state in place.

        A loop restored from a step snapshot uses this, so callers holding
        a reference to the filter see the restored state.
        """
        self._tracker = DefaultRateTracker.from_state(state)

    def observation(self) -> Observation:
        """Return the current per-user and pooled default rates."""
        return {
            "user_default_rates": self._tracker.user_rates(),
            "portfolio_rate": self._tracker.portfolio_rate(),
        }

    def update(
        self, decisions: np.ndarray, actions: np.ndarray, k: int
    ) -> Observation:
        """Record one step of offers and repayments (0/1 decisions only)."""
        require_binary_decisions(decisions)
        self._tracker.record(decisions, actions.astype(int))
        return self.observation()


class BatchedDefaultRateFilter:
    """A stack of independent default-rate filters advanced in lockstep.

    The trial-batched engine runs ``T`` trials of the same closed loop side
    by side; each trial owns an independent
    :class:`~repro.credit.default_rates.DefaultRateTracker`, but the
    per-step arithmetic is identical across trials, so this class keeps
    the ``T`` trackers' state stacked as ``(trials, users)`` rows.  These
    rows are the run's one copy of the per-user counts: the lockstep
    kernel's streaming aggregator reads them
    (:class:`~repro.core.streaming.BatchedStreamingAggregator`).

    **Cells.**  A user's whole filter state is its offer count ``o`` and
    repayment count ``r``, with ``r <= o <= S`` over a run of ``S`` steps.
    The filter keeps the pair as one unsigned integer *cell*
    ``o * (S + 1) + r``, a point of an ``(S + 1) x (S + 1)`` grid: a
    ``uint16`` row (2 bytes per user) up to 255 steps, ``uint32`` beyond.
    Every per-user float is a function of the cell, read from a table
    built once over the grid with the shared functions: :attr:`cell_rates`
    (``ADR_i`` through
    :func:`~repro.credit.default_rates.user_default_rates`),
    :attr:`cell_offers` and :attr:`cell_repayments`.  Each entry has the
    bits a :class:`~repro.credit.default_rates.DefaultRateTracker`
    computes for the same counts, so a table read (:meth:`read`) equals
    the tracker's elementwise work.  A cell with ``r > o`` cannot occur;
    its entries repeat the never-offered cell's, so every table stays in
    its functions' domain.  Consumers build their own tables from these:
    the kernel's clipped rates and refit keys, the aggregator's histogram
    bins.  So a run pays for its tables in proportion to ``(S + 1) ** 2``
    (24 bytes a cell here), whatever its population; the planner bounds
    the kernel's steps (:data:`~repro.core.planner.KERNEL_MAX_STEPS`).

    Inputs follow the kernel's contract: boolean offer and repayment masks,
    repayments only where offered.  A step folds in user chunks
    (:meth:`fold`, elementwise, so chunks may run on several threads),
    each returning its per-trial offer and repayment counts, which
    :meth:`finish_step` adds into running per-trial totals.  The counts
    are small integers, exact in float under any split and order, so the
    portfolio rates never re-sum a row.

    Row ``t`` is bit-identical, at every step, to a plain
    :class:`DefaultRateFilter` over trial ``t``'s stream.  Pinned by
    ``tests/core/test_filters.py`` and the lockstep-recording property of
    ``tests/property/test_property_streaming.py``.
    """

    def __init__(
        self,
        num_trials: int,
        num_users: int,
        num_steps: int,
        prior_rate: float = 0.0,
    ) -> None:
        if num_trials <= 0:
            raise ValueError("num_trials must be positive")
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if num_steps < 0:
            raise ValueError("num_steps must be non-negative")
        if not 0.0 <= prior_rate <= 1.0:
            raise ValueError("prior_rate must lie in [0, 1]")
        stride = num_steps + 1
        if stride * stride > 1 << 32:
            raise ValueError("num_steps must be below 65,536")
        self._num_trials = int(num_trials)
        self._num_users = int(num_users)
        self._num_steps = int(num_steps)
        self._prior_rate = float(prior_rate)
        dtype = np.uint16 if stride * stride <= 1 << 16 else np.uint32
        self._stride = dtype(stride)
        self._cells = np.zeros((num_trials, num_users), dtype=dtype)
        offers, repayments = np.divmod(np.arange(stride * stride), stride)
        self._cell_offers = _readonly(offers.astype(float))
        self._cell_repayments = _readonly(repayments.astype(float))
        rates = user_default_rates(
            self._cell_offers, self._cell_repayments, self._prior_rate
        )
        np.copyto(rates, self._prior_rate, where=repayments > offers)
        self._cell_rates = _readonly(rates)
        # Per-trial offer and repayment counts of the last step, and their
        # running totals.
        self._step_counts = np.zeros((2, num_trials), dtype=float)
        self._totals = np.zeros((2, num_trials), dtype=float)
        self._steps_recorded = 0

    @property
    def num_trials(self) -> int:
        """Return the number of stacked trials."""
        return self._num_trials

    @property
    def num_users(self) -> int:
        """Return the number of users per trial."""
        return self._num_users

    @property
    def prior_rate(self) -> float:
        """Return the rate reported for never-offered users."""
        return self._prior_rate

    @property
    def steps_recorded(self) -> int:
        """Return how many lockstep steps have been recorded."""
        return self._steps_recorded

    @property
    def cells(self) -> np.ndarray:
        """Return a read-only view of the ``(trials, users)`` cells."""
        return _readonly(self._cells.view())

    @property
    def cell_offers(self) -> np.ndarray:
        """Return the offer count ``o`` of each cell, as floats."""
        return self._cell_offers

    @property
    def cell_repayments(self) -> np.ndarray:
        """Return the repayment count ``r`` of each cell, as floats."""
        return self._cell_repayments

    @property
    def cell_rates(self) -> np.ndarray:
        """Return ``ADR_i`` of each cell (the prior where ``o = 0``)."""
        return self._cell_rates

    def read(
        self,
        table: np.ndarray,
        cells: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``table`` at each of ``cells`` (by default all of them).

        ``table`` has one entry per grid cell; ``cells`` is any block of
        :attr:`cells`.  ``np.take`` in ``"clip"`` mode gathers without the
        bounds-checking buffer of its default mode (every cell lies on the
        grid): on ``uint16`` cells it is about 2.5x faster than fancy
        indexing.  ``out``, when given, receives the values.
        """
        return np.take(
            table, self._cells if cells is None else cells, out=out, mode="clip"
        )

    @property
    def step_counts(self) -> np.ndarray:
        """Return the last step's per-trial offer and repayment counts.

        Shape ``(2, trials)``: offers in row 0, repayments in row 1.
        """
        return self._step_counts.copy()

    @property
    def totals(self) -> np.ndarray:
        """Return the running per-trial totals, laid out as :attr:`step_counts`."""
        return self._totals.copy()

    def fold(
        self,
        users: slice,
        offered: np.ndarray,
        repaid: np.ndarray,
        rates_out: np.ndarray,
    ) -> np.ndarray:
        """Fold one user chunk of a step; return its ``(2, trials)`` counts.

        ``offered`` and ``repaid`` are the step's boolean ``(trials,
        users)`` masks and ``rates_out`` a float row of that shape; only
        their ``users`` columns are touched.  Each chunk cell gains
        ``offered * (S + 1) + repaid``, and ``rates_out`` receives the
        chunk's updated ``ADR_i(k)`` columns, read from :attr:`cell_rates`.
        A repayment without an offer is rejected before any cell moves: it
        would spill into the next row of the grid.  The result holds, per
        trial, the chunk's offers (row 0) and repayments (row 1).  Once
        every chunk of a step has folded, :meth:`finish_step` takes the
        chunks' counts.
        """
        shape = (self._num_trials, self._num_users)
        if any(rows.shape != shape for rows in (offered, repaid, rates_out)):
            raise ValueError(
                f"offered, repaid and rates_out must all have shape {shape}"
            )
        if offered.dtype != np.bool_ or repaid.dtype != np.bool_:
            raise ValueError("offered and repaid must be boolean masks")
        if self._steps_recorded >= self._num_steps:
            raise ValueError(f"the cells hold {self._num_steps} steps, all recorded")
        chunk_offered = offered[:, users]
        chunk_repaid = repaid[:, users]
        if np.any(chunk_repaid > chunk_offered):
            raise ValueError("a user cannot repay a mortgage that was not offered")
        cells = self._cells[:, users]
        cells += chunk_offered * self._stride
        cells += chunk_repaid
        self.read(self._cell_rates, cells, out=rates_out[:, users])
        return np.stack(
            (
                np.count_nonzero(chunk_offered, axis=1),
                np.count_nonzero(chunk_repaid, axis=1),
            )
        ).astype(float)

    def finish_step(self, chunk_counts: Sequence[np.ndarray]) -> None:
        """Add every chunk's :meth:`fold` counts into the step and the totals."""
        self._step_counts = np.add.reduce(list(chunk_counts))
        self._totals += self._step_counts
        self._steps_recorded += 1

    def user_rates(self, out: np.ndarray | None = None) -> np.ndarray:
        """Return the stacked ``ADR_i(k)`` matrix, one row per trial.

        Row-wise bit-identical to :meth:`DefaultRateTracker.user_rates`:
        never-offered users report the prior rate, everyone else the exact
        ``1 - repayments / offers`` ratio.  ``out``, when given, receives
        the matrix.
        """
        return self.read(self._cell_rates, out=out)

    def portfolio_rates(self) -> np.ndarray:
        """Return the pooled default rate of each trial's offers so far.

        The same branch and float ops as
        :meth:`DefaultRateTracker.portfolio_rate`, on the running totals,
        which equal the tracker's row sums exactly.
        """
        offers, repayments = self._totals.tolist()
        return np.array(
            [
                self._prior_rate if total_offers == 0 else 1.0 - repaid / total_offers
                for total_offers, repaid in zip(offers, repayments)
            ]
        )

    def tracker_for_trial(self, trial: int) -> DefaultRateTracker:
        """Return trial ``trial``'s state as a standalone tracker."""
        if not 0 <= trial < self._num_trials:
            raise ValueError("trial index out of range")
        cells = self._cells[trial]
        return DefaultRateTracker.from_state(
            {
                "num_users": self._num_users,
                "prior_rate": self._prior_rate,
                "offers": self.read(self._cell_offers, cells),
                "repayments": self.read(self._cell_repayments, cells),
                "steps_recorded": self._steps_recorded,
            }
        )


class CumulativeAverageFilter:
    """Per-user cumulative (Cesàro) average of the actions.

    The observation contains ``average_action`` per user and the population
    mean ``aggregate``.
    """

    def __init__(self, num_users: int, initial_value: float = 0.0) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        self._sums = np.zeros(num_users, dtype=float)
        self._count = 0
        self._initial = float(initial_value)
        self._num_users = num_users

    def observation(self) -> Observation:
        """Return the current per-user averages."""
        if self._count == 0:
            averages = np.full(self._num_users, self._initial)
        else:
            averages = self._sums / self._count
        return {"average_action": averages, "aggregate": float(averages.mean())}

    def update(
        self, decisions: np.ndarray, actions: np.ndarray, k: int
    ) -> Observation:
        """Fold in one step of actions."""
        array = np.asarray(actions, dtype=float).ravel()
        if array.shape != (self._num_users,):
            raise ValueError("actions must have one entry per user")
        self._sums += array
        self._count += 1
        return self.observation()
