"""Filters: the aggregation box between the users and the AI system.

The filter consumes each step's decisions and actions and maintains the
aggregate signal the AI system observes and is retrained on.  The paper's
credit case study uses the cumulative average default rate per user
(:class:`DefaultRateFilter`); the ergodicity discussion of Section VI also
motivates simpler generic filters — cumulative averages, exponential moving
averages, integral (accumulating-error) filters, and an anomaly-clipping
wrapper — which the ablation benchmarks exercise.

Every filter implements the :class:`LoopFilter` protocol: ``observation()``
returns the current aggregate signal (a dict of named arrays/scalars) and
``update(decisions, actions, k)`` folds in a new step and returns the
refreshed observation.
"""

from __future__ import annotations

from typing import Dict, Protocol, runtime_checkable

import numpy as np

from repro.core.sharding import UserChunkMap, whole_population
from repro.credit.default_rates import DefaultRateTracker, user_default_rates

__all__ = [
    "LoopFilter",
    "DefaultRateFilter",
    "BatchedDefaultRateFilter",
    "CumulativeAverageFilter",
    "ExponentialMovingAverageFilter",
    "IntegralFilter",
    "AnomalyClippingFilter",
]

#: Observation type: named aggregate signals.
Observation = Dict[str, np.ndarray | float]


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
        """Record one step of offers and repayments."""
        self._tracker.record(decisions.astype(int), actions.astype(int))
        return self.observation()


class BatchedDefaultRateFilter:
    """A stack of independent default-rate filters advanced in lockstep.

    The trial-batched engine runs ``T`` trials of the same closed loop side
    by side; each trial owns an independent
    :class:`~repro.credit.default_rates.DefaultRateTracker`, but the
    per-step arithmetic (integer offer/repayment counts, the ``ADR_i``
    ratio, the pooled portfolio rate) is identical across trials.  This
    class keeps the ``T`` trackers' cumulative state stacked as ``(trials,
    users)`` arrays so one fused call replaces ``T`` scalar-dispatch
    updates.

    Row ``t`` is bit-identical, at every step, to a plain
    :class:`DefaultRateFilter` over trial ``t``'s stream: the counts are
    small integers (exact in float), the rate fold uses the same masked
    division as :meth:`DefaultRateTracker.user_rates`, and the portfolio
    ratio sums each row contiguously exactly like the per-trial
    ``tracker.offers.sum()``.  Pinned by ``tests/core/test_filters.py`` and
    the batch-equivalence suite.
    """

    def __init__(
        self, num_trials: int, num_users: int, prior_rate: float = 0.0
    ) -> None:
        if num_trials <= 0:
            raise ValueError("num_trials must be positive")
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if not 0.0 <= prior_rate <= 1.0:
            raise ValueError("prior_rate must lie in [0, 1]")
        self._num_trials = int(num_trials)
        self._num_users = int(num_users)
        self._prior_rate = float(prior_rate)
        self._offers = np.zeros((num_trials, num_users), dtype=float)
        self._repayments = np.zeros((num_trials, num_users), dtype=float)
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
    def steps_recorded(self) -> int:
        """Return how many lockstep steps have been recorded."""
        return self._steps_recorded

    def update(
        self,
        decisions: np.ndarray,
        actions: np.ndarray,
        map_users: UserChunkMap | None = None,
    ) -> None:
        """Fold one lockstep step of ``(trials, users)`` decisions/actions.

        Mirrors ``T`` independent :meth:`DefaultRateFilter.update` calls:
        offers accumulate the 0/1 decisions, repayments the actions of
        offered users.  Inputs are trusted 0/1 float arrays (the batched
        engine produces them); only shapes are validated here.  The fold
        is elementwise, so ``map_users`` may split it over user chunks on
        several threads (the default folds every user on this thread).
        """
        shape = (self._num_trials, self._num_users)
        if decisions.shape != shape or actions.shape != shape:
            raise ValueError(
                f"decisions and actions must both have shape {shape}"
            )

        def fold(users: slice) -> None:
            offers = self._offers[:, users]
            repayments = self._repayments[:, users]
            offered = decisions[:, users]
            offers += offered
            repayments += actions[:, users] * offered

        (map_users or whole_population)(fold)
        self._steps_recorded += 1

    def user_rates(
        self,
        out: np.ndarray | None = None,
        map_users: UserChunkMap | None = None,
    ) -> np.ndarray:
        """Return the stacked ``ADR_i(k)`` matrix, one row per trial.

        Row-wise bit-identical to :meth:`DefaultRateTracker.user_rates`:
        never-offered users report the prior rate, everyone else the exact
        ``1 - repayments / offers`` ratio.  ``out``, when given, receives
        the matrix; ``map_users`` is as in :meth:`update`.
        """
        rates = (
            np.empty((self._num_trials, self._num_users), dtype=float)
            if out is None
            else out
        )

        def fold(users: slice) -> None:
            user_default_rates(
                self._offers[:, users],
                self._repayments[:, users],
                self._prior_rate,
                out=rates[:, users],
            )

        (map_users or whole_population)(fold)
        return rates

    def portfolio_rates(self) -> np.ndarray:
        """Return the pooled default rate of each trial's offers so far."""
        rates = np.empty(self._num_trials, dtype=float)
        for trial in range(self._num_trials):
            # Per-row contiguous sums reproduce the per-trial tracker's
            # reduction order exactly (same length, same layout).
            total_offers = float(self._offers[trial].sum())
            if total_offers == 0:
                rates[trial] = self._prior_rate
            else:
                rates[trial] = float(
                    1.0 - self._repayments[trial].sum() / total_offers
                )
        return rates

    def tracker_for_trial(self, trial: int) -> DefaultRateTracker:
        """Return trial ``trial``'s state as a standalone tracker."""
        if not 0 <= trial < self._num_trials:
            raise ValueError("trial index out of range")
        return DefaultRateTracker.from_state(
            {
                "num_users": self._num_users,
                "prior_rate": self._prior_rate,
                "offers": self._offers[trial].copy(),
                "repayments": self._repayments[trial].copy(),
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


class ExponentialMovingAverageFilter:
    """Per-user exponentially weighted moving average of the actions.

    A forgetting filter: ``ema <- (1 - alpha) * ema + alpha * action``.  With
    ``alpha`` close to one it tracks recent behaviour; close to zero it
    approaches the cumulative filter's long memory.
    """

    def __init__(self, num_users: int, alpha: float = 0.3, initial_value: float = 0.0) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        self._ema = np.full(num_users, float(initial_value))
        self._alpha = float(alpha)
        self._num_users = num_users

    def observation(self) -> Observation:
        """Return the current per-user exponential averages."""
        return {"average_action": self._ema.copy(), "aggregate": float(self._ema.mean())}

    def update(
        self, decisions: np.ndarray, actions: np.ndarray, k: int
    ) -> Observation:
        """Fold in one step of actions."""
        array = np.asarray(actions, dtype=float).ravel()
        if array.shape != (self._num_users,):
            raise ValueError("actions must have one entry per user")
        self._ema = (1.0 - self._alpha) * self._ema + self._alpha * array
        return self.observation()


class IntegralFilter:
    """Accumulating (integral-action) filter: the ergodicity-breaking case.

    The filter integrates the gap between the aggregate action and a target:
    ``integral <- integral + (mean(actions) - target)``.  Section VI of the
    paper (following Fioravanti et al. 2019) highlights that feedback with
    integral action can destroy the ergodic properties of the closed loop;
    the ablation benchmark demonstrates the effect with this filter.
    """

    def __init__(self, target: float = 0.0, gain: float = 1.0) -> None:
        self._target = float(target)
        self._gain = float(gain)
        self._integral = 0.0

    @property
    def integral(self) -> float:
        """Return the accumulated error."""
        return self._integral

    def observation(self) -> Observation:
        """Return the integral state."""
        return {"integral": self._integral}

    def update(
        self, decisions: np.ndarray, actions: np.ndarray, k: int
    ) -> Observation:
        """Accumulate the gap between the aggregate action and the target."""
        array = np.asarray(actions, dtype=float).ravel()
        if array.size == 0:
            raise ValueError("actions must be non-empty")
        self._integral += self._gain * (float(array.mean()) - self._target)
        return self.observation()


class AnomalyClippingFilter:
    """Wrapper that clips extreme actions before passing them to another filter.

    The paper's Section III notes the filter "may accumulate the data, for
    instance, before filtering out anomalies"; this wrapper implements the
    anomaly step by clipping actions to ``[lower, upper]`` before delegating.
    """

    def __init__(self, inner: LoopFilter, lower: float, upper: float) -> None:
        if lower > upper:
            raise ValueError("lower must not exceed upper")
        self._inner = inner
        self._lower = float(lower)
        self._upper = float(upper)

    @property
    def inner(self) -> LoopFilter:
        """Return the wrapped filter."""
        return self._inner

    def observation(self) -> Observation:
        """Return the wrapped filter's observation."""
        return self._inner.observation()

    def update(
        self, decisions: np.ndarray, actions: np.ndarray, k: int
    ) -> Observation:
        """Clip the actions and delegate to the wrapped filter."""
        clipped = np.clip(np.asarray(actions, dtype=float), self._lower, self._upper)
        return self._inner.update(decisions, clipped, k)
