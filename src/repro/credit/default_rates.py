"""Average default rates: the filter of the credit-scoring loop.

Equation (12) of the paper defines, for each user ``i`` and each race group
``s``, the *average default rate* at time ``k``:

    ADR_i(k) = P(y_i = 0 | mortgage offered)  estimated from history
             = 1 - (number of repayments up to k) / (number of offers up to k),

    ADR_s(k) = mean of ADR_i(k) over the users of race s.

The tracker below accumulates offers and repayments step by step, exposes
both the per-user and the per-group series, and therefore plays the role of
the "filter" box of Figure 1 — the aggregated, historical statistic the AI
system is retrained on.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from repro.data.census import Race

__all__ = ["DefaultRateTracker", "user_default_rates"]


def user_default_rates(
    offers: np.ndarray,
    repayments: np.ndarray,
    prior_rate: float = 0.0,
) -> np.ndarray:
    """Return ``1 - repayments / offers`` per user, ``prior_rate`` if never offered.

    The one definition of ``ADR_i(k)``: the trackers and filters (the
    lockstep filter through its table of each cell's rate), the full
    history's running rows and the streaming aggregator all call it, so
    every recording mode and layout computes the same bits.  Every entry
    goes through the same unmasked ops (the offer counts are clamped away
    from zero, then never-offered users are overwritten with the prior),
    with no boolean gather or scatter; an offered entry is exactly
    ``1.0 - repayments[i] / offers[i]``.  Works on any shape.
    """
    never_offered = ~(offers > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.maximum(offers, 1e-12)
        np.divide(repayments, rates, out=rates)
        np.subtract(1.0, rates, out=rates)
    np.copyto(rates, prior_rate, where=never_offered)
    return rates


class DefaultRateTracker:
    """Accumulates offers and repayments and reports average default rates.

    Parameters
    ----------
    num_users:
        Number of users tracked.
    prior_rate:
        Default rate reported for a user who has never been offered credit;
        the paper's initialisation (everyone approved in the first two
        years) makes this mostly irrelevant, but a defined value keeps the
        filter total and the retraining features well-defined.
    """

    def __init__(self, num_users: int, prior_rate: float = 0.0) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if not 0.0 <= prior_rate <= 1.0:
            raise ValueError("prior_rate must lie in [0, 1]")
        self._num_users = num_users
        self._prior_rate = float(prior_rate)
        self._offers = np.zeros(num_users, dtype=float)
        self._repayments = np.zeros(num_users, dtype=float)
        self._steps_recorded = 0

    @property
    def num_users(self) -> int:
        """Return the number of tracked users."""
        return self._num_users

    @property
    def steps_recorded(self) -> int:
        """Return how many time steps have been recorded."""
        return self._steps_recorded

    @property
    def prior_rate(self) -> float:
        """Return the rate reported for never-offered users."""
        return self._prior_rate

    @property
    def offers(self) -> np.ndarray:
        """Return the cumulative number of offers per user."""
        return self._offers.copy()

    @property
    def repayments(self) -> np.ndarray:
        """Return the cumulative number of repayments per user."""
        return self._repayments.copy()

    def record(
        self,
        decisions: Sequence[int] | np.ndarray,
        repayments: Sequence[int] | np.ndarray,
    ) -> None:
        """Record one time step of decisions and repayment actions.

        ``decisions`` and ``repayments`` are 0/1 arrays with one entry per
        user; a repayment by a user who was not offered credit is rejected as
        inconsistent.
        """
        offered = np.asarray(decisions, dtype=float).ravel()
        repaid = np.asarray(repayments, dtype=float).ravel()
        if offered.shape != (self._num_users,) or repaid.shape != (self._num_users,):
            raise ValueError("decisions and repayments must have one entry per user")
        if np.any(~np.isin(offered, (0.0, 1.0))) or np.any(~np.isin(repaid, (0.0, 1.0))):
            raise ValueError("decisions and repayments must be 0/1")
        if np.any((repaid == 1.0) & (offered == 0.0)):
            raise ValueError("a user cannot repay a mortgage that was not offered")
        self._offers += offered
        self._repayments += repaid
        self._steps_recorded += 1

    def export_state(self) -> Dict[str, object]:
        """Return a picklable snapshot of the tracker's cumulative state.

        The snapshot contains everything needed to reconstruct the tracker
        with :meth:`from_state` — the hook step snapshots and the lockstep
        kernel's per-trial trackers use.
        """
        return {
            "num_users": self._num_users,
            "prior_rate": self._prior_rate,
            "offers": self._offers.copy(),
            "repayments": self._repayments.copy(),
            "steps_recorded": self._steps_recorded,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "DefaultRateTracker":
        """Rebuild a tracker from an :meth:`export_state` snapshot."""
        tracker = cls(int(state["num_users"]), prior_rate=float(state["prior_rate"]))
        offers = np.asarray(state["offers"], dtype=float).ravel()
        repayments = np.asarray(state["repayments"], dtype=float).ravel()
        if offers.shape != (tracker._num_users,) or repayments.shape != (
            tracker._num_users,
        ):
            raise ValueError("state arrays must have one entry per user")
        tracker._offers = offers.copy()
        tracker._repayments = repayments.copy()
        tracker._steps_recorded = int(state["steps_recorded"])
        return tracker

    def user_rates(self) -> np.ndarray:
        """Return ``ADR_i(k)`` for every user at the current step."""
        return user_default_rates(self._offers, self._repayments, self._prior_rate)

    def group_rates(self, groups: Mapping[Race, np.ndarray]) -> Dict[Race, float]:
        """Return ``ADR_s(k)`` for each group of user indices.

        ``groups`` maps each race to the array of user indices in that group
        (the paper's ``N_s``); groups with no members report ``nan``.
        """
        user_rates = self.user_rates()
        rates: Dict[Race, float] = {}
        for race, indices in groups.items():
            if indices.size == 0:
                rates[race] = float("nan")
            else:
                rates[race] = float(user_rates[indices].mean())
        return rates

    def portfolio_rate(self) -> float:
        """Return the pooled default rate of all offers made so far."""
        total_offers = float(self._offers.sum())
        if total_offers == 0:
            return self._prior_rate
        return float(1.0 - self._repayments.sum() / total_offers)
