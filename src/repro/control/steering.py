"""Equal-impact steering: a proportional controller on the impact gap.

The retraining scorecard punishes users with a poor average default rate;
once denied, such a user's rate is frozen and can never recover, so the
loop's long-run averages need not equalise.  The steering policy adds to
each user's score a boost proportional to how far their historical default
rate exceeds the population average,

    score'_i = score_i + gain * max(0, ADR_i - mean ADR),

so the users the plain scorecard would permanently exclude keep receiving
occasional offers, their histories keep evolving, and the loop is steered
towards equal impact.  The boost uses only the filtered feedback signal —
never the protected attribute.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.credit.lender import Lender
from repro.scoring.cutoff import CutoffPolicy
from repro.utils.validation import require_non_negative

__all__ = ["ImpactSteeringPolicy"]


class ImpactSteeringPolicy:
    """Retraining scorecard lender with a proportional equal-impact boost.

    Parameters
    ----------
    gain:
        Proportional gain applied to the positive part of the user's
        default-rate deviation from the population mean.  A gain of zero
        reproduces the plain retraining scorecard.
    lender:
        The wrapped retraining lender (defaults to the paper's
        configuration).
    """

    def __init__(self, gain: float = 5.0, lender: Lender | None = None) -> None:
        self._gain = require_non_negative(gain, "gain")
        self._lender = lender or Lender()
        self._cutoff_policy = CutoffPolicy(cutoff=self._lender.cutoff)
        self._last_boost: np.ndarray | None = None

    @property
    def gain(self) -> float:
        """Return the proportional gain."""
        return self._gain

    @property
    def lender(self) -> Lender:
        """Return the wrapped lender."""
        return self._lender

    @property
    def last_boost(self) -> np.ndarray | None:
        """Return the per-user boost applied at the last decision round."""
        return None if self._last_boost is None else self._last_boost.copy()

    def decide(
        self,
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> np.ndarray:
        """Score with the current card, add the impact boost, and decide."""
        incomes = np.asarray(public_features["income"], dtype=float)
        rates = np.asarray(observation["user_default_rates"], dtype=float)
        decision = self._lender.decide(incomes, rates)
        if decision.warm_up:
            self._last_boost = np.zeros(incomes.size)
            return decision.decisions.astype(float)
        boost = self._gain * np.clip(rates - float(rates.mean()), 0.0, None)
        self._last_boost = boost
        boosted_scores = decision.scores + boost
        return self._cutoff_policy.decide(boosted_scores).astype(float)

    def update(
        self,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> None:
        """Retrain the wrapped lender exactly like the plain scorecard system."""
        incomes = np.asarray(public_features["income"], dtype=float)
        rates = np.asarray(observation["user_default_rates"], dtype=float)
        self._lender.retrain(
            incomes,
            rates,
            np.asarray(actions, dtype=float),
            offered=np.asarray(decisions, dtype=float),
        )

