"""The Gaussian conditional-independence repayment model of equation (11).

Given the affordability state ``x_i(k)`` and the credit decision
``pi(k, i)``:

* if no mortgage is offered, or the state is non-positive (income cannot
  cover living cost plus interest), the repayment action is 0;
* otherwise the repayment is Bernoulli with success probability
  ``Phi(sensitivity * x_i(k))`` where ``Phi`` is the standard normal CDF and
  the paper uses sensitivity 5.

The model follows the Gaussian conditional-independence (Vasicek-style)
framework cited by the paper: conditionally on the systematic factor
(here summarised by the affordability state) repayments are independent
across users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from repro.utils.rng import spawn_generator
from repro.utils.validation import require_positive

__all__ = ["GaussianRepaymentModel"]


@dataclass(frozen=True)
class GaussianRepaymentModel:
    """Bernoulli repayment with probit link on the affordability state.

    Attributes
    ----------
    sensitivity:
        Slope applied to the affordability state inside the normal CDF
        (paper: 5).
    """

    sensitivity: float = 5.0

    def __post_init__(self) -> None:
        require_positive(self.sensitivity, "sensitivity")

    def repayment_probability(
        self,
        affordability: Sequence[float] | np.ndarray | float,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``P(repay)`` for each affordability state.

        States at or below zero repay with probability zero, per the first
        branch of equation (11).

        The probit link is evaluated through :func:`scipy.special.ndtr` —
        the exact C kernel ``scipy.stats.norm.cdf`` dispatches to, minus the
        ``rv_continuous`` argument-checking machinery that dominates the
        call at per-shard sizes.  The replacement is bit-identical (pinned
        by a regression test and the engine goldens) and preserves shape:
        any input dimensionality is supported, so the trial-batched engine
        can evaluate a whole ``(trials, users)`` block in one call.
        ``out``, when given, receives the probabilities; it may be the
        ``affordability`` array itself.
        """
        states = np.atleast_1d(np.asarray(affordability, dtype=float))
        nonpositive = states <= 0.0
        probabilities = np.multiply(self.sensitivity, states, out=out)
        ndtr(probabilities, out=probabilities)
        np.copyto(probabilities, 0.0, where=nonpositive)
        return probabilities

    def sample_repayments(
        self,
        affordability: Sequence[float] | np.ndarray,
        decisions: Sequence[int] | np.ndarray,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Sample the repayment actions ``y_i(k)`` of equation (11).

        Parameters
        ----------
        affordability:
            Per-user affordability states ``x_i(k)``.
        decisions:
            Per-user credit decisions ``pi(k, i)`` (1 = mortgage offered).
        rng:
            Seed or generator.

        Returns
        -------
        numpy.ndarray
            0/1 repayment actions; a user with no mortgage, or with a
            non-positive state, never repays.
        """
        generator = spawn_generator(rng)
        states = np.atleast_1d(np.asarray(affordability, dtype=float))
        offered = np.atleast_1d(np.asarray(decisions, dtype=float))
        if states.shape != offered.shape:
            raise ValueError("affordability and decisions must align")
        probabilities = self.repayment_probability(states)
        draws = generator.random(states.shape)
        repayments = (draws < probabilities).astype(int)
        repayments[offered == 0] = 0
        return repayments

    def expected_default_rate(
        self, affordability: Sequence[float] | np.ndarray
    ) -> float:
        """Return the expected default rate of an offered portfolio.

        Defaults are "offered but not repaid", so the expectation is
        ``1 - mean(P(repay))`` over the supplied states.
        """
        probabilities = self.repayment_probability(affordability)
        if probabilities.size == 0:
            raise ValueError("affordability must be non-empty")
        return float(1.0 - probabilities.mean())
