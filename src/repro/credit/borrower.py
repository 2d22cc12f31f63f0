"""Borrower private state: the affordability measure of equation (10).

The paper defines the private state of user ``i`` at time ``k`` as

    x_i(k) = (z_i(k) - living_cost - income_multiple * rate * z_i(k)) / z_i(k),

the fraction of income left after paying the basic living cost and the
annual mortgage interest.  The state is confidential to the user (the lender
only observes the income code and the repayment history) and drives the
repayment probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.credit.mortgage import MortgageTerms
from repro.data.census import Race

__all__ = ["affordability_state", "BorrowerState"]


def affordability_state(
    incomes: Sequence[float] | np.ndarray | float,
    terms: MortgageTerms,
) -> np.ndarray:
    """Return the state ``x_i(k)`` of equation (10) for each income.

    Incomes are in thousands of dollars.  Non-positive incomes produce a
    state of ``-inf`` replaced by a large negative number (the user cannot
    cover any obligation), keeping downstream arithmetic finite.
    """
    array = np.atleast_1d(np.asarray(incomes, dtype=float))
    # Every income goes through the same elementwise ops, with no boolean
    # gather or scatter; non-positive incomes enter the obligation as 0 (the
    # principal rejects negative incomes) and their states are overwritten.
    obligations = np.asarray(
        terms.annual_obligation(np.maximum(array, 0.0)), dtype=float
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        states = array - obligations
        states /= array
    np.putmask(states, ~(array > 0), -1e6)
    return states


@dataclass(frozen=True)
class BorrowerState:
    """Snapshot of one borrower at one time step.

    Attributes
    ----------
    user_index:
        Index of the user in the population.
    race:
        The user's (protected) race attribute — visible to the analysis but
        never to the lender's model.
    income:
        Annual income in thousands of dollars.
    affordability:
        The private state ``x_i(k)`` of equation (10).
    """

    user_index: int
    race: Race
    income: float
    affordability: float

    @classmethod
    def from_income(
        cls, user_index: int, race: Race, income: float, terms: MortgageTerms
    ) -> "BorrowerState":
        """Build the snapshot from an income and the mortgage terms."""
        return cls(
            user_index=user_index,
            race=race,
            income=float(income),
            affordability=float(affordability_state(income, terms)[0]),
        )

    @property
    def can_cover_obligation(self) -> bool:
        """Return whether income covers living cost plus mortgage interest."""
        return self.affordability > 0
