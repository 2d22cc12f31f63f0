"""Borrower private state: the affordability measure of equation (10).

The paper defines the private state of user ``i`` at time ``k`` as

    x_i(k) = (z_i(k) - living_cost - income_multiple * rate * z_i(k)) / z_i(k),

the fraction of income left after paying the basic living cost and the
annual mortgage interest.  The state is confidential to the user (the lender
only observes the income code and the repayment history) and drives the
repayment probability.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.credit.mortgage import MortgageTerms

__all__ = ["affordability_state"]


def affordability_state(
    incomes: Sequence[float] | np.ndarray | float,
    terms: MortgageTerms,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Return the state ``x_i(k)`` of equation (10) for each income.

    Incomes are in thousands of dollars.  Non-positive incomes, and
    positive incomes so small that the obligation ratio overflows to
    ``-inf``, get a large negative floor instead (the user cannot cover any
    obligation), keeping downstream arithmetic finite and raising no
    floating-point error under any caller's ``np.errstate``.  ``out``,
    when given, receives the states (it must not overlap ``incomes``).

    The obligation is built in the output array, with the operations of
    :meth:`~repro.credit.mortgage.MortgageTerms.annual_obligation` in its
    order, so every state has its bits: ``max(z, 0)``, times the income
    multiple, times the rate, plus the living cost.  A fixed principal is
    the same path with a multiple of 0 and the living cost plus the fixed
    interest (``0 + c`` is ``c``; an infinite income gives NaN either way).
    """
    array = np.atleast_1d(np.asarray(incomes, dtype=float))
    if terms.fixed_principal is None:
        multiple, base = terms.income_multiple, terms.living_cost
    else:
        multiple = 0.0
        base = terms.living_cost + terms.fixed_principal * terms.annual_rate
    # Every income goes through the same elementwise ops, with no boolean
    # gather or scatter; non-positive incomes enter the obligation as 0 (the
    # principal rejects negative incomes) and their states are overwritten.
    with np.errstate(all="ignore"):
        states = np.maximum(array, 0.0, out=out)
        states *= multiple
        states *= terms.annual_rate
        states += base
        np.subtract(array, states, out=states)
        states /= array
    floored = np.greater(array, 0.0)
    np.logical_not(floored, out=floored)
    floored |= states == -np.inf
    np.copyto(states, -1e6, where=floored)
    return states
