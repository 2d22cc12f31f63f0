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

The closed loop reads only the Bernoulli outcome ``u < P(repay)`` of a
uniform ``u``, never ``P`` itself, so
:meth:`GaussianRepaymentModel.repays` decides that comparison as a
filtered predicate (Shewchuk, "Adaptive Precision Floating-Point
Arithmetic", 1997): a certified bracket of ``P`` from a table decides
almost every user, and only a user whose uniform falls inside its
bracket has its probit evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from repro.utils.rng import spawn_generator
from repro.utils.validation import require_positive

__all__ = ["GaussianRepaymentModel"]


@dataclass(frozen=True)
class _ProbitBrackets:
    """Certified brackets of ``ndtr`` over the cells of a grid in ``z``.

    Cell ``j`` spans ``z`` in ``[j / cells_per_unit, (j + 1) /
    cells_per_unit]``; ``lower[j]`` is ``ndtr`` at its left node minus
    the margin and ``upper[j]`` ``ndtr`` at its right node plus the
    margin.  The last cell also brackets every ``z`` beyond the grid,
    since ``ndtr`` is 1.0 at the grid's end.
    """

    cells_per_unit: float
    lower: np.ndarray
    upper: np.ndarray


def _probit_brackets(cells_per_unit: float = 1024) -> _ProbitBrackets:
    """Tabulate ``ndtr`` at the nodes ``j / cells_per_unit`` from 0 to 9.

    ``cells_per_unit`` must be a power of two (``0.25`` is one), so that
    scaling a state by ``sensitivity * cells_per_unit`` locates
    ``sensitivity * x`` in its cell exactly; the last node is the first
    at or past 9, where ``ndtr`` is 1.0.  The margin of 1e-9 widens every
    bracket against the rounding of ``ndtr``, which is not monotone in
    its last bits: it came within 1.6e-16 of the normal CDF on 2,000
    random points of ``[0, 9]`` (against 200-bit ``mpmath``), took no
    step down among 10**7 evenly spaced nodes on ``[0, 5]``, and steps
    down by at most 2.2e-16 between consecutive doubles (near 0.5, 1 and
    2), so the margin is over a million times either.
    """
    if not cells_per_unit > 0 or math.frexp(cells_per_unit)[0] != 0.5:
        raise ValueError("cells_per_unit must be a power of two")
    cells = math.ceil(9 * cells_per_unit)
    nodes = ndtr(np.arange(cells + 1) / cells_per_unit)
    lower = nodes[:-1] - 1e-9
    upper = nodes[1:] + 1e-9
    lower.flags.writeable = upper.flags.writeable = False
    return _ProbitBrackets(cells_per_unit, lower, upper)


#: The table :meth:`GaussianRepaymentModel.repays` reads: 9,216 cells of
#: 1/1024 over ``z`` in ``[0, 9]`` (``ndtr`` is 1.0 from about 8.3 on),
#: 144 KiB built once at import, so forked workers share it.
_BRACKETS = _probit_brackets()


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

    def repays(
        self,
        uniforms: np.ndarray,
        states: np.ndarray,
        out: np.ndarray | None = None,
        work: Tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Return ``uniforms < repayment_probability(states)``, elementwise.

        For uniforms in ``[0, 1)`` the result is exactly that comparison,
        though the probit is evaluated only for the few users a table
        cannot decide:

        * a state that is not positive (``-0.0``, the ``-1e6`` floor,
          ``-inf``) or is NaN never repays.  Positivity is read from the
          state itself: ``sensitivity * x`` may round to 0 while
          ``x > 0``, and then ``P`` is ``ndtr(0) = 0.5``;
        * a positive state's ``z = sensitivity * x`` lies in cell
          ``floor(1024 * z)`` of the module's table (the last cell for
          ``z`` past it), whose bracket ``[lower, upper]`` holds
          ``ndtr(z)``, since the table's margin (1e-9) is over a million
          times the rounding of ``ndtr``.  The cell is exact: scaling by
          a power of two rounds ``1024 * x * sensitivity`` to ``1024 *
          z`` (a state small enough to lose bits to it is in cell 0
          either way);
        * so ``u < lower`` repays, as the definition decides, after one
          table read and one comparison.  Only a positive state with
          ``u >= lower`` (under 1% of the paper's users) has its cell's
          ``upper`` read: ``u >= upper`` does not repay, and a user with
          ``lower <= u < upper`` (about 9 in a million) has its ``P``
          evaluated by :meth:`repayment_probability` and compared.

        ``out`` (boolean, the states' shape) receives the decisions; it
        must overlap neither input.  ``work`` is two distinct C-contiguous
        float arrays of the states' shape, overlapping nothing else, which
        the call overwrites; without them it allocates its own.  States
        and uniforms are only read, and may be any views.
        """
        states = np.atleast_1d(np.asarray(states, dtype=float))
        uniforms = np.atleast_1d(np.asarray(uniforms, dtype=float))
        shape = states.shape
        if uniforms.shape != shape:
            raise ValueError("uniforms and states must align")
        if out is None:
            out = np.empty(shape, dtype=bool)
        bounds, cells = work if work is not None else (np.empty(shape), np.empty(shape))
        if any(w.shape != shape or w.dtype != np.float64 for w in (bounds, cells)):
            raise ValueError("each work array must be float, of the states' shape")
        brackets = _BRACKETS
        # The cell index: fmax sends NaN and negatives to 0, fmin caps
        # +inf and z past the grid, so every cast is in range and no
        # state warns.
        with np.errstate(over="ignore"):
            np.multiply(states, self.sensitivity * brackets.cells_per_unit, out=bounds)
        np.fmax(bounds, 0.0, out=bounds)
        np.fmin(bounds, brackets.lower.size - 1, out=bounds)
        index = cells.view(np.int64)
        np.copyto(index, bounds, casting="unsafe")
        # Every index is in range; "clip" only spares "raise"'s buffering.
        np.take(brackets.lower, index, out=bounds, mode="clip")
        np.less(uniforms, bounds, out=out)
        # The bracket bottoms are spent; their bytes hold a boolean mask:
        # the positive states, then those not below their bracket.
        pending = bounds.reshape(-1).view(np.bool_)[: states.size]
        mask = pending.reshape(shape)
        np.greater(states, 0.0, out=mask)
        np.logical_and(out, mask, out=out)
        np.greater(mask, out, out=mask)
        flat = np.flatnonzero(pending)
        if flat.size:  # keep those below their bracket's top
            tops = brackets.upper[index.reshape(-1)[flat]]
            flat = flat[uniforms[np.unravel_index(flat, shape)] < tops]
        if flat.size:
            where = np.unravel_index(flat, shape)
            with np.errstate(over="ignore"):  # s * x past the largest double
                probabilities = self.repayment_probability(states[where])
            out[where] = uniforms[where] < probabilities
        return out

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
