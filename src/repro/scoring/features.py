"""Feature engineering for the credit-scoring loop.

The paper's retraining step uses exactly two independent variables per user:
the income code ``1_{income >= $15K}`` (the lender only sees the code, not
the income itself) and the user's average default rate at the previous time
step.  :class:`FeatureBuilder` assembles that design matrix and keeps the
column order consistent between training and scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["income_code", "clipped_default_rates", "FeatureBuilder"]


def clipped_default_rates(
    previous_default_rates: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Validate previous average default rates and clip them to ``[0, 1]``.

    Values up to ``1e-9`` outside the interval are tolerated (float noise
    from upstream aggregation) and clipped exactly onto it; anything
    further out raises.  Every retraining route — the row-level design
    matrix, the lender's compressed path and the lockstep kernel's table of
    each filter cell's clipped rate — shares this one definition, so serial
    and batched runs can never disagree on which rates are acceptable.
    """
    rates = np.asarray(previous_default_rates, dtype=float)
    if rates.size and (
        float(rates.min()) < -1e-9 or float(rates.max()) > 1 + 1e-9
    ):
        raise ValueError("previous_default_rates must lie in [0, 1]")
    return np.clip(rates, 0.0, 1.0)


def income_code(incomes: Sequence[float] | np.ndarray, threshold: float = 15.0) -> np.ndarray:
    """Return the 0/1 income code ``1_{income >= threshold}``.

    ``threshold`` is in thousands of dollars; the paper uses $15K, matching
    the lowest CPS bracket boundary.
    """
    array = np.asarray(incomes, dtype=float)
    return (array >= threshold).astype(float)


@dataclass(frozen=True)
class FeatureBuilder:
    """Builds the (income code, previous ADR) design matrix of the paper.

    Attributes
    ----------
    income_threshold:
        Threshold (in $K) of the income code indicator.
    """

    income_threshold: float = 15.0

    #: Column order of the produced design matrix.
    feature_names: Tuple[str, str] = ("income_code", "average_default_rate")

    def design_matrix(
        self,
        incomes: Sequence[float] | np.ndarray,
        previous_default_rates: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Return the ``(n, 2)`` design matrix for ``n`` users.

        Column 0 is the income code, column 1 the previous average default
        rate, matching :attr:`feature_names`.
        """
        codes = income_code(incomes, self.income_threshold)
        rates = np.asarray(previous_default_rates, dtype=float)
        if codes.shape != rates.shape:
            raise ValueError("incomes and previous_default_rates must align")
        return np.column_stack([codes, clipped_default_rates(rates)])
