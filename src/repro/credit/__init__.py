"""Credit-market substrate for the paper's case study.

This package implements the environment side of the credit-scoring loop:

* :class:`MortgageTerms` — product parameters (income multiple 3.5x, annual
  rate 2.16%, basic living cost $10K);
* :func:`affordability_state` — the paper's private state ``x_i(k)`` of
  equation (10): the fraction of income left after living costs and
  mortgage interest;
* :class:`GaussianRepaymentModel` — the Gaussian conditional-independence
  repayment model of equation (11);
* :class:`DefaultRateTracker` — the average default rates ``ADR_i(k)`` and
  ``ADR_s(k)`` of equation (12);
* :class:`Lender` — the retraining lender: fits a logistic model each year
  on (income code, previous ADR), converts it into a scorecard, and decides
  via the 0.4 cut-off.
"""

from repro.credit.mortgage import MortgageTerms
from repro.credit.borrower import affordability_state
from repro.credit.repayment import GaussianRepaymentModel
from repro.credit.default_rates import DefaultRateTracker
from repro.credit.lender import Lender, LenderDecision

__all__ = [
    "MortgageTerms",
    "affordability_state",
    "GaussianRepaymentModel",
    "DefaultRateTracker",
    "Lender",
    "LenderDecision",
]
