"""The row-level reference refit: IRLS over one row per offered user.

The engine's lender fits its scorecard on a count table of the training
rows (:meth:`repro.credit.lender.Lender.retrain`).  The reference fits the
same penalised likelihood the naive way: it builds the row-level design
matrix and hands it to :meth:`repro.scoring.logistic.LogisticRegression.fit`
unweighted.  Tests compare the engine refit against it.
"""

from __future__ import annotations

import numpy as np

from repro.credit.lender import Lender
from repro.scoring.logistic import LogisticRegression


class RowLevelLender(Lender):
    """A lender whose refit runs the IRLS on the row-level design.

    Its offered-mask handling is the engine's: a mask selecting fewer than
    2 users keeps the previous card, or raises when there is none.  Being
    a subclass, it sends the lockstep kernel down its generic per-trial
    path, which calls this ``retrain``.
    """

    def retrain(
        self, incomes, previous_default_rates, repayments, offered=None
    ) -> None:
        features = self.feature_builder.design_matrix(incomes, previous_default_rates)
        labels = np.asarray(repayments, dtype=float).ravel()
        if offered is not None:
            mask = np.asarray(offered, dtype=float).ravel() == 1.0
            if mask.shape[0] != features.shape[0]:
                raise ValueError("offered mask must have one entry per user")
            if mask.sum() < 2:
                self._degenerate_offered_mask()
                return
            features = features[mask]
            labels = labels[mask]
        model = LogisticRegression(l2_penalty=self._l2_penalty)
        model.fit(features, labels)
        self._install_model(model)
