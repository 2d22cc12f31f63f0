"""Experiment E-T1: the scorecard of Table I.

Two artefacts are produced: the paper's hand-written card (history points
−8.17, income points +5.77) together with its worked example (income $50K,
average default rate 0.1, score 4.953), and a card actually trained on the
warm-up years of the closed loop — the same data the paper's first yearly
scorecard is fitted on — so the sign pattern of the learned points can be
compared with the hand-written one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.credit.lender import Lender
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_trial
from repro.scoring.scorecard import Scorecard, paper_table1_scorecard

__all__ = ["Table1Result", "table1_scorecard_result"]


@dataclass(frozen=True)
class Table1Result:
    """Reproduction of Table I.

    Attributes
    ----------
    paper_scorecard:
        The card with the paper's published points.
    worked_example_score:
        Score of the paper's worked example (income $50K, ADR 0.1); the
        paper reports 4.953.
    trained_scorecard:
        A card trained on the warm-up years of the simulated closed loop
        (``None`` when training was skipped).
    trained_history_points, trained_income_points:
        The trained card's points for the default-rate and income-code
        factors (``nan`` when training was skipped).
    """

    paper_scorecard: Scorecard
    worked_example_score: float
    trained_scorecard: Scorecard | None
    trained_history_points: float
    trained_income_points: float

    def summary(self) -> str:
        """Return a plain-text rendering of both cards."""
        lines = ["Table I (paper points)", self.paper_scorecard.table(), ""]
        lines.append(
            f"worked example (income $50K, ADR 0.1): score = {self.worked_example_score:.3f}"
        )
        if self.trained_scorecard is not None:
            lines.extend(
                ["", "Scorecard trained in the closed loop", self.trained_scorecard.table()]
            )
        return "\n".join(lines)


def table1_scorecard_result(
    config: CaseStudyConfig | None = None, train: bool = True
) -> Table1Result:
    """Reproduce Table I.

    Parameters
    ----------
    config:
        Case-study configuration used for the trained card (defaults to a
        scaled-down single-trial configuration so the call stays cheap).
    train:
        Whether to also train a card on the simulated warm-up data.
    """
    paper_card = paper_table1_scorecard()
    example_score = paper_card.score({"average_default_rate": 0.1, "income": 50.0})
    trained_card: Scorecard | None = None
    history_points = float("nan")
    income_points = float("nan")
    if train:
        run_config = config or CaseStudyConfig(num_users=400, num_trials=1)
        trial = run_trial(run_config, trial_index=0)
        # Pool the loop's accumulated training data: for every year after the
        # first, the features are that year's income and the average default
        # rate carried in from the previous year, and the label is that
        # year's repayment action.  Following the paper's equation (11)
        # literally, a user who is not offered a mortgage contributes
        # ``y_i(k) = 0``; no offered-only restriction is applied here, which
        # keeps the fitted points stable across seeds.
        incomes_list = []
        rates_list = []
        labels_list = []
        for step in range(1, trial.history.num_steps):
            record = trial.history.records[step]
            incomes_list.append(np.asarray(record.public_features["income"], dtype=float))
            rates_list.append(trial.require_user_default_rates()[step - 1])
            labels_list.append(np.asarray(record.actions, dtype=float))
        lender = Lender(cutoff=run_config.cutoff, warm_up_rounds=0)
        lender.retrain(
            np.concatenate(incomes_list),
            np.concatenate(rates_list),
            np.concatenate(labels_list),
        )
        trained_card = lender.scorecard
        points = {factor.name: factor.points for factor in trained_card.factors}
        history_points = float(points["average_default_rate"])
        income_points = float(points["income_code"])
    return Table1Result(
        paper_scorecard=paper_card,
        worked_example_score=float(example_score),
        trained_scorecard=trained_card,
        trained_history_points=history_points,
        trained_income_points=income_points,
    )
