"""Refit probes: the engine refit against the row-level reference.

The regression gate (``test_bench_perf_engine.py::test_bench_suffstats_retrain``)
times both refits on the *same* training set, captured from a real
closed-loop step.  The capture hooks a :class:`CreditScoringSystem`
subclass into a full trial and snapshots the delayed-feedback arrays of
year ~12, where the previous-rate column carries the small-integer-ratio
degeneracy the engine's count table exploits.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple

import numpy as np

from repro.core.ai_system import CreditScoringSystem
from repro.credit.lender import Lender
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_trial
from repro.scoring.logistic import LogisticRegression

from tests.oracle.refit import RowLevelLender

#: The captured retrain inputs: (incomes, previous rates, actions, decisions).
RetrainRows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Step whose delayed feedback is captured (year ~12: rates are well mixed).
CAPTURE_STEP = 12


def capture_retrain_rows(config: CaseStudyConfig) -> RetrainRows:
    """Run one trial and snapshot the refit inputs of ``CAPTURE_STEP``."""
    captured: dict = {}

    class CapturingSystem(CreditScoringSystem):
        def update(self, public_features, decisions, actions, observation, k):
            if k == CAPTURE_STEP:
                captured["rows"] = (
                    np.asarray(public_features["income"], float).copy(),
                    np.asarray(observation["user_default_rates"], float).copy(),
                    np.asarray(actions, float).copy(),
                    np.asarray(decisions, float).copy(),
                )
            super().update(public_features, decisions, actions, observation, k)

    run_trial(
        config,
        trial_index=0,
        policy_factory=lambda config, population: CapturingSystem(
            Lender(cutoff=config.cutoff, warm_up_rounds=config.warm_up_rounds)
        ),
    )
    return captured["rows"]


def _refit(lender: Lender, rows: RetrainRows) -> LogisticRegression:
    incomes, rates, actions, decisions = rows
    lender.retrain(incomes, rates, actions, offered=decisions)
    return lender.export_state()["model"]


def engine_refit(rows: RetrainRows) -> LogisticRegression:
    """Refit as the loop does (``Lender.retrain``); return the fitted model."""
    return _refit(Lender(), rows)


def row_level_refit(rows: RetrainRows) -> LogisticRegression:
    """Refit with the row-level reference (``RowLevelLender.retrain``)."""
    return _refit(RowLevelLender(), rows)


def median_seconds(
    refit: Callable[[RetrainRows], LogisticRegression],
    rows: RetrainRows,
    repeats: int = 9,
) -> float:
    """Return the median seconds of one ``refit(rows)``, after a warm-up."""
    refit(rows)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        refit(rows)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))
