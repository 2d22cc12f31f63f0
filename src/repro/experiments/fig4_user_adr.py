"""Experiment E-F4: user-wise average default rates (Figure 4).

The paper's Figure 4 overlays all ``5 x 1000`` user-wise series
``ADR_i(k)`` (coloured by race) and observes that they dwindle towards a
similar level.  The reproduction collects the same stack of series and
summarises its dispersion over time: the cross-user spread and standard
deviation at the start and at the end of the simulation.

The driver runs end-to-end in both history modes.  In
``history_mode="full"`` the raw ``(trials * users, steps)`` stack is
available as before.  In ``history_mode="aggregate"`` the stack is never
materialised — the summary statistics are instead assembled from the
streaming per-step moments (sum, sum of squares, min, max of
``ADR_i(k)``), which keeps a million-user figure inside ``O(users)``
memory.  The group-level series (``group_mean_series``) and the cross-user
spreads are bit-identical between the modes; the pooled standard deviation
uses the one-pass moment formula in aggregate mode and therefore agrees
with the full-history two-pass ``np.std`` to floating-point reassociation
error (the equivalence suite pins both statements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.data.census import Race
from repro.experiments.config import CaseStudyConfig
from repro.experiments.reporting import format_series_table
from repro.experiments.runner import ExperimentResult, run_experiment

__all__ = ["Fig4Result", "fig4_user_adr"]


@dataclass(frozen=True)
class Fig4Result:
    """Reproduction of Figure 4.

    Attributes
    ----------
    years:
        Calendar years of the series.
    user_series:
        All user-wise ADR series stacked as ``(trials * users, steps)``,
        or ``None`` when the experiment ran in aggregate mode.
    user_races:
        The race label of each stacked series (``None`` in aggregate mode).
    num_series:
        Number of user series behind the summary (trials times users).
    group_mean_series:
        Per race, the across-trial mean of ``ADR_s(k)`` — the group-level
        view of the same stack, bit-identical between history modes.
    mean_series:
        Mean of ``ADR_i(k)`` over all users and trials, per year.
    dispersion_series:
        Cross-user standard deviation of ``ADR_i(k)`` at each year.
    initial_spread, final_spread:
        Cross-user max-min spread at the first post-warm-up year and at the
        final year (bit-identical between history modes).
    """

    years: Tuple[int, ...]
    user_series: np.ndarray | None
    user_races: np.ndarray | None
    num_series: int
    group_mean_series: Dict[Race, np.ndarray]
    mean_series: np.ndarray
    dispersion_series: np.ndarray
    initial_spread: float
    final_spread: float

    def summary(self) -> str:
        """Return the per-year dispersion as a plain-text table."""
        table = format_series_table(
            list(self.years),
            {
                "cross-user std of ADR_i(k)": self.dispersion_series,
                "mean ADR_i(k)": self.mean_series,
            },
            index_name="year",
        )
        return (
            f"{self.num_series} user-wise series\n{table}\n\n"
            f"cross-user spread: initial {self.initial_spread:.4f} "
            f"-> final {self.final_spread:.4f}"
        )


def _full_history_result(experiment: ExperimentResult, initial_index: int) -> Fig4Result:
    """Assemble the figure from the materialised user-series stack."""
    stacked = experiment.stacked_user_series()
    races = experiment.stacked_user_races()
    return Fig4Result(
        years=experiment.years,
        user_series=stacked,
        user_races=races,
        num_series=int(stacked.shape[0]),
        group_mean_series=experiment.group_mean_series(),
        mean_series=stacked.mean(axis=0),
        dispersion_series=stacked.std(axis=0),
        initial_spread=float(stacked[:, initial_index].max() - stacked[:, initial_index].min()),
        final_spread=float(stacked[:, -1].max() - stacked[:, -1].min()),
    )


def _aggregate_result(experiment: ExperimentResult, initial_index: int) -> Fig4Result:
    """Assemble the figure from streaming per-step moments (no user stack).

    The pooled maxima/minima — and hence the spreads — are exact (max over
    the stack equals the max of per-trial maxima); the pooled standard
    deviation uses the one-pass ``E[x^2] - E[x]^2`` formula.
    """
    num_steps = len(experiment.years)
    total_sum = np.zeros(num_steps)
    total_sumsq = np.zeros(num_steps)
    pooled_min = np.full(num_steps, np.inf)
    pooled_max = np.full(num_steps, -np.inf)
    num_series = 0
    for trial in experiment.trials:
        history = trial.history
        total_sum += history.rate_sum_series()
        total_sumsq += history.rate_sumsq_series()
        pooled_min = np.minimum(pooled_min, history.rate_min_series())
        pooled_max = np.maximum(pooled_max, history.rate_max_series())
        num_series += history.num_users
    mean_series = total_sum / num_series
    variance = np.maximum(total_sumsq / num_series - np.square(mean_series), 0.0)
    return Fig4Result(
        years=experiment.years,
        user_series=None,
        user_races=None,
        num_series=num_series,
        group_mean_series=experiment.group_mean_series(),
        mean_series=mean_series,
        dispersion_series=np.sqrt(variance),
        initial_spread=float(pooled_max[initial_index] - pooled_min[initial_index]),
        final_spread=float(pooled_max[-1] - pooled_min[-1]),
    )


def fig4_user_adr(
    config: CaseStudyConfig | None = None,
    result: ExperimentResult | None = None,
) -> Fig4Result:
    """Reproduce Figure 4 (optionally reusing an existing experiment run)."""
    experiment = result or run_experiment(config or CaseStudyConfig())
    if not experiment.trials:
        raise ValueError(
            "fig4_user_adr needs the per-trial results (user stacks or "
            "streaming moments); rerun with keep_trials=True"
        )
    warm_up = experiment.config.warm_up_rounds
    initial_index = min(warm_up, len(experiment.years) - 1)
    if experiment.history_mode == "aggregate":
        return _aggregate_result(experiment, initial_index)
    return _full_history_result(experiment, initial_index)
