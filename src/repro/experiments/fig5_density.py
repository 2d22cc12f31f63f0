"""Experiment E-F5: the density of user-wise default rates (Figure 5).

The paper's Figure 5 erases the race labels and shows, per year, the
density of ``ADR_i(k)`` across all users and trials (darker shades meaning
higher density).  The reproduction histograms the same stack of values on a
fixed binning of [0, 1] per year and reports where the mass concentrates
over time.

The driver runs end-to-end in both history modes.  In
``history_mode="full"`` the histogram is computed from the materialised
``(trials * users, steps)`` stack as before.  In
``history_mode="aggregate"`` the same integer counts arrive from the
per-step histograms the :class:`~repro.core.streaming.AggregateHistory`
accumulates online (fixed [0, 1] binning, one ``np.histogram`` with the
identical edge array per step), pooled across trials by exact integer
addition — so the density matrix, the modal bins and the low-ADR mass are
**bit-identical** between the modes while the aggregate path never
materialises a per-user matrix.  The only constraint is that the binning is
fixed at recording time: an aggregate-mode result can only be rendered at
the history's ``rate_bins`` (the shared default,
:data:`~repro.core.streaming.DEFAULT_RATE_BINS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.streaming import DEFAULT_RATE_BINS
from repro.experiments.config import CaseStudyConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentResult, run_experiment

__all__ = ["Fig5Result", "fig5_density"]


@dataclass(frozen=True)
class Fig5Result:
    """Reproduction of Figure 5.

    Attributes
    ----------
    years:
        Calendar years of the series.
    bin_edges:
        Edges of the ADR bins (shared across years).
    density:
        ``(steps, bins)`` matrix; row ``k`` is the normalised histogram of
        ``ADR_i(k)`` over all users and trials.
    modal_bin_centers:
        Per year, the centre of the bin with the highest density.
    mass_below_010:
        Per year, the share of users with ``ADR_i(k) <= 0.10``.
    """

    years: Tuple[int, ...]
    bin_edges: np.ndarray
    density: np.ndarray
    modal_bin_centers: np.ndarray
    mass_below_010: np.ndarray

    def summary(self) -> str:
        """Return the per-year modal bin and low-ADR mass as a table."""
        rows = [
            [year, float(self.modal_bin_centers[index]), float(self.mass_below_010[index])]
            for index, year in enumerate(self.years)
        ]
        return format_table(
            ["year", "modal ADR bin centre", "share of users with ADR <= 0.10"], rows
        )


def _from_streaming_histograms(
    experiment: ExperimentResult, num_bins: int
) -> Fig5Result:
    """Assemble the figure from the histories' per-step histograms.

    Integer counts pool exactly across trials, so the density rows equal
    the full-history histograms of the concatenated stack bit for bit.
    """
    first = experiment.trials[0].history
    if first.rate_bins != num_bins:
        raise ValueError(
            f"this aggregate-mode experiment recorded {first.rate_bins}-bin "
            f"rate histograms; fig5_density(num_bins={num_bins}) would need "
            'per-user rows — rerun with history_mode="full" or the recorded '
            "binning"
        )
    edges = first.rate_histogram_edges()
    centers = (edges[:-1] + edges[1:]) / 2.0
    num_steps = len(experiment.years)
    counts = np.zeros((num_steps, num_bins), dtype=np.int64)
    low_counts = np.zeros(num_steps, dtype=np.int64)
    num_series = 0
    for trial in experiment.trials:
        history = trial.history
        counts += history.rate_histogram_series()
        low_counts += history.rate_low_count_series()
        num_series += history.num_users
    totals = np.maximum(counts.sum(axis=1), 1)
    density = counts / totals[:, None]
    modal = centers[np.argmax(counts, axis=1)].astype(float)
    low_mass = low_counts / num_series
    return Fig5Result(
        years=experiment.years,
        bin_edges=edges,
        density=density,
        modal_bin_centers=modal,
        mass_below_010=low_mass,
    )


def fig5_density(
    config: CaseStudyConfig | None = None,
    result: ExperimentResult | None = None,
    num_bins: int = DEFAULT_RATE_BINS,
) -> Fig5Result:
    """Reproduce Figure 5 (optionally reusing an existing experiment run).

    Runs in both history modes: ``"full"`` histograms the materialised
    user-series stack, ``"aggregate"`` pools the streaming per-step
    histograms (bit-identical, provided ``num_bins`` matches the recorded
    binning — the shared default does).
    """
    if num_bins < 2:
        raise ValueError("num_bins must be at least 2")
    experiment = result or run_experiment(config or CaseStudyConfig())
    if experiment.history_mode == "aggregate":
        if not experiment.trials:
            raise ValueError(
                "fig5_density needs per-trial histograms; rerun with "
                "keep_trials=True"
            )
        return _from_streaming_histograms(experiment, num_bins)
    stacked = experiment.stacked_user_series()  # (series, steps)
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    num_steps = stacked.shape[1]
    density = np.empty((num_steps, num_bins), dtype=float)
    modal = np.empty(num_steps, dtype=float)
    low_mass = np.empty(num_steps, dtype=float)
    for step in range(num_steps):
        values = stacked[:, step]
        histogram, _ = np.histogram(values, bins=edges)
        total = max(histogram.sum(), 1)
        density[step] = histogram / total
        modal[step] = float(centers[int(np.argmax(histogram))])
        low_mass[step] = float(np.mean(values <= 0.10))
    return Fig5Result(
        years=experiment.years,
        bin_edges=edges,
        density=density,
        modal_bin_centers=modal,
        mass_below_010=low_mass,
    )
