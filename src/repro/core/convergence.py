"""Convergence diagnostics for long-run (equal-impact) averages.

Definition 3 of the paper is a statement about the limit of a time average.
On a finite simulation one can only *estimate* that limit, so the natural
deliverable is an estimate with an uncertainty: the batch-means method
splits the series into contiguous batches, treats the batch means as
approximately independent draws, and produces a standard error and a
confidence interval for the long-run average that remain valid under the
serial correlation a closed loop induces.

Two entry points are provided:

* :func:`estimate_long_run_average` — one series, one confidence interval;
* :func:`impact_gap_significance` — per-group long-run estimates plus a
  judgement of whether the observed gap between the extreme groups exceeds
  what the combined uncertainty can explain (i.e. whether the data are
  inconsistent with equal impact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np
from scipy.special import stdtrit

from repro.utils.validation import require_in_range

__all__ = [
    "LongRunEstimate",
    "batch_means",
    "estimate_long_run_average",
    "ImpactGapSignificance",
    "impact_gap_significance",
]


@dataclass(frozen=True)
class LongRunEstimate:
    """A long-run average with a batch-means confidence interval.

    Attributes
    ----------
    estimate:
        The time average over the analysed window.
    standard_error:
        Batch-means standard error of the estimate.
    halfwidth:
        Half-width of the confidence interval at the requested level.
    confidence:
        The confidence level the half-width corresponds to.
    num_batches:
        Number of batches used.
    """

    estimate: float
    standard_error: float
    halfwidth: float
    confidence: float
    num_batches: int

    @property
    def interval(self) -> Tuple[float, float]:
        """Return the confidence interval as a ``(low, high)`` pair."""
        return (self.estimate - self.halfwidth, self.estimate + self.halfwidth)

    def contains(self, value: float) -> bool:
        """Return whether ``value`` lies inside the confidence interval."""
        low, high = self.interval
        return low <= value <= high


def batch_means(series: Sequence[float], num_batches: int) -> np.ndarray:
    """Split ``series`` into contiguous batches and return each batch's mean.

    Any remainder that does not fill a whole batch is dropped from the
    front, so the most recent observations (the ones closest to the
    stationary regime) are always used.
    """
    array = np.asarray(series, dtype=float).ravel()
    if num_batches < 2:
        raise ValueError("num_batches must be at least 2")
    if array.size < num_batches:
        raise ValueError("series must contain at least one observation per batch")
    batch_size = array.size // num_batches
    trimmed = array[array.size - batch_size * num_batches :]
    return trimmed.reshape(num_batches, batch_size).mean(axis=1)


def estimate_long_run_average(
    series: Sequence[float],
    num_batches: int = 10,
    confidence: float = 0.95,
    burn_in: float = 0.2,
) -> LongRunEstimate:
    """Estimate the long-run average of a serially correlated series.

    Parameters
    ----------
    series:
        The per-step observations (e.g. one user's actions ``y_i(k)``).
    num_batches:
        Number of batch-means batches.
    confidence:
        Confidence level of the reported interval.
    burn_in:
        Fraction of the series discarded as transient before batching.
    """
    require_in_range(confidence, "confidence", 0.0, 1.0, inclusive=False)
    require_in_range(burn_in, "burn_in", 0.0, 1.0)
    array = np.asarray(series, dtype=float).ravel()
    if array.size == 0:
        raise ValueError("series must be non-empty")
    start = int(array.size * burn_in)
    window = array[start:]
    means = batch_means(window, num_batches)
    estimate = float(window.mean())
    standard_error = float(means.std(ddof=1) / np.sqrt(means.size))
    # stdtrit is the Student-t quantile kernel that scipy.stats' t.ppf
    # evaluates (same bits), without importing scipy.stats.
    t_critical = float(stdtrit(means.size - 1, 0.5 + confidence / 2.0))
    return LongRunEstimate(
        estimate=estimate,
        standard_error=standard_error,
        halfwidth=t_critical * standard_error,
        confidence=confidence,
        num_batches=int(means.size),
    )


@dataclass(frozen=True)
class ImpactGapSignificance:
    """Per-group long-run estimates and the significance of their gap.

    Attributes
    ----------
    group_estimates:
        One :class:`LongRunEstimate` per group.
    gap:
        Difference between the largest and smallest group estimates.
    gap_uncertainty:
        Combined half-width of the two extreme groups' intervals.
    """

    group_estimates: Dict[object, LongRunEstimate]
    gap: float
    gap_uncertainty: float

    @property
    def gap_is_significant(self) -> bool:
        """Return whether the observed gap exceeds its combined uncertainty.

        A significant gap means the simulation is inconsistent with equal
        impact; an insignificant gap means the data cannot distinguish the
        groups' long-run averages.
        """
        return self.gap > self.gap_uncertainty


def impact_gap_significance(
    outcomes: np.ndarray,
    groups: Mapping[object, np.ndarray],
    num_batches: int = 8,
    confidence: float = 0.95,
    burn_in: float = 0.2,
) -> ImpactGapSignificance:
    """Judge whether per-group long-run averages differ beyond their uncertainty.

    Parameters
    ----------
    outcomes:
        ``(steps, users)`` matrix of per-step outcomes ``y_i(k)``.
    groups:
        Mapping from group key to user-index array; empty groups are skipped.
    num_batches, confidence, burn_in:
        Passed to :func:`estimate_long_run_average` on each group's per-step
        mean series.
    """
    matrix = np.asarray(outcomes, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError("outcomes must be a non-empty (steps, users) matrix")
    estimates: Dict[object, LongRunEstimate] = {}
    for key, indices in groups.items():
        if indices.size == 0:
            continue
        group_series = matrix[:, indices].mean(axis=1)
        estimates[key] = estimate_long_run_average(
            group_series, num_batches=num_batches, confidence=confidence, burn_in=burn_in
        )
    if len(estimates) < 2:
        raise ValueError("need at least two non-empty groups")
    ordered = sorted(estimates.values(), key=lambda item: item.estimate)
    lowest, highest = ordered[0], ordered[-1]
    return ImpactGapSignificance(
        group_estimates=estimates,
        gap=float(highest.estimate - lowest.estimate),
        gap_uncertainty=float(highest.halfwidth + lowest.halfwidth),
    )
