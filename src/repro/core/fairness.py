"""Equal treatment and equal impact: Definitions 1-4 made executable.

The paper's definitions are idealised (they speak of exact constants and of
limits as ``k -> infinity``); on a finite simulated history they become
statistical assessments:

* **Equal treatment** (Definitions 1-2) concerns a single pass through the
  loop: the same information is offered to every user in the class, and the
  response statistics are a user-independent constant.  On a history we
  check (a) whether the decisions were identical across users at each step
  and (b) how far apart the users' (or groups') mean responses are.
* **Equal impact** (Definitions 3-4) concerns the long run: each user's
  Cesàro average converges to a constant ``r_i`` independent of initial
  conditions, and all the ``r_i`` coincide.  On a history we estimate
  ``r_i`` from the tail of the running average, report the largest pairwise
  gap across users and across groups, and report a convergence indicator
  (the dispersion of the tail of each running average).

Both assessments accept an optional grouping so the "conditioned on
non-protected attributes" variants (Definitions 2 and 4) are the same call
with a different grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.utils.stats import cesaro_averages, max_pairwise_gap

__all__ = [
    "TreatmentAssessment",
    "ImpactAssessment",
    "equal_treatment_assessment",
    "equal_impact_assessment",
]


@dataclass(frozen=True)
class TreatmentAssessment:
    """Assessment of equal treatment on a simulated history.

    Attributes
    ----------
    uniform_signal:
        Whether every user received the same decision at every step (the
        "same information pi(k) to all users" clause).
    per_step_signal_gap:
        For each step, the largest gap between any two users' decisions
        (zero when the signal is uniform).
    mean_responses:
        The per-user (or per-group) mean response over the assessed window.
    max_response_gap:
        Largest pairwise gap between those mean responses; Definition 1
        requires it to vanish.
    tolerance:
        The tolerance used by :attr:`satisfied`.
    """

    uniform_signal: bool
    per_step_signal_gap: np.ndarray
    mean_responses: Dict[object, float]
    max_response_gap: float
    tolerance: float

    @property
    def satisfied(self) -> bool:
        """Return whether the history is consistent with equal treatment."""
        return self.uniform_signal and self.max_response_gap <= self.tolerance


@dataclass(frozen=True)
class ImpactAssessment:
    """Assessment of equal impact on a simulated history.

    Attributes
    ----------
    user_limits:
        Estimated long-run average ``r_i`` per user (tail of the running
        average of the assessed outcome).
    group_limits:
        Estimated long-run average per group (``nan`` for empty groups).
    max_user_gap:
        Largest pairwise gap between user limits.
    max_group_gap:
        Largest pairwise gap between group limits (0 when fewer than two
        non-empty groups).
    max_tail_dispersion:
        Largest tail dispersion of any user's running average — a
        convergence indicator: small values mean the Cesàro averages have
        settled.
    tolerance:
        The tolerance used by :attr:`satisfied`.
    """

    user_limits: np.ndarray
    group_limits: Dict[object, float]
    max_user_gap: float
    max_group_gap: float
    max_tail_dispersion: float
    tolerance: float

    @property
    def satisfied(self) -> bool:
        """Return whether the history is consistent with equal impact.

        The criterion is the conditioned one when a grouping was supplied
        (all group limits coincide within tolerance) and the unconditional
        one otherwise (all user limits coincide within tolerance).
        """
        if len(self.group_limits) > 1:
            return self.max_group_gap <= self.tolerance
        return self.max_user_gap <= self.tolerance

    @property
    def converged(self) -> bool:
        """Return whether the running averages appear to have settled."""
        return self.max_tail_dispersion <= max(self.tolerance, 1e-12)


def equal_treatment_assessment(
    decisions: np.ndarray,
    responses: np.ndarray,
    groups: Mapping[object, np.ndarray] | None = None,
    tolerance: float = 0.05,
) -> TreatmentAssessment:
    """Assess equal treatment (Definition 1, or 2 when ``groups`` is given).

    Parameters
    ----------
    decisions:
        ``(steps, users)`` matrix of the information/decisions each user
        received.
    responses:
        ``(steps, users)`` matrix of the users' responses ``y_i(k)``.
    groups:
        Optional mapping from group key to user-index array; when given the
        response constants are compared across groups rather than across
        individual users (the conditioned definition).
    tolerance:
        Largest acceptable gap between the compared response constants.
    """
    decisions_matrix = np.asarray(decisions, dtype=float)
    responses_matrix = np.asarray(responses, dtype=float)
    if decisions_matrix.shape != responses_matrix.shape or decisions_matrix.ndim != 2:
        raise ValueError("decisions and responses must be equal-shape (steps, users)")
    signal_gap = decisions_matrix.max(axis=1) - decisions_matrix.min(axis=1)
    uniform = bool(np.all(signal_gap == 0.0))
    if groups:
        means: Dict[object, float] = {}
        for key, indices in groups.items():
            if indices.size:
                means[key] = float(responses_matrix[:, indices].mean())
        gap = max_pairwise_gap(list(means.values())) if len(means) > 1 else 0.0
    else:
        per_user = responses_matrix.mean(axis=0)
        means = {index: float(value) for index, value in enumerate(per_user)}
        gap = max_pairwise_gap(per_user)
    return TreatmentAssessment(
        uniform_signal=uniform,
        per_step_signal_gap=signal_gap,
        mean_responses=means,
        max_response_gap=float(gap),
        tolerance=float(tolerance),
    )


def equal_impact_assessment(
    outcomes: np.ndarray,
    groups: Mapping[object, np.ndarray] | None = None,
    tolerance: float = 0.05,
    tail_fraction: float = 0.25,
    already_averaged: bool = False,
) -> ImpactAssessment:
    """Assess equal impact (Definition 3, or 4 when ``groups`` is given).

    Parameters
    ----------
    outcomes:
        ``(steps, users)`` matrix of the per-step outcome ``y_i(k)`` — or,
        when ``already_averaged`` is true, of an already-cumulative series
        such as ``ADR_i(k)``.
    groups:
        Optional mapping from group key to user-index array for the
        conditioned definition.
    tolerance:
        Largest acceptable gap between the estimated limits.
    tail_fraction:
        Fraction of the final steps used to estimate each limit ``r_i`` and
        its convergence.
    already_averaged:
        Set to true when ``outcomes`` is already a running average (then the
        Cesàro step is skipped).
    """
    matrix = np.asarray(outcomes, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError("outcomes must be a non-empty (steps, users) matrix")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    running = matrix if already_averaged else cesaro_averages(matrix, axis=0)
    tail_length = max(1, int(round(running.shape[0] * tail_fraction)))
    tail = running[-tail_length:, :]
    user_limits = tail.mean(axis=0)
    # Column-wise standard deviation of the shared tail window, one array
    # operation over the (tail, users) block.  The dispersion is a
    # tolerance-gated convergence diagnostic, not a bit-exact recorded series.
    dispersions = np.std(tail, axis=0)
    group_limits: Dict[object, float] = {}
    if groups:
        for key, indices in groups.items():
            group_limits[key] = (
                float(user_limits[indices].mean()) if indices.size else float("nan")
            )
        finite = [value for value in group_limits.values() if np.isfinite(value)]
        group_gap = max_pairwise_gap(finite) if len(finite) > 1 else 0.0
    else:
        group_gap = 0.0
    return ImpactAssessment(
        user_limits=user_limits,
        group_limits=group_limits,
        max_user_gap=float(max_pairwise_gap(user_limits)),
        max_group_gap=float(group_gap),
        max_tail_dispersion=float(dispersions.max()),
        tolerance=float(tolerance),
    )
