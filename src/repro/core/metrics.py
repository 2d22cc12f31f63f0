"""Group metrics computed on closed-loop histories.

Per-group approval rates, the conventional single-shot quantity that the
paper contrasts with its long-run equal-impact notion, plus helpers for
turning a ``(steps, users)`` series into per-group series.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

__all__ = [
    "approval_rates_by_group",
    "group_average_series",
    "group_approval_series",
]


def approval_rates_by_group(
    decisions: np.ndarray, groups: Mapping[object, np.ndarray]
) -> Dict[object, float]:
    """Return each group's overall approval rate.

    ``decisions`` is a ``(steps, users)`` 0/1 matrix; the rate pools all
    steps.  Empty groups report ``nan``.
    """
    matrix = np.asarray(decisions, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("decisions must be a (steps, users) matrix")
    rates: Dict[object, float] = {}
    for key, indices in groups.items():
        rates[key] = float(matrix[:, indices].mean()) if indices.size else float("nan")
    return rates


def group_average_series(
    per_user_series: np.ndarray, groups: Mapping[object, np.ndarray]
) -> Dict[object, np.ndarray]:
    """Average a ``(steps, users)`` series within each group, per step.

    This is how the paper's race-wise series ``ADR_s(k)`` are produced from
    the user-wise series.
    """
    series = np.asarray(per_user_series, dtype=float)
    if series.ndim != 2:
        raise ValueError("per_user_series must be a (steps, users) matrix")
    result: Dict[object, np.ndarray] = {}
    for key, indices in groups.items():
        if indices.size == 0:
            result[key] = np.full(series.shape[0], np.nan)
        else:
            result[key] = series[:, indices].mean(axis=1)
    return result


def group_approval_series(
    decisions: np.ndarray, groups: Mapping[object, np.ndarray]
) -> Dict[object, np.ndarray]:
    """Return each group's per-step approval rate as a ``(steps,)`` series.

    Unlike :func:`approval_rates_by_group`, which pools all steps into one
    number per group, this keeps the time axis — the group-level analogue
    of :meth:`repro.core.history.SimulationHistory.approval_rates`.  The
    streaming engine maintains the same series online
    (:meth:`repro.core.streaming.AggregateHistory.group_approval_series`),
    bit-identical to this batch formulation.
    """
    matrix = np.asarray(decisions, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("decisions must be a (steps, users) matrix")
    return group_average_series(matrix, groups)
