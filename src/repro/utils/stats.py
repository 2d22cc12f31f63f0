"""Time-series statistics used throughout the equal-impact analysis.

The central quantity in the paper is the Cesàro (running time) average

    (1 / (k + 1)) * sum_{j=0..k} y_i(j),

whose convergence to a user-independent constant *is* equal impact
(Definition 3).  The helpers here compute those averages and quantify
how unequal per-user outcomes are.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "cesaro_averages",
    "max_pairwise_gap",
    "gini_coefficient",
]


def cesaro_averages(series: np.ndarray, axis: int = -1) -> np.ndarray:
    """Return Cesàro averages of ``series`` along ``axis``.

    ``series`` may be any array of per-step observations; the result has the
    same shape, with entry ``k`` along ``axis`` equal to the mean of entries
    ``0..k``.
    """
    array = np.asarray(series, dtype=float)
    if array.size == 0:
        raise ValueError("series must be non-empty")
    length = array.shape[axis]
    counts_shape = [1] * array.ndim
    counts_shape[axis] = length
    counts = np.arange(1, length + 1, dtype=float).reshape(counts_shape)
    return np.cumsum(array, axis=axis) / counts


def max_pairwise_gap(values: Sequence[float]) -> float:
    """Return ``max(values) - min(values)``.

    Applied to the vector of per-user long-run averages ``r_i`` this is the
    natural scalar violation measure for equal impact: the definition holds
    exactly when the gap is zero.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    return float(array.max() - array.min())


def gini_coefficient(values: Sequence[float]) -> float:
    """Return the Gini coefficient of a non-negative vector.

    Used as an inequality summary of long-run outcomes across users; zero
    means perfectly equal impact, values near one mean the outcome is
    concentrated on few users.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    if np.any(array < 0):
        raise ValueError("values must be non-negative")
    total = array.sum()
    if total == 0:
        return 0.0
    sorted_values = np.sort(array)
    n = sorted_values.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.sum(ranks * sorted_values) / (n * total)) - (n + 1) / n)
