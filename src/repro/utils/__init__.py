"""Shared utilities: random-number management, validation, and statistics.

These helpers are deliberately small and dependency-free (beyond numpy) so
that every substrate package (:mod:`repro.markov`, :mod:`repro.credit`,
:mod:`repro.data`, ...) can rely on the same conventions for seeding,
argument validation, and time-series statistics.
"""

from repro.utils.rng import derive_seed, spawn_generator
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    require_probability,
    require_probability_vector,
)
from repro.utils.stats import (
    cesaro_averages,
    gini_coefficient,
    max_pairwise_gap,
)

__all__ = [
    "derive_seed",
    "spawn_generator",
    "require_in_range",
    "require_non_negative",
    "require_positive",
    "require_probability",
    "require_probability_vector",
    "cesaro_averages",
    "gini_coefficient",
    "max_pairwise_gap",
]
