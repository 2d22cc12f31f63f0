"""Empirical invariant measures and unique-ergodicity diagnostics.

Equal impact asks for a single invariant measure to which the closed loop is
statistically drawn regardless of initial conditions.  For systems we can
only simulate, this module estimates that measure empirically from long
orbits, measures the 1-D Wasserstein distance between empirical measures,
and checks unique ergodicity numerically by comparing orbits started from
well-separated initial conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.utils.rng import spawn_generator

__all__ = [
    "EmpiricalMeasure",
    "estimate_invariant_measure",
    "wasserstein_distance_1d",
    "unique_ergodicity_diagnostic",
]


@dataclass(frozen=True)
class EmpiricalMeasure:
    """An empirical probability measure given by a cloud of samples.

    Attributes
    ----------
    samples:
        Array of shape ``(n, d)`` of samples (1-D inputs are promoted).
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        array = np.asarray(self.samples, dtype=float)
        if array.ndim == 1:
            array = array[:, None]
        if array.ndim != 2 or array.shape[0] == 0:
            raise ValueError("samples must be a non-empty (n, d) array")
        object.__setattr__(self, "samples", array)

    @property
    def size(self) -> int:
        """Return the number of samples."""
        return int(self.samples.shape[0])

    @property
    def dimension(self) -> int:
        """Return the dimension of the samples."""
        return int(self.samples.shape[1])

    def mean(self) -> np.ndarray:
        """Return the empirical mean."""
        return self.samples.mean(axis=0)

    def expectation(self, function: Callable[[np.ndarray], float]) -> float:
        """Return the empirical expectation of ``function``."""
        return float(np.mean([function(sample) for sample in self.samples]))

    def quantile(self, q: float, component: int = 0) -> float:
        """Return the empirical ``q``-quantile of one component."""
        return float(np.quantile(self.samples[:, component], q))


def estimate_invariant_measure(
    orbit: np.ndarray,
    burn_in: float = 0.2,
) -> EmpiricalMeasure:
    """Estimate the invariant measure from a simulated orbit.

    The first ``burn_in`` fraction of the orbit is discarded as transient;
    the remaining states form the empirical measure.
    """
    if not 0 <= burn_in < 1:
        raise ValueError("burn_in must lie in [0, 1)")
    array = np.asarray(orbit, dtype=float)
    if array.ndim == 1:
        array = array[:, None]
    if array.shape[0] < 2:
        raise ValueError("orbit must contain at least two states")
    start = int(array.shape[0] * burn_in)
    return EmpiricalMeasure(samples=array[start:])


def wasserstein_distance_1d(
    first: Sequence[float] | np.ndarray, second: Sequence[float] | np.ndarray
) -> float:
    """Return the 1-Wasserstein distance between two 1-D sample sets.

    Computed as the L1 distance between empirical quantile functions on a
    common grid, which for equal-size samples reduces to the mean absolute
    difference of sorted samples.
    """
    a = np.sort(np.asarray(first, dtype=float).ravel())
    b = np.sort(np.asarray(second, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("sample sets must be non-empty")
    grid = np.linspace(0.0, 1.0, max(a.size, b.size), endpoint=False) + 0.5 / max(
        a.size, b.size
    )
    qa = np.quantile(a, grid)
    qb = np.quantile(b, grid)
    return float(np.mean(np.abs(qa - qb)))


@dataclass(frozen=True)
class UniqueErgodicityDiagnostic:
    """Result of the numerical unique-ergodicity check.

    Attributes
    ----------
    wasserstein_distances:
        Pairwise 1-D Wasserstein distances between empirical measures
        obtained from different initial conditions (first component only for
        multi-dimensional states).
    max_distance:
        The largest pairwise distance.
    tolerance:
        The tolerance against which ``max_distance`` was compared.
    """

    wasserstein_distances: Tuple[float, ...]
    max_distance: float
    tolerance: float

    @property
    def consistent_with_unique_ergodicity(self) -> bool:
        """Return whether all initial conditions produced the same measure."""
        return self.max_distance <= self.tolerance


def unique_ergodicity_diagnostic(
    simulate_orbit: Callable[[np.ndarray, int, np.random.Generator], np.ndarray],
    initial_states: Sequence[np.ndarray],
    orbit_length: int = 2000,
    burn_in: float = 0.3,
    tolerance: float = 0.1,
    rng: int | np.random.Generator | None = None,
) -> UniqueErgodicityDiagnostic:
    """Check numerically that orbits forget their initial condition.

    Parameters
    ----------
    simulate_orbit:
        Callable ``(initial_state, length, generator) -> orbit array``;
        typically the bound method ``system.orbit``.
    initial_states:
        At least two well-separated initial conditions.
    orbit_length, burn_in:
        Length of each orbit and the fraction discarded as transient.
    tolerance:
        Maximum allowed pairwise Wasserstein distance between the empirical
        measures for the diagnostic to pass.
    rng:
        Seed or generator; each orbit receives an independent sub-stream.
    """
    if len(initial_states) < 2:
        raise ValueError("need at least two initial states")
    generator = spawn_generator(rng)
    measures = []
    for initial_state in initial_states:
        orbit = simulate_orbit(
            np.atleast_1d(np.asarray(initial_state, dtype=float)),
            orbit_length,
            np.random.default_rng(generator.integers(0, 2**63 - 1)),
        )
        measures.append(estimate_invariant_measure(orbit, burn_in=burn_in))
    distances = []
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            distances.append(
                wasserstein_distance_1d(
                    measures[i].samples[:, 0], measures[j].samples[:, 0]
                )
            )
    max_distance = max(distances)
    return UniqueErgodicityDiagnostic(
        wasserstein_distances=tuple(distances),
        max_distance=max_distance,
        tolerance=tolerance,
    )
