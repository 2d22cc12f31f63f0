"""Markov operators and their adjoints.

The appendix of the paper defines, for a Markov system, the operator

    P f(x) = sum_e p_e(x) * f(w_e(x))

on bounded measurable functions, and its adjoint ``P*`` on probability
measures; an invariant measure satisfies ``P* mu = mu``.  For systems whose
state space is (or can be discretised to) a finite set, both objects reduce
to a stochastic matrix and its left eigenvector, which this module computes
exactly.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.markov.system import MarkovSystem
from repro.utils.validation import require_probability_vector

__all__ = ["transition_matrix", "stationary_distribution"]


def transition_matrix(
    states: Sequence[np.ndarray],
    system: MarkovSystem,
    locate: Callable[[np.ndarray], int] | None = None,
) -> np.ndarray:
    """Build the stochastic matrix of a Markov system on a finite state set.

    Parameters
    ----------
    states:
        The finite list of states the system actually visits.  Every image
        ``w_e(state)`` must be (numerically) one of these states; ``locate``
        may override the default nearest-state matching.
    system:
        The Markov system to discretise.
    locate:
        Optional callable mapping an image state to its index in ``states``.

    Returns
    -------
    numpy.ndarray
        A row-stochastic matrix ``T`` with ``T[a, b]`` the probability of
        moving from ``states[a]`` to ``states[b]`` in one step.
    """
    state_array = [np.atleast_1d(np.asarray(state, dtype=float)) for state in states]
    if not state_array:
        raise ValueError("states must be non-empty")

    def default_locate(image: np.ndarray) -> int:
        distances = [float(np.linalg.norm(image - candidate)) for candidate in state_array]
        best = int(np.argmin(distances))
        if distances[best] > 1e-6:
            raise ValueError(
                "image state is not close to any listed state; "
                "provide an explicit locate callable"
            )
        return best

    locate_fn = locate or default_locate
    size = len(state_array)
    matrix = np.zeros((size, size), dtype=float)
    for row, state in enumerate(state_array):
        vertex = system.vertex_of(state)
        edges = system.outgoing_edges(vertex)
        probabilities = system.edge_probabilities(state)
        for edge, probability in zip(edges, probabilities):
            image = np.atleast_1d(np.asarray(edge.state_map(state), dtype=float))
            matrix[row, locate_fn(image)] += probability
    return matrix


def stationary_distribution(matrix: np.ndarray, *, atol: float = 1e-10) -> np.ndarray:
    """Return a stationary distribution of a row-stochastic matrix.

    The distribution solves ``pi T = pi`` and is computed from the left
    eigenvector of eigenvalue one.  When several stationary distributions
    exist (a reducible chain) the returned vector is one of them; uniqueness
    should be checked separately via
    :func:`repro.markov.ergodicity.is_primitive`.
    """
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise ValueError("matrix must be square")
    row_sums = array.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ValueError("matrix rows must sum to one")
    eigenvalues, eigenvectors = np.linalg.eig(array.T)
    index = int(np.argmin(np.abs(eigenvalues - 1.0)))
    if abs(eigenvalues[index] - 1.0) > 1e-6:
        raise ValueError("matrix has no eigenvalue 1; it is not stochastic")
    vector = np.real(eigenvectors[:, index])
    vector = np.abs(vector)
    distribution = vector / vector.sum()
    # Polish the eigenvector with a few power iterations for numerical hygiene.
    for _ in range(50):
        refreshed = distribution @ array
        if np.linalg.norm(refreshed - distribution, ord=1) < atol:
            distribution = refreshed
            break
        distribution = refreshed
    return require_probability_vector(distribution, "stationary distribution", atol=1e-6)
