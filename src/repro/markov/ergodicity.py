"""Ergodicity diagnostics for Markov systems.

The paper's guarantee (Section VI) is: when the directed graph of the Markov
system is strongly connected an invariant measure exists, and when the
adjacency matrix is additionally *primitive* the invariant measure is
attractive and the system is uniquely ergodic.  This module provides the
graph-theoretic checks (strong connectivity, aperiodicity, primitivity), an
average-contractivity estimate, and a single :func:`check_ergodicity` entry
point that rolls them into an :class:`ErgodicityReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from repro.markov.system import MarkovSystem
from repro.utils.rng import spawn_generator

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "is_strongly_connected",
    "is_aperiodic",
    "is_primitive",
    "average_contraction_factor",
    "ErgodicityReport",
    "check_ergodicity",
]


def _as_digraph(adjacency: np.ndarray) -> nx.DiGraph:
    # networkx is imported where a graph is built, so importing the package
    # does not load it.
    import networkx as nx

    matrix = np.asarray(adjacency, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(matrix.shape[0]))
    rows, cols = np.nonzero(matrix > 0)
    graph.add_edges_from(zip(rows.tolist(), cols.tolist()))
    return graph


def is_strongly_connected(adjacency: np.ndarray) -> bool:
    """Return whether the directed graph of ``adjacency`` is strongly connected.

    This is the paper's condition for the *existence* of an invariant measure
    of the closed loop.
    """
    import networkx as nx

    graph = _as_digraph(adjacency)
    if graph.number_of_nodes() == 1:
        return True
    return nx.is_strongly_connected(graph)


def is_aperiodic(adjacency: np.ndarray) -> bool:
    """Return whether the directed graph of ``adjacency`` is aperiodic.

    For a graph that is not strongly connected the period is assessed on its
    recurrent parts: every strongly connected component containing a cycle
    must itself be aperiodic.  A graph with no cycles at all is reported as
    not aperiodic (it has no recurrent behaviour to speak of).
    """
    import networkx as nx

    graph = _as_digraph(adjacency)
    if graph.number_of_nodes() == 1:
        # A single vertex is aperiodic iff it has a self-loop.
        return bool(np.asarray(adjacency, dtype=float)[0, 0] > 0)
    if nx.is_strongly_connected(graph):
        return nx.is_aperiodic(graph)
    components = [
        graph.subgraph(component).copy()
        for component in nx.strongly_connected_components(graph)
    ]
    cyclic = [component for component in components if component.number_of_edges() > 0]
    if not cyclic:
        return False
    return all(nx.is_aperiodic(component) for component in cyclic)


def is_primitive(adjacency: np.ndarray) -> bool:
    """Return whether ``adjacency`` is a primitive non-negative matrix.

    A non-negative square matrix is primitive when some power of it is
    entrywise positive; equivalently, when its directed graph is strongly
    connected *and* aperiodic.  Primitivity is the paper's condition for the
    invariant measure to be attractive (unique ergodicity).
    """
    matrix = np.asarray(adjacency, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if np.any(matrix < 0):
        raise ValueError("adjacency must be non-negative")
    return is_strongly_connected(matrix) and is_aperiodic(matrix)


def average_contraction_factor(
    system: MarkovSystem,
    num_pairs: int = 200,
    state_dimension: int = 1,
    state_scale: float = 1.0,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Estimate the system's average contraction factor by sampling pairs.

    Random pairs of states are drawn uniformly from a centred cube of side
    ``2 * state_scale``; for each pair the average-contractivity ratio is
    computed and the worst ratio is returned.  A value below one suggests
    (but does not prove) that the system satisfies Werner's average
    contractivity condition on the sampled region.
    """
    if num_pairs <= 0:
        raise ValueError("num_pairs must be positive")
    generator = spawn_generator(rng)
    pairs: list[Tuple[np.ndarray, np.ndarray]] = []
    attempts = 0
    while len(pairs) < num_pairs and attempts < 50 * num_pairs:
        attempts += 1
        x = (generator.random(state_dimension) * 2.0 - 1.0) * state_scale
        y = (generator.random(state_dimension) * 2.0 - 1.0) * state_scale
        if system.vertex_of(x) == system.vertex_of(y):
            pairs.append((x, y))
    if not pairs:
        raise ValueError("could not sample state pairs within a single partition cell")
    return system.average_contractivity(pairs)


@dataclass(frozen=True)
class ErgodicityReport:
    """Summary of the ergodicity diagnostics of a Markov system.

    Attributes
    ----------
    strongly_connected:
        Whether the underlying directed graph is strongly connected
        (existence of an invariant measure).
    aperiodic:
        Whether the graph is aperiodic.
    primitive:
        Whether the adjacency matrix is primitive (attractive invariant
        measure, unique ergodicity).
    contraction_factor:
        Sampled worst-case average contraction factor (``None`` when the
        estimate was not requested).
    """

    strongly_connected: bool
    aperiodic: bool
    primitive: bool
    contraction_factor: float | None

    @property
    def invariant_measure_exists(self) -> bool:
        """Return the paper's existence conclusion."""
        return self.strongly_connected

    @property
    def uniquely_ergodic(self) -> bool:
        """Return the paper's unique-ergodicity conclusion."""
        return self.primitive

    def summary(self) -> str:
        """Return a one-paragraph human-readable summary."""
        lines = [
            f"strongly connected: {self.strongly_connected}",
            f"aperiodic: {self.aperiodic}",
            f"primitive: {self.primitive}",
        ]
        if self.contraction_factor is not None:
            lines.append(f"sampled average contraction factor: {self.contraction_factor:.4f}")
        lines.append(
            "conclusion: "
            + (
                "uniquely ergodic (attractive invariant measure)"
                if self.uniquely_ergodic
                else "invariant measure exists"
                if self.invariant_measure_exists
                else "no ergodicity guarantee"
            )
        )
        return "\n".join(lines)


def check_ergodicity(
    system: MarkovSystem,
    *,
    estimate_contraction: bool = True,
    num_pairs: int = 200,
    state_dimension: int = 1,
    state_scale: float = 1.0,
    rng: int | np.random.Generator | None = None,
) -> ErgodicityReport:
    """Run the paper's ergodicity checklist on ``system``.

    The graph conditions (strong connectivity, aperiodicity, primitivity)
    are exact; the contraction factor is a sampled estimate controlled by
    ``num_pairs`` / ``state_dimension`` / ``state_scale``.
    """
    adjacency = system.adjacency_matrix()
    contraction = None
    if estimate_contraction:
        contraction = average_contraction_factor(
            system,
            num_pairs=num_pairs,
            state_dimension=state_dimension,
            state_scale=state_scale,
            rng=rng,
        )
    return ErgodicityReport(
        strongly_connected=is_strongly_connected(adjacency),
        aperiodic=is_aperiodic(adjacency),
        primitive=is_primitive(adjacency),
        contraction_factor=contraction,
    )
