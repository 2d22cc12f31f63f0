"""Tests for repro.markov.system (Markov systems)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.markov.maps import AffineMap
from repro.markov.system import MarkovEdge, MarkovSystem


def two_map_contractive_system() -> MarkovSystem:
    """Single-vertex system: x -> x/2 or x -> x/2 + 1/2 with equal probability."""
    return MarkovSystem(
        num_vertices=1,
        edges=[
            MarkovEdge(0, 0, AffineMap.scalar(0.5, 0.0), 0.5, label="low"),
            MarkovEdge(0, 0, AffineMap.scalar(0.5, 0.5), 0.5, label="high"),
        ],
    )


def two_vertex_cycle_system() -> MarkovSystem:
    """Two vertices connected in a cycle (periodic, not aperiodic)."""
    return MarkovSystem(
        num_vertices=2,
        edges=[
            MarkovEdge(0, 1, AffineMap.scalar(0.5, 1.0), 1.0),
            MarkovEdge(1, 0, AffineMap.scalar(0.5, -1.0), 1.0),
        ],
        vertex_of_state=lambda state: 0 if state[0] <= 0 else 1,
    )


class TestConstruction:
    def test_rejects_empty_edge_list(self):
        with pytest.raises(ValueError):
            MarkovSystem(num_vertices=1, edges=[])

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            MarkovSystem(
                num_vertices=1,
                edges=[MarkovEdge(0, 3, AffineMap.scalar(0.5, 0.0), 1.0)],
            )

    def test_rejects_vertex_without_outgoing_edge(self):
        with pytest.raises(ValueError, match="no outgoing edge"):
            MarkovSystem(
                num_vertices=2,
                edges=[MarkovEdge(0, 0, AffineMap.scalar(0.5, 0.0), 1.0)],
            )

    def test_rejects_non_positive_vertex_count(self):
        with pytest.raises(ValueError):
            MarkovSystem(num_vertices=0, edges=[])


class TestStructure:
    def test_keeps_its_vertices_and_edges_in_order(self):
        system = two_vertex_cycle_system()
        assert system.num_vertices == 2
        assert [(edge.source, edge.target) for edge in system.edges] == [(0, 1), (1, 0)]

    def test_outgoing_edges_are_the_edges_leaving_a_vertex(self):
        system = MarkovSystem(
            num_vertices=2,
            edges=[
                MarkovEdge(0, 1, AffineMap.scalar(0.5, 0.0), 0.5, label="a"),
                MarkovEdge(1, 0, AffineMap.scalar(0.5, 0.0), 1.0, label="b"),
                MarkovEdge(0, 0, AffineMap.scalar(0.5, 0.0), 0.5, label="c"),
            ],
        )
        assert [edge.label for edge in system.outgoing_edges(0)] == ["a", "c"]
        assert [edge.label for edge in system.outgoing_edges(1)] == ["b"]

    def test_edge_probability_is_a_constant_or_a_function_of_the_state(self):
        identity = AffineMap.scalar(1.0, 0.0)
        assert MarkovEdge(0, 0, identity, 0.3).probability_at(np.array([5.0])) == 0.3
        halved = MarkovEdge(0, 0, identity, lambda x: float(x[0]) / 2.0)
        assert halved.probability_at(np.array([0.8])) == pytest.approx(0.4)


class TestAdjacencyAndProbabilities:
    def test_adjacency_matrix_of_single_vertex_self_loops(self):
        system = two_map_contractive_system()
        np.testing.assert_array_equal(system.adjacency_matrix(), [[1.0]])

    def test_adjacency_matrix_of_cycle(self):
        system = two_vertex_cycle_system()
        np.testing.assert_array_equal(
            system.adjacency_matrix(), [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_edge_probabilities_sum_to_one(self, rng):
        system = two_map_contractive_system()
        probabilities = system.edge_probabilities(np.array([0.3]))
        assert probabilities.sum() == pytest.approx(1.0)

    def test_place_dependent_probabilities(self):
        system = MarkovSystem(
            num_vertices=1,
            edges=[
                MarkovEdge(0, 0, AffineMap.scalar(0.5, 0.0), lambda x: float(x[0])),
                MarkovEdge(0, 0, AffineMap.scalar(0.5, 0.5), lambda x: 1.0 - float(x[0])),
            ],
        )
        probabilities = system.edge_probabilities(np.array([0.25]))
        np.testing.assert_allclose(probabilities, [0.25, 0.75])

    def test_negative_probability_is_rejected(self):
        system = MarkovSystem(
            num_vertices=1,
            edges=[
                MarkovEdge(0, 0, AffineMap.scalar(0.5, 0.0), lambda x: -0.5),
                MarkovEdge(0, 0, AffineMap.scalar(0.5, 0.5), lambda x: 1.5),
            ],
        )
        with pytest.raises(ValueError):
            system.edge_probabilities(np.array([0.0]))

    def test_all_zero_probabilities_are_rejected(self):
        system = MarkovSystem(
            num_vertices=1,
            edges=[MarkovEdge(0, 0, AffineMap.scalar(0.5, 0.0), lambda x: 0.0)],
        )
        with pytest.raises(ValueError, match="no admissible edge"):
            system.edge_probabilities(np.array([0.0]))


class TestSimulation:
    def test_step_returns_state_and_edge(self, rng):
        system = two_map_contractive_system()
        next_state, edge = system.step(np.array([1.0]), rng)
        assert next_state.shape == (1,)
        assert edge.label in {"low", "high"}

    def test_orbit_has_requested_length(self, rng):
        system = two_map_contractive_system()
        orbit = system.orbit(np.array([0.0]), 50, rng)
        assert orbit.shape == (51, 1)

    def test_orbit_is_reproducible_with_seed(self):
        system = two_map_contractive_system()
        a = system.orbit(np.array([0.0]), 30, 5)
        b = system.orbit(np.array([0.0]), 30, 5)
        np.testing.assert_array_equal(a, b)

    def test_orbit_of_contractive_system_stays_bounded(self):
        system = two_map_contractive_system()
        orbit = system.orbit(np.array([10.0]), 200, 3)
        assert np.all(np.abs(orbit[50:]) <= 1.5)

    def test_negative_orbit_length_is_rejected(self):
        system = two_map_contractive_system()
        with pytest.raises(ValueError):
            system.orbit(np.array([0.0]), -1)

    def test_cycle_system_alternates_vertices(self):
        system = two_vertex_cycle_system()
        state = np.array([-1.0])
        vertices = [system.vertex_of(state)]
        for _ in range(5):
            state, _ = system.step(state, 1)
            vertices.append(system.vertex_of(state))
        assert vertices[:4] == [0, 1, 0, 1]


class TestAverageContractivity:
    def test_contractive_system_has_factor_below_one(self):
        system = two_map_contractive_system()
        pairs = [(np.array([x]), np.array([y])) for x, y in [(0.0, 1.0), (-2.0, 3.0)]]
        assert system.average_contractivity(pairs) == pytest.approx(0.5)

    def test_expanding_system_has_factor_above_one(self):
        system = MarkovSystem(
            num_vertices=1,
            edges=[MarkovEdge(0, 0, AffineMap.scalar(2.0, 0.0), 1.0)],
        )
        pairs = [(np.array([0.0]), np.array([1.0]))]
        assert system.average_contractivity(pairs) == pytest.approx(2.0)

    def test_identical_pairs_are_ignored(self):
        system = two_map_contractive_system()
        assert system.average_contractivity([(np.array([1.0]), np.array([1.0]))]) == 0.0

    def test_pairs_in_different_cells_are_rejected(self):
        system = two_vertex_cycle_system()
        with pytest.raises(ValueError):
            system.average_contractivity([(np.array([-1.0]), np.array([1.0]))])
