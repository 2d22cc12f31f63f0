"""Tests for repro.markov.operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.markov.maps import AffineMap, FunctionMap
from repro.markov.operators import stationary_distribution, transition_matrix
from repro.markov.system import MarkovEdge, MarkovSystem


def finite_two_state_system(p_stay: float = 0.7) -> MarkovSystem:
    """A two-state chain on {0, 1}: stay with probability p_stay, flip otherwise."""
    stay = FunctionMap(lambda x: x, name="stay")
    flip = FunctionMap(lambda x: 1.0 - x, name="flip")
    return MarkovSystem(
        num_vertices=2,
        edges=[
            MarkovEdge(0, 0, stay, p_stay),
            MarkovEdge(0, 1, flip, 1.0 - p_stay),
            MarkovEdge(1, 1, stay, p_stay),
            MarkovEdge(1, 0, flip, 1.0 - p_stay),
        ],
        vertex_of_state=lambda state: int(round(float(state[0]))),
    )


class TestTransitionMatrix:
    def test_two_state_chain_matrix(self):
        system = finite_two_state_system(0.7)
        matrix = transition_matrix([np.array([0.0]), np.array([1.0])], system)
        np.testing.assert_allclose(matrix, [[0.7, 0.3], [0.3, 0.7]])

    def test_rows_sum_to_one(self):
        system = finite_two_state_system(0.25)
        matrix = transition_matrix([np.array([0.0]), np.array([1.0])], system)
        np.testing.assert_allclose(matrix.sum(axis=1), [1.0, 1.0])

    def test_unlisted_image_state_is_rejected(self):
        shifted = MarkovSystem(
            num_vertices=1,
            edges=[MarkovEdge(0, 0, AffineMap.scalar(1.0, 0.37), 1.0)],
        )
        with pytest.raises(ValueError):
            transition_matrix([np.array([0.0])], shifted)

    def test_empty_state_list_is_rejected(self):
        system = finite_two_state_system()
        with pytest.raises(ValueError):
            transition_matrix([], system)


class TestStationaryDistribution:
    def test_symmetric_chain_has_uniform_stationary_distribution(self):
        matrix = np.array([[0.7, 0.3], [0.3, 0.7]])
        np.testing.assert_allclose(stationary_distribution(matrix), [0.5, 0.5], atol=1e-8)

    def test_asymmetric_chain(self):
        matrix = np.array([[0.9, 0.1], [0.5, 0.5]])
        pi = stationary_distribution(matrix)
        np.testing.assert_allclose(pi @ matrix, pi, atol=1e-8)
        assert pi[0] > pi[1]

    def test_identity_matrix_returns_some_stationary_vector(self):
        pi = stationary_distribution(np.eye(3))
        np.testing.assert_allclose(pi @ np.eye(3), pi)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            stationary_distribution(np.ones((2, 3)) / 3)

    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            stationary_distribution(np.array([[0.5, 0.2], [0.3, 0.7]]))

    def test_three_state_birth_death_chain(self):
        matrix = np.array(
            [
                [0.5, 0.5, 0.0],
                [0.25, 0.5, 0.25],
                [0.0, 0.5, 0.5],
            ]
        )
        pi = stationary_distribution(matrix)
        np.testing.assert_allclose(pi @ matrix, pi, atol=1e-8)
        np.testing.assert_allclose(pi, [0.25, 0.5, 0.25], atol=1e-6)
