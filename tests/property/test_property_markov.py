"""Property-based tests on the Markov/IFS substrate's invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov.ifs import IteratedFunctionSystem
from repro.markov.invariant import wasserstein_distance_1d
from repro.markov.maps import AffineMap
from repro.markov.operators import stationary_distribution


def random_stochastic_matrix(size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.random((size, size)) + 0.05
    return matrix / matrix.sum(axis=1, keepdims=True)


class TestStationaryDistributionProperties:
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_stationary_vector_is_a_fixed_point(self, size, seed):
        matrix = random_stochastic_matrix(size, seed)
        pi = stationary_distribution(matrix)
        np.testing.assert_allclose(pi @ matrix, pi, atol=1e-6)
        assert pi.min() >= -1e-12
        assert pi.sum() == pytest.approx(1.0)


class TestIFSProperties:
    @given(
        st.floats(0.05, 0.9),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_contractive_ifs_orbits_stay_bounded(self, slope, offset_a, offset_b, seed):
        ifs = IteratedFunctionSystem(
            maps=[AffineMap.scalar(slope, offset_a), AffineMap.scalar(slope, offset_b)],
            probabilities=[0.5, 0.5],
        )
        orbit = ifs.orbit(np.array([50.0]), 300, seed)
        bound = max(abs(offset_a), abs(offset_b)) / (1.0 - slope) + 1.0
        assert np.all(np.abs(orbit[150:]) <= bound)

    @given(st.floats(0.05, 0.9), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_average_contraction_estimate_matches_the_slope(self, slope, seed):
        ifs = IteratedFunctionSystem(
            maps=[AffineMap.scalar(slope, 0.0), AffineMap.scalar(slope, 1.0)],
            probabilities=[0.5, 0.5],
        )
        rng = np.random.default_rng(seed)
        pairs = [(rng.normal(size=1), rng.normal(size=1)) for _ in range(20)]
        estimate = ifs.average_contraction_estimate(pairs)
        assert estimate == pytest.approx(slope, abs=1e-9)


class TestDistanceProperties:
    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=60),
        st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_wasserstein_is_non_negative_and_symmetric(self, a, b):
        forward = wasserstein_distance_1d(a, b)
        backward = wasserstein_distance_1d(b, a)
        assert forward >= 0.0
        assert forward == pytest.approx(backward, abs=1e-9)

    @given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_distance_to_itself_is_zero(self, a):
        assert wasserstein_distance_1d(a, a) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=60),
        st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=60),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_wasserstein_translation_invariance(self, a, b, shift):
        base = wasserstein_distance_1d(a, b)
        shifted = wasserstein_distance_1d(
            np.asarray(a) + shift, np.asarray(b) + shift
        )
        assert shifted == pytest.approx(base, abs=1e-6)
