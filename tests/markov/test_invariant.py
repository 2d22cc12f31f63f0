"""Tests for repro.markov.invariant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.markov.ifs import IteratedFunctionSystem
from repro.markov.invariant import (
    EmpiricalMeasure,
    estimate_invariant_measure,
    unique_ergodicity_diagnostic,
    wasserstein_distance_1d,
)
from repro.markov.maps import AffineMap


class TestEmpiricalMeasure:
    def test_promotes_1d_samples(self):
        measure = EmpiricalMeasure(samples=np.array([1.0, 2.0, 3.0]))
        assert measure.samples.shape == (3, 1)
        assert measure.size == 3
        assert measure.dimension == 1

    def test_mean_and_expectation(self):
        measure = EmpiricalMeasure(samples=np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(measure.mean(), [1.0])
        assert measure.expectation(lambda x: float(x[0]) ** 2) == pytest.approx(2.0)

    def test_quantile(self):
        measure = EmpiricalMeasure(samples=np.linspace(0, 1, 101))
        assert measure.quantile(0.5) == pytest.approx(0.5, abs=0.02)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(samples=np.empty((0, 1)))

    def test_multivariate_samples_keep_their_components(self):
        samples = np.column_stack([np.zeros(5), np.arange(5.0), 10.0 * np.arange(5.0)])
        measure = EmpiricalMeasure(samples=samples)
        assert (measure.size, measure.dimension) == (5, 3)
        np.testing.assert_allclose(measure.mean(), [0.0, 2.0, 20.0])
        assert measure.quantile(1.0, component=2) == pytest.approx(40.0)


class TestEstimateInvariantMeasure:
    def test_burn_in_discards_prefix(self):
        orbit = np.concatenate([np.full(50, 100.0), np.zeros(50)])
        measure = estimate_invariant_measure(orbit, burn_in=0.5)
        assert float(measure.mean()[0]) == pytest.approx(0.0)

    def test_rejects_bad_burn_in(self):
        with pytest.raises(ValueError):
            estimate_invariant_measure(np.zeros(10), burn_in=1.0)

    def test_rejects_too_short_orbit(self):
        with pytest.raises(ValueError):
            estimate_invariant_measure(np.zeros(1))


class TestDistances:
    def test_wasserstein_of_identical_samples_is_zero(self):
        samples = np.random.default_rng(0).random(100)
        assert wasserstein_distance_1d(samples, samples) == pytest.approx(0.0, abs=1e-12)

    def test_wasserstein_of_shifted_samples_equals_shift(self):
        samples = np.random.default_rng(0).random(500)
        assert wasserstein_distance_1d(samples, samples + 2.0) == pytest.approx(2.0, abs=0.01)

    def test_wasserstein_is_symmetric(self):
        a = np.random.default_rng(1).normal(size=200)
        b = np.random.default_rng(2).normal(loc=1.0, size=300)
        assert wasserstein_distance_1d(a, b) == pytest.approx(
            wasserstein_distance_1d(b, a), abs=1e-9
        )

    def test_wasserstein_of_point_masses_is_their_distance(self):
        assert wasserstein_distance_1d([0.2], [0.7]) == pytest.approx(0.5)

    def test_wasserstein_satisfies_the_triangle_inequality(self):
        rng = np.random.default_rng(3)
        a, b, c = rng.normal(size=200), rng.normal(1.0, size=200), rng.random(200)
        assert wasserstein_distance_1d(a, c) <= (
            wasserstein_distance_1d(a, b) + wasserstein_distance_1d(b, c) + 1e-12
        )

    def test_wasserstein_scales_with_the_samples_and_ignores_a_common_shift(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=150), rng.exponential(size=150)
        distance = wasserstein_distance_1d(a, b)
        scaled = wasserstein_distance_1d(3.0 * a, 3.0 * b)
        assert scaled == pytest.approx(3.0 * distance)
        assert wasserstein_distance_1d(a - 5.0, b - 5.0) == pytest.approx(distance)

    def test_wasserstein_rejects_empty(self):
        with pytest.raises(ValueError):
            wasserstein_distance_1d([], [1.0])


class TestUniqueErgodicityDiagnostic:
    def test_contractive_ifs_passes(self):
        ifs = IteratedFunctionSystem(
            maps=[AffineMap.scalar(0.5, 0.0), AffineMap.scalar(0.5, 0.5)],
            probabilities=[0.5, 0.5],
        )
        diagnostic = unique_ergodicity_diagnostic(
            simulate_orbit=lambda x0, length, generator: ifs.orbit(x0, length, generator),
            initial_states=[np.array([-10.0]), np.array([10.0])],
            orbit_length=1500,
            tolerance=0.05,
            rng=3,
        )
        assert diagnostic.consistent_with_unique_ergodicity
        assert diagnostic.max_distance < 0.05

    def test_frozen_dynamics_fails(self):
        # x(k+1) = x(k): the orbit never forgets its initial condition.
        def frozen_orbit(x0, length, generator):
            return np.full((length + 1, 1), float(x0[0]))

        diagnostic = unique_ergodicity_diagnostic(
            simulate_orbit=frozen_orbit,
            initial_states=[np.array([0.0]), np.array([5.0])],
            orbit_length=200,
            tolerance=0.1,
            rng=0,
        )
        assert not diagnostic.consistent_with_unique_ergodicity
        assert diagnostic.max_distance == pytest.approx(5.0, abs=0.01)

    def test_requires_at_least_two_initial_states(self):
        with pytest.raises(ValueError):
            unique_ergodicity_diagnostic(
                simulate_orbit=lambda x0, length, generator: np.zeros((length + 1, 1)),
                initial_states=[np.array([0.0])],
            )

    def test_pairwise_distance_count(self):
        def noisy_orbit(x0, length, generator):
            return generator.normal(size=(length + 1, 1))

        diagnostic = unique_ergodicity_diagnostic(
            simulate_orbit=noisy_orbit,
            initial_states=[np.array([0.0]), np.array([1.0]), np.array([2.0])],
            orbit_length=300,
            rng=1,
        )
        assert len(diagnostic.wasserstein_distances) == 3
