"""Property-based tests on the fairness assessments."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairness import equal_impact_assessment, equal_treatment_assessment
from repro.data.census import Race


def random_binary_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=(rows, cols)).astype(float)


matrix_shapes = st.tuples(
    st.integers(min_value=2, max_value=30), st.integers(min_value=2, max_value=15)
)


class TestEqualImpactProperties:
    @given(matrix_shapes, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_user_limits_stay_within_the_outcome_range(self, shape, seed):
        outcomes = random_binary_matrix(*shape, seed)
        assessment = equal_impact_assessment(outcomes)
        assert np.all(assessment.user_limits >= outcomes.min() - 1e-12)
        assert np.all(assessment.user_limits <= outcomes.max() + 1e-12)
        assert assessment.max_user_gap >= 0.0

    @given(matrix_shapes, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_identical_columns_always_satisfy_equal_impact(self, shape, seed):
        rows, cols = shape
        column = np.random.default_rng(seed).random(rows)
        outcomes = np.tile(column[:, None], (1, cols))
        assessment = equal_impact_assessment(outcomes, tolerance=1e-9)
        assert assessment.max_user_gap == pytest.approx(0.0, abs=1e-12)
        assert assessment.satisfied

    @given(matrix_shapes, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_group_gap_never_exceeds_user_gap(self, shape, seed):
        outcomes = random_binary_matrix(*shape, seed)
        cols = outcomes.shape[1]
        half = cols // 2
        groups = {
            Race.BLACK: np.arange(0, half),
            Race.WHITE: np.arange(half, cols),
        }
        assessment = equal_impact_assessment(outcomes, groups=groups)
        assert assessment.max_group_gap <= assessment.max_user_gap + 1e-12


class TestEqualTreatmentProperties:
    @given(matrix_shapes, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_signal_gap_is_zero_iff_decisions_are_uniform(self, shape, seed):
        rows, cols = shape
        rng = np.random.default_rng(seed)
        uniform_decisions = np.tile(rng.integers(0, 2, size=(rows, 1)), (1, cols)).astype(float)
        responses = rng.random((rows, cols))
        assessment = equal_treatment_assessment(uniform_decisions, responses)
        assert assessment.uniform_signal
        assert np.all(assessment.per_step_signal_gap == 0.0)

    @given(matrix_shapes, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_response_gap_is_bounded_by_the_response_range(self, shape, seed):
        rng = np.random.default_rng(seed)
        decisions = np.ones(shape)
        responses = rng.random(shape)
        assessment = equal_treatment_assessment(decisions, responses)
        assert assessment.max_response_gap <= responses.max() - responses.min() + 1e-12
