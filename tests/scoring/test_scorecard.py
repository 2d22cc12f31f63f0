"""Tests for repro.scoring.scorecard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scoring.logistic import LogisticRegression
from repro.scoring.scorecard import Scorecard, ScorecardFactor, paper_table1_scorecard


class TestPaperTable1:
    def test_worked_example_matches_the_paper(self):
        card = paper_table1_scorecard()
        score = card.score({"average_default_rate": 0.1, "income": 50.0})
        assert score == pytest.approx(4.953, abs=1e-9)

    def test_low_income_user_gets_no_income_points(self):
        card = paper_table1_scorecard()
        score = card.score({"average_default_rate": 0.0, "income": 10.0})
        assert score == pytest.approx(0.0)

    def test_default_history_lowers_the_score(self):
        card = paper_table1_scorecard()
        clean = card.score({"average_default_rate": 0.0, "income": 50.0})
        risky = card.score({"average_default_rate": 0.5, "income": 50.0})
        assert risky < clean

    def test_factor_points_match_the_paper(self):
        card = paper_table1_scorecard()
        points = {factor.name: factor.points for factor in card.factors}
        assert points["average_default_rate"] == pytest.approx(-8.17)
        assert points["income"] == pytest.approx(5.77)


class TestScorecard:
    def test_missing_feature_raises_key_error(self):
        card = paper_table1_scorecard()
        with pytest.raises(KeyError):
            card.score({"income": 20.0})

    def test_duplicate_factor_names_are_rejected(self):
        factor = ScorecardFactor(name="x", points=1.0)
        with pytest.raises(ValueError):
            Scorecard(factors=[factor, factor])

    def test_empty_factor_list_is_rejected(self):
        with pytest.raises(ValueError):
            Scorecard(factors=[])

    def test_factor_contribution_is_points_times_the_value(self):
        assert ScorecardFactor("x", 2.5).contribution(4) == pytest.approx(10.0)

    def test_factor_contribution_applies_the_transform_first(self):
        above = ScorecardFactor("income", 30.0, transform=lambda v: float(v > 16.0))
        assert above.contribution(20.0) == pytest.approx(30.0)
        assert above.contribution(12.0) == 0.0

    def test_base_score_is_added(self):
        card = Scorecard(factors=[ScorecardFactor("x", 2.0)], base_score=10.0)
        assert card.score({"x": 1.0}) == pytest.approx(12.0)

    def test_score_matrix_matches_scalar_scores(self):
        card = paper_table1_scorecard()
        features = np.array([[0.1, 50.0], [0.0, 10.0], [0.5, 80.0]])
        matrix_scores = card.score_matrix(features)
        scalar_scores = [
            card.score({"average_default_rate": row[0], "income": row[1]})
            for row in features
        ]
        np.testing.assert_allclose(matrix_scores, scalar_scores)

    def test_score_matrix_rejects_wrong_column_count(self):
        card = paper_table1_scorecard()
        with pytest.raises(ValueError):
            card.score_matrix(np.zeros((3, 3)))

    def test_table_rendering_mentions_every_factor(self):
        card = paper_table1_scorecard()
        text = card.table()
        assert "average_default_rate" in text
        assert "income" in text

    def test_factor_names_preserve_order(self):
        card = paper_table1_scorecard()
        assert card.factor_names == ("average_default_rate", "income")


class TestBatchTransforms:
    """score_matrix evaluates transforms columnwise, bit-identical to the loop."""

    @staticmethod
    def _loop_reference(card: Scorecard, features: np.ndarray) -> np.ndarray:
        """The pre-vectorisation per-row implementation, kept as the pin."""
        matrix = np.asarray(features, dtype=float)
        scores = np.full(matrix.shape[0], card.base_score, dtype=float)
        for column, factor in enumerate(card.factors):
            values = matrix[:, column]
            if factor.transform is not None:
                values = np.array([factor.transform(value) for value in values])
            scores += factor.points * values
        return scores

    def test_paper_card_is_bit_identical_to_the_loop(self):
        card = paper_table1_scorecard()
        rng = np.random.default_rng(0)
        features = np.column_stack(
            [rng.uniform(0, 1, 500), rng.uniform(0, 200, 500)]
        )
        np.testing.assert_array_equal(
            card.score_matrix(features), self._loop_reference(card, features)
        )

    def test_scalar_only_transform_keeps_the_loop(self):
        card = Scorecard(
            factors=[
                ScorecardFactor(
                    name="x",
                    points=2.0,
                    # Scalar contract, not declared batch-aware: stays on
                    # the per-row loop (and would raise on an array input).
                    transform=lambda value: 1.0 if value > 0.5 else 0.0,
                )
            ]
        )
        features = np.array([[0.2], [0.7], [0.5]])
        np.testing.assert_array_equal(
            card.score_matrix(features), self._loop_reference(card, features)
        )

    def test_misdeclared_shape_collapsing_transform_falls_back(self):
        card = Scorecard(
            factors=[
                ScorecardFactor(
                    name="x",
                    points=1.0,
                    # Declared batch-aware but collapses the column to a
                    # scalar — the guard must reject it and loop instead.
                    transform=lambda value: float(np.sum(value)),
                    vectorized_transform=True,
                )
            ]
        )
        features = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(
            card.score_matrix(features), self._loop_reference(card, features)
        )

    def test_misdeclared_raising_transform_falls_back(self):
        card = Scorecard(
            factors=[
                ScorecardFactor(
                    name="x",
                    points=2.0,
                    transform=lambda value: 1.0 if value > 0.5 else 0.0,
                    vectorized_transform=True,  # lie: raises on arrays
                )
            ]
        )
        features = np.array([[0.2], [0.7], [0.5]])
        np.testing.assert_array_equal(
            card.score_matrix(features), self._loop_reference(card, features)
        )

    def test_undeclared_non_elementwise_transform_keeps_row_semantics(self):
        """A transform that accepts arrays but is not elementwise must not
        be batch-evaluated unless explicitly declared — the shape guard
        alone could not tell the difference."""
        card = Scorecard(
            factors=[
                ScorecardFactor(
                    name="x",
                    points=1.0,
                    # Per-scalar this is the zero function; per-column it
                    # would centre the values.
                    transform=lambda value: value - np.mean(value),
                )
            ]
        )
        features = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(card.score_matrix(features), [0.0, 0.0, 0.0])

    def test_paper_card_scalar_scoring_still_works(self):
        card = paper_table1_scorecard()
        assert card.score({"average_default_rate": 0.1, "income": 50.0}) == (
            pytest.approx(4.953, abs=1e-9)
        )


class TestFromLogistic:
    def test_points_equal_fitted_coefficients(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(300, 2))
        labels = (features[:, 0] - features[:, 1] > 0).astype(int)
        model = LogisticRegression()
        model.fit(features, labels)
        card = Scorecard.from_logistic(model, ["a", "b"])
        points = {factor.name: factor.points for factor in card.factors}
        assert points["a"] == pytest.approx(model.coefficients[0])
        assert points["b"] == pytest.approx(model.coefficients[1])
        assert card.base_score == pytest.approx(model.intercept)

    def test_scorecard_reproduces_the_linear_predictor(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(200, 2))
        labels = (features.sum(axis=1) > 0).astype(int)
        model = LogisticRegression()
        model.fit(features, labels)
        card = Scorecard.from_logistic(model, ["a", "b"])
        np.testing.assert_allclose(
            card.score_matrix(features), model.decision_function(features), atol=1e-9
        )

    def test_intercept_can_be_excluded(self):
        model = LogisticRegression()
        model.fit(np.array([[0.0], [1.0], [0.0], [1.0]]), [0, 1, 0, 1])
        card = Scorecard.from_logistic(model, ["x"], include_intercept=False)
        assert card.base_score == 0.0

    def test_wrong_feature_name_count_is_rejected(self):
        model = LogisticRegression()
        model.fit(np.zeros((4, 2)), [0, 1, 0, 1])
        with pytest.raises(ValueError):
            Scorecard.from_logistic(model, ["only_one"])
