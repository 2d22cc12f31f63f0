"""Tests for repro.scoring.calibration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scoring.calibration import ScoreScaler


class TestScoreScaler:
    def test_base_odds_map_to_base_score(self):
        scaler = ScoreScaler(base_score=600.0, base_odds=30.0, points_to_double_odds=20.0)
        assert scaler.points_from_log_odds(np.log(30.0)) == pytest.approx(600.0)

    def test_doubling_the_odds_adds_pdo_points(self):
        scaler = ScoreScaler(base_score=600.0, base_odds=30.0, points_to_double_odds=20.0)
        at_base = scaler.points_from_log_odds(np.log(30.0))
        at_double = scaler.points_from_log_odds(np.log(60.0))
        assert at_double - at_base == pytest.approx(20.0)

    def test_round_trip_is_identity(self):
        scaler = ScoreScaler()
        log_odds = np.linspace(-3, 3, 11)
        recovered = scaler.log_odds_from_points(scaler.points_from_log_odds(log_odds))
        np.testing.assert_allclose(recovered, log_odds, atol=1e-9)

    def test_probability_from_points_is_monotone(self):
        scaler = ScoreScaler()
        points = np.array([500.0, 600.0, 700.0])
        probabilities = scaler.probability_from_points(points)
        assert np.all(np.diff(probabilities) > 0)
        assert np.all((probabilities > 0) & (probabilities < 1))

    def test_base_score_means_the_base_odds(self):
        scaler = ScoreScaler(base_score=600.0, base_odds=30.0, points_to_double_odds=20.0)
        assert scaler.probability_from_points(600.0) == pytest.approx(30.0 / 31.0)

    def test_extreme_points_give_probabilities_not_overflows(self):
        scaler = ScoreScaler()
        with np.errstate(over="raise"):
            low, high = scaler.probability_from_points([-1e9, 1e9])
        assert 0.0 < low < 1e-12
        assert 1.0 - 1e-12 < high <= 1.0

    def test_rejects_non_positive_odds(self):
        with pytest.raises(ValueError):
            ScoreScaler(base_odds=0.0)

    def test_rejects_non_positive_pdo(self):
        with pytest.raises(ValueError):
            ScoreScaler(points_to_double_odds=0.0)

    def test_paper_cutoff_translates_to_points(self):
        scaler = ScoreScaler()
        cutoff_points = float(scaler.points_from_log_odds(0.4))
        assert scaler.log_odds_from_points(cutoff_points) == pytest.approx(0.4)
