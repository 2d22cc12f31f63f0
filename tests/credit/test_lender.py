"""Tests for repro.credit.lender (the retraining scorecard lender)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.credit.lender import Lender

from tests.oracle.refit import RowLevelLender


def training_data(n: int = 400, seed: int = 0):
    """Synthetic yearly training data: richer and cleaner users repay more."""
    rng = np.random.default_rng(seed)
    incomes = rng.uniform(5.0, 120.0, size=n)
    previous_rates = rng.uniform(0.0, 0.6, size=n)
    repay_probability = 0.95 * (incomes >= 15.0) * (1.0 - previous_rates) + 0.02
    repayments = (rng.random(n) < repay_probability).astype(int)
    return incomes, previous_rates, repayments


class TestWarmUp:
    def test_warm_up_approves_everyone(self):
        lender = Lender(warm_up_rounds=2)
        decision = lender.decide(np.array([5.0, 50.0]), np.array([0.0, 0.0]))
        assert decision.warm_up
        np.testing.assert_array_equal(decision.decisions, [1, 1])
        assert np.all(np.isnan(decision.scores))

    def test_warm_up_lasts_the_configured_number_of_rounds(self):
        lender = Lender(warm_up_rounds=2)
        assert lender.in_warm_up
        lender.decide(np.array([10.0]), np.array([0.0]))
        assert lender.in_warm_up
        lender.decide(np.array([10.0]), np.array([0.0]))
        assert not lender.in_warm_up

    def test_deciding_after_warm_up_without_training_raises(self):
        lender = Lender(warm_up_rounds=0)
        with pytest.raises(RuntimeError):
            lender.decide(np.array([10.0]), np.array([0.0]))

    def test_negative_warm_up_is_rejected(self):
        with pytest.raises(ValueError):
            Lender(warm_up_rounds=-1)


class TestRetraining:
    def test_retraining_produces_a_scorecard_with_expected_signs(self):
        lender = Lender()
        incomes, previous_rates, repayments = training_data()
        card = lender.retrain(incomes, previous_rates, repayments)
        points = {factor.name: factor.points for factor in card.factors}
        assert points["income_code"] > 0
        assert points["average_default_rate"] < 0

    def test_scorecard_is_stored_on_the_lender(self):
        lender = Lender()
        incomes, previous_rates, repayments = training_data()
        card = lender.retrain(incomes, previous_rates, repayments)
        assert lender.scorecard is card

    def test_offered_mask_restricts_the_training_set(self):
        lender = Lender()
        incomes, previous_rates, repayments = training_data()
        offered = np.zeros_like(repayments)
        offered[:50] = 1
        card = lender.retrain(incomes, previous_rates, repayments, offered=offered)
        assert card is not None

    def test_tiny_offered_mask_without_a_card_is_rejected(self):
        """Regression: a mask selecting < 2 users with no prior scorecard
        used to fall through silently and train on the *unmasked*
        population — labels the lender never observed."""
        lender = Lender()
        incomes, previous_rates, repayments = training_data(50)
        offered = np.zeros_like(repayments)
        offered[0] = 1
        with pytest.raises(ValueError, match="fewer than 2 users"):
            lender.retrain(incomes, previous_rates, repayments, offered=offered)
        assert lender.scorecard is None  # nothing was trained on bogus labels

    def test_tiny_offered_mask_keeps_the_previous_card(self):
        lender = Lender()
        incomes, previous_rates, repayments = training_data(50)
        previous = lender.retrain(incomes, previous_rates, repayments)
        offered = np.zeros_like(repayments)
        card = lender.retrain(incomes, previous_rates, repayments, offered=offered)
        assert card is previous

    def test_wrong_length_offered_mask_is_rejected(self):
        lender = Lender()
        incomes, previous_rates, repayments = training_data(20)
        with pytest.raises(ValueError):
            lender.retrain(incomes, previous_rates, repayments, offered=[1, 0])


class TestCountTableRetraining:
    """The count-table refit against the row-level reference refit."""

    def test_coefficients_match_the_row_level_fit(self):
        incomes, previous_rates, repayments = training_data()
        # Quantise the rates so the compression actually collapses rows,
        # like the loop's small-integer default-rate ratios do.
        previous_rates = np.round(previous_rates * 10) / 10
        reference = RowLevelLender().retrain(incomes, previous_rates, repayments)
        card = Lender().retrain(incomes, previous_rates, repayments)
        reference_points = {f.name: f.points for f in reference.factors}
        points = {f.name: f.points for f in card.factors}
        for name, value in reference_points.items():
            assert points[name] == pytest.approx(value, abs=1e-9)
        assert card.base_score == pytest.approx(reference.base_score, abs=1e-9)

    def test_offered_mask_matches_the_row_level_fit(self):
        incomes, previous_rates, repayments = training_data()
        previous_rates = np.round(previous_rates * 10) / 10
        offered = (np.arange(incomes.size) % 2).astype(int)
        reference = RowLevelLender().retrain(
            incomes, previous_rates, repayments, offered=offered
        )
        card = Lender().retrain(incomes, previous_rates, repayments, offered=offered)
        for left, right in zip(reference.factors, card.factors):
            assert right.points == pytest.approx(left.points, abs=1e-9)

    def test_retrain_from_suffstats_matches_retrain(self):
        from repro.scoring.features import income_code
        from repro.scoring.suffstats import CompressedDesign

        incomes, previous_rates, repayments = training_data()
        previous_rates = np.round(previous_rates * 10) / 10
        direct = Lender().retrain(incomes, previous_rates, repayments)
        table = CompressedDesign.from_arrays(
            income_code(incomes), previous_rates, repayments
        )
        via_table = Lender().retrain_from_suffstats(table)
        for left, right in zip(direct.factors, via_table.factors):
            assert right.points == left.points  # same table -> same fit, bit for bit
        assert via_table.base_score == direct.base_score

    def test_retrain_from_suffstats_degenerate_table(self):
        from repro.scoring.suffstats import CompressedDesign

        empty = CompressedDesign.from_arrays([], [], [])
        lender = Lender()
        with pytest.raises(ValueError, match="fewer than 2"):
            lender.retrain_from_suffstats(empty)
        incomes, previous_rates, repayments = training_data(50)
        previous = lender.retrain(incomes, previous_rates, repayments)
        assert lender.retrain_from_suffstats(empty) is previous


class TestDecisions:
    def test_trained_lender_prefers_low_risk_users(self):
        lender = Lender(cutoff=0.4, warm_up_rounds=0)
        incomes, previous_rates, repayments = training_data()
        lender.retrain(incomes, previous_rates, repayments)
        decision = lender.decide(
            np.array([100.0, 8.0]), np.array([0.0, 0.9])
        )
        assert not decision.warm_up
        assert decision.decisions[0] == 1
        assert decision.decisions[1] == 0
        assert decision.scores[0] > decision.scores[1]

    def test_approval_rate_property(self):
        lender = Lender(warm_up_rounds=1)
        decision = lender.decide(np.array([10.0, 20.0, 30.0]), np.zeros(3))
        assert decision.approval_rate == pytest.approx(1.0)

    def test_misaligned_inputs_are_rejected(self):
        lender = Lender(warm_up_rounds=1)
        with pytest.raises(ValueError):
            lender.decide(np.array([10.0, 20.0]), np.zeros(3))

    def test_rounds_seen_increments(self):
        lender = Lender(warm_up_rounds=2)
        lender.decide(np.array([10.0]), np.zeros(1))
        lender.decide(np.array([10.0]), np.zeros(1))
        assert lender.rounds_seen == 2

    def test_cutoff_property_matches_construction(self):
        assert Lender(cutoff=0.7).cutoff == pytest.approx(0.7)


class TestLearningState:
    """export/import_state: how step snapshots carry the lender."""

    def test_round_trip_reproduces_the_next_decision(self):
        incomes, previous_rates, repayments = training_data()
        lender = Lender(warm_up_rounds=1)
        lender.decide(incomes, previous_rates)
        lender.retrain(incomes, previous_rates, repayments)
        restored = Lender(warm_up_rounds=1)
        restored.import_state(lender.export_state())
        assert restored.rounds_seen == lender.rounds_seen == 1
        # The card is rebuilt from the model, so it carries the same points.
        assert restored.scorecard is not lender.scorecard
        assert restored.scorecard.base_score == lender.scorecard.base_score
        assert [(f.name, f.points) for f in restored.scorecard.factors] == [
            (f.name, f.points) for f in lender.scorecard.factors
        ]
        left = lender.decide(incomes, previous_rates)
        right = restored.decide(incomes, previous_rates)
        np.testing.assert_array_equal(left.decisions, right.decisions)
        np.testing.assert_array_equal(left.scores, right.scores)

    def test_untrained_state_clears_the_model(self):
        lender = Lender()
        incomes, previous_rates, repayments = training_data()
        lender.retrain(incomes, previous_rates, repayments)
        lender.import_state(Lender().export_state())
        assert lender.scorecard is None
        assert lender.rounds_seen == 0
