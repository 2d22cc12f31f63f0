"""Tests for repro.credit.lender (the retraining scorecard lender)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.credit.lender import Lender, refit_batch

from repro.scoring.features import income_code
from repro.scoring.suffstats import CompressedDesign

from tests.oracle.refit import RowLevelLender


def _trained(lender, *args, **kwargs):
    """Retrain ``lender`` and return its new scorecard."""
    lender.retrain(*args, **kwargs)
    return lender.scorecard


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
        lender.retrain(incomes, previous_rates, repayments)
        points = {factor.name: factor.points for factor in lender.scorecard.factors}
        assert points["income_code"] > 0
        assert points["average_default_rate"] < 0

    def test_scorecard_is_stored_on_the_lender(self):
        # The refit returns nothing: callers read the card off the lender.
        lender = Lender()
        incomes, previous_rates, repayments = training_data()
        assert lender.retrain(incomes, previous_rates, repayments) is None
        assert lender.scorecard is not None
        table = CompressedDesign.from_arrays(
            income_code(incomes), previous_rates, repayments
        )
        assert lender.retrain_from_suffstats(table) is None

    def test_offered_mask_restricts_the_training_set(self):
        lender = Lender()
        incomes, previous_rates, repayments = training_data()
        offered = np.zeros_like(repayments)
        offered[:50] = 1
        lender.retrain(incomes, previous_rates, repayments, offered=offered)
        assert lender.scorecard is not None

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
        lender.retrain(incomes, previous_rates, repayments)
        previous = lender.scorecard
        offered = np.zeros_like(repayments)
        lender.retrain(incomes, previous_rates, repayments, offered=offered)
        assert lender.scorecard is previous

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
        reference = _trained(RowLevelLender(), incomes, previous_rates, repayments)
        card = _trained(Lender(), incomes, previous_rates, repayments)
        reference_points = {f.name: f.points for f in reference.factors}
        points = {f.name: f.points for f in card.factors}
        for name, value in reference_points.items():
            assert points[name] == pytest.approx(value, abs=1e-9)
        assert card.base_score == pytest.approx(reference.base_score, abs=1e-9)

    def test_offered_mask_matches_the_row_level_fit(self):
        incomes, previous_rates, repayments = training_data()
        previous_rates = np.round(previous_rates * 10) / 10
        offered = (np.arange(incomes.size) % 2).astype(int)
        reference = _trained(
            RowLevelLender(), incomes, previous_rates, repayments, offered=offered
        )
        card = _trained(Lender(), incomes, previous_rates, repayments, offered=offered)
        for left, right in zip(reference.factors, card.factors):
            assert right.points == pytest.approx(left.points, abs=1e-9)

    def test_retrain_from_suffstats_matches_retrain(self):
        incomes, previous_rates, repayments = training_data()
        previous_rates = np.round(previous_rates * 10) / 10
        direct = _trained(Lender(), incomes, previous_rates, repayments)
        table = CompressedDesign.from_arrays(
            income_code(incomes), previous_rates, repayments
        )
        lender = Lender()
        lender.retrain_from_suffstats(table)
        via_table = lender.scorecard
        for left, right in zip(direct.factors, via_table.factors):
            assert right.points == left.points  # same table -> same fit, bit for bit
        assert via_table.base_score == direct.base_score

    def test_retrain_from_suffstats_degenerate_table(self):
        empty = CompressedDesign.from_arrays([], [], [])
        lender = Lender()
        with pytest.raises(ValueError, match="fewer than 2"):
            lender.retrain_from_suffstats(empty)
        incomes, previous_rates, repayments = training_data(50)
        lender.retrain(incomes, previous_rates, repayments)
        previous = lender.scorecard
        lender.retrain_from_suffstats(empty)
        assert lender.scorecard is previous


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


def _points(card):
    return [card.base_score] + [(factor.name, factor.points) for factor in card.factors]


class TestRefitBatch:
    """Refits inside ``refit_batch`` are solved together, with the same bits."""

    @staticmethod
    def _data(count):
        return [training_data(n=60 + 40 * seed, seed=seed) for seed in range(count)]

    def test_leaving_the_batch_installs_every_card_bit_for_bit(self):
        data = self._data(4)
        serial = [_trained(Lender(), *rows) for rows in data]
        lenders = [Lender() for _ in data]
        with refit_batch():
            for lender, rows in zip(lenders, data):
                lender.retrain(*rows)
        for lender, card in zip(lenders, serial):
            assert _points(lender.scorecard) == _points(card)
            assert lender.export_state()["model"].fit_result.iterations > 0

    def test_the_refit_waits_in_the_batch_not_on_the_lender(self):
        incomes, previous_rates, repayments = training_data()
        lender = Lender()
        attributes = dict(vars(lender))
        with refit_batch():
            lender.retrain(incomes, previous_rates, repayments)
            # Nothing was fitted, and the lender holds no new state (step
            # snapshots pickle live lenders).
            assert vars(lender) == attributes
            assert lender._model is None
        assert lender._model is not None
        assert set(vars(lender)) == set(attributes)

    def test_reading_a_pending_lender_solves_it_first(self):
        incomes, previous_rates, repayments = training_data()
        expected = _trained(
            Lender(warm_up_rounds=0), incomes, previous_rates, repayments
        )
        for read in ("scorecard", "decide", "export_state"):
            lender = Lender(warm_up_rounds=0)
            with refit_batch():
                lender.retrain(incomes, previous_rates, repayments)
                if read == "scorecard":
                    card = lender.scorecard
                elif read == "decide":
                    card = lender.decide(incomes, previous_rates).scorecard
                else:
                    lender.export_state()
                    card = lender._scorecard
                assert _points(card) == _points(expected), read

    def test_the_degenerate_rules_apply_at_the_call(self):
        incomes, previous_rates, repayments = training_data(50)
        nobody = np.zeros_like(repayments)
        lender = Lender()
        with refit_batch():
            with pytest.raises(ValueError, match="fewer than 2 users"):
                lender.retrain(incomes, previous_rates, repayments, offered=nobody)
            lender.retrain(incomes, previous_rates, repayments)
            # The pending card is the previous one the rule keeps.
            lender.retrain(incomes, previous_rates, repayments, offered=nobody)
            kept = lender.scorecard
        assert lender.scorecard is kept
        assert _points(kept) == _points(
            _trained(Lender(), incomes, previous_rates, repayments)
        )

    def test_the_last_refit_of_a_lender_wins(self):
        (first, second) = self._data(2)
        lender = Lender()
        with refit_batch():
            lender.retrain(*first)
            lender.retrain(*second)
        assert _points(lender.scorecard) == _points(_trained(Lender(), *second))

    def test_an_import_is_not_overwritten_by_a_pending_refit(self):
        incomes, previous_rates, repayments = training_data()
        lender = Lender()
        with refit_batch():
            lender.retrain(incomes, previous_rates, repayments)
            lender.import_state(Lender().export_state())
        assert lender.scorecard is None

    def test_a_nested_batch_joins_the_outer_one(self):
        data = self._data(2)
        lenders = [Lender(), Lender()]
        with refit_batch():
            lenders[0].retrain(*data[0])
            with refit_batch():
                lenders[1].retrain(*data[1])
            assert lenders[1]._model is None  # still pending in the outer batch
        for lender, rows in zip(lenders, data):
            assert _points(lender.scorecard) == _points(_trained(Lender(), *rows))

    def test_a_raising_block_still_solves_its_refits(self):
        incomes, previous_rates, repayments = training_data()
        lender = Lender()
        with pytest.raises(RuntimeError, match="boom"):
            with refit_batch():
                lender.retrain(incomes, previous_rates, repayments)
                raise RuntimeError("boom")
        assert lender._model is not None
