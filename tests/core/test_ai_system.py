"""Tests for repro.core.ai_system."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ai_system import (
    AISystem,
    ConstantDecisionSystem,
    CreditScoringSystem,
    ScorecardDecisionSystem,
)
from repro.credit.lender import Lender
from repro.scoring.scorecard import paper_table1_scorecard


def observation_for(num_users: int, rates=None):
    rates_array = np.zeros(num_users) if rates is None else np.asarray(rates, dtype=float)
    return {"user_default_rates": rates_array, "portfolio_rate": float(rates_array.mean())}


class TestConstantDecisionSystem:
    def test_approves_everyone(self):
        system = ConstantDecisionSystem(decision=1)
        decisions = system.decide({"income": np.array([10.0, 20.0])}, observation_for(2), 0)
        np.testing.assert_array_equal(decisions, [1.0, 1.0])

    def test_denies_everyone(self):
        system = ConstantDecisionSystem(decision=0)
        decisions = system.decide({"income": np.array([10.0, 20.0])}, observation_for(2), 0)
        np.testing.assert_array_equal(decisions, [0.0, 0.0])

    def test_infers_size_from_observation_when_no_features(self):
        system = ConstantDecisionSystem()
        decisions = system.decide({}, observation_for(3), 0)
        assert decisions.shape == (3,)

    def test_rejects_invalid_decision_value(self):
        with pytest.raises(ValueError):
            ConstantDecisionSystem(decision=2)

    def test_cannot_infer_size_from_scalars_only(self):
        system = ConstantDecisionSystem()
        with pytest.raises(ValueError):
            system.decide({}, {"portfolio_rate": 0.1}, 0)

    def test_update_is_a_no_op(self):
        system = ConstantDecisionSystem()
        assert (
            system.update({"income": np.ones(2)}, np.ones(2), np.ones(2), observation_for(2), 0)
            is None
        )

    def test_satisfies_the_protocol(self):
        assert isinstance(ConstantDecisionSystem(), AISystem)


class TestScorecardDecisionSystem:
    def test_uses_the_fixed_card(self):
        system = ScorecardDecisionSystem(paper_table1_scorecard(), cutoff=0.4)
        decisions = system.decide(
            {"income": np.array([50.0, 10.0])},
            observation_for(2, rates=[0.1, 0.9]),
            0,
        )
        # Income $50K, ADR 0.1 -> 4.953 > 0.4 approved; income $10K, ADR 0.9 -> -7.353 denied.
        np.testing.assert_array_equal(decisions, [1.0, 0.0])

    def test_update_never_changes_the_card(self):
        system = ScorecardDecisionSystem(paper_table1_scorecard())
        card_before = system.scorecard
        system.update(
            {"income": np.array([50.0])}, np.ones(1), np.ones(1), observation_for(1), 0
        )
        assert system.scorecard is card_before

    def test_satisfies_the_protocol(self):
        assert isinstance(ScorecardDecisionSystem(paper_table1_scorecard()), AISystem)


class TestCreditScoringSystem:
    def test_warm_up_decisions_approve_everyone(self):
        system = CreditScoringSystem(Lender(warm_up_rounds=1))
        decisions = system.decide({"income": np.array([5.0, 80.0])}, observation_for(2), 0)
        np.testing.assert_array_equal(decisions, [1.0, 1.0])

    def test_update_then_decide_uses_a_trained_scorecard(self):
        rng = np.random.default_rng(0)
        num_users = 300
        incomes = rng.uniform(5.0, 120.0, num_users)
        system = CreditScoringSystem(Lender(warm_up_rounds=1))
        observation = observation_for(num_users)
        decisions = system.decide({"income": incomes}, observation, 0)
        # Users below the living cost mostly default, wealthy users repay.
        actions = (incomes > 20.0).astype(float)
        system.update({"income": incomes}, decisions, actions, observation, 0)
        next_rates = 1.0 - actions
        next_decisions = system.decide(
            {"income": incomes}, observation_for(num_users, rates=next_rates), 1
        )
        assert not np.all(next_decisions == 1.0)
        assert system.last_scores is not None
        # Wealthy, clean users should be approved at a higher rate than poor defaulters.
        assert next_decisions[incomes > 20.0].mean() > next_decisions[incomes <= 20.0].mean()

    def test_last_scores_is_none_before_any_decision(self):
        assert CreditScoringSystem().last_scores is None

    def test_lender_accessor(self):
        lender = Lender()
        assert CreditScoringSystem(lender).lender is lender

    def test_satisfies_the_protocol(self):
        assert isinstance(CreditScoringSystem(), AISystem)


class TestCreditScoringSystemState:
    """export/import_state: how step snapshots carry the credit system."""

    @staticmethod
    def _trained_system():
        rng = np.random.default_rng(5)
        incomes = rng.uniform(5.0, 120.0, 200)
        system = CreditScoringSystem(Lender(warm_up_rounds=1))
        observation = observation_for(200)
        decisions = system.decide({"income": incomes}, observation, 0)
        actions = (incomes > 20.0).astype(float)
        system.update({"income": incomes}, decisions, actions, observation, 0)
        system.decide({"income": incomes}, observation_for(200, 1.0 - actions), 1)
        return system, incomes, actions

    def test_round_trip_restores_scores_and_the_next_decision(self):
        system, incomes, actions = self._trained_system()
        restored = CreditScoringSystem(Lender(warm_up_rounds=1))
        restored.import_state(system.export_state())
        np.testing.assert_array_equal(restored.last_scores, system.last_scores)
        observation = observation_for(200, 1.0 - actions)
        np.testing.assert_array_equal(
            restored.decide({"income": incomes}, observation, 2),
            system.decide({"income": incomes}, observation, 2),
        )

    def test_state_scores_are_detached_copies(self):
        system, _, _ = self._trained_system()
        before = system.last_scores.copy()
        state = system.export_state()
        state["last_scores"][:] = -1.0
        np.testing.assert_array_equal(system.last_scores, before)
        restored = CreditScoringSystem(Lender(warm_up_rounds=1))
        restored.import_state(system.export_state())
        restored.last_scores[:] = -2.0
        np.testing.assert_array_equal(system.last_scores, before)

    def test_fresh_state_has_no_scores(self):
        restored = CreditScoringSystem()
        restored.import_state(CreditScoringSystem().export_state())
        assert restored.last_scores is None
        assert restored.lender.scorecard is None
