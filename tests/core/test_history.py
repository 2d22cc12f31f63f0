"""Tests for repro.core.history."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import SimulationHistory


def make_history() -> SimulationHistory:
    """Two users, three steps, hand-written decisions/actions."""
    history = SimulationHistory()
    decisions = [np.array([1.0, 1.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0])]
    actions = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for step, (decision, action) in enumerate(zip(decisions, actions)):
        history.record_step(
            step,
            {"income": np.array([30.0 + step, 12.0])},
            decision,
            action,
            {"user_default_rates": np.array([0.1, 0.5]), "portfolio_rate": 0.3},
        )
    return history


class TestBasicAccessors:
    def test_counts(self):
        history = make_history()
        assert history.num_steps == 3
        assert history.num_users == 2

    def test_decision_and_action_matrices(self):
        history = make_history()
        assert history.decisions_matrix().shape == (3, 2)
        assert history.actions_matrix().shape == (3, 2)

    def test_public_feature_matrix(self):
        history = make_history()
        incomes = history.public_feature_matrix("income")
        np.testing.assert_allclose(incomes[:, 0], [30.0, 31.0, 32.0])

    def test_missing_public_feature_raises(self):
        with pytest.raises(KeyError):
            make_history().public_feature_matrix("wealth")

    def test_observation_series_per_user(self):
        series = make_history().observation_series("user_default_rates")
        assert series.shape == (3, 2)

    def test_observation_series_scalar(self):
        series = make_history().observation_series("portfolio_rate")
        np.testing.assert_allclose(series, [0.3, 0.3, 0.3])

    def test_missing_observation_raises(self):
        with pytest.raises(KeyError):
            make_history().observation_series("unknown")

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            SimulationHistory().decisions_matrix()
        with pytest.raises(ValueError):
            SimulationHistory().num_users


class TestDerivedSeries:
    def test_running_action_averages_are_cesaro_averages(self):
        history = make_history()
        averages = history.running_action_averages()
        np.testing.assert_allclose(averages[:, 0], [1.0, 1.0, 2.0 / 3.0])

    def test_running_default_rates_match_hand_computation(self):
        history = make_history()
        rates = history.running_default_rates()
        # User 0: offered 3 times, repaid twice -> final ADR 1/3.
        assert rates[-1, 0] == pytest.approx(1.0 / 3.0)
        # User 1: offered at steps 0 and 2, repaid once -> final ADR 1/2.
        assert rates[-1, 1] == pytest.approx(0.5)

    def test_default_rate_is_zero_before_any_offer(self):
        history = SimulationHistory()
        history.record_step(0, {}, np.array([0.0, 1.0]), np.array([0.0, 1.0]), {})
        rates = history.running_default_rates()
        assert rates[0, 0] == 0.0
        assert rates[0, 1] == 0.0

    def test_approval_rates(self):
        history = make_history()
        np.testing.assert_allclose(history.approval_rates(), [1.0, 0.5, 1.0])

    def test_recomputed_default_rates_match_hand_computation(self):
        rates = make_history().recompute_running_default_rates()
        assert rates[-1, 0] == pytest.approx(1.0 / 3.0)
        assert rates[-1, 1] == pytest.approx(0.5)

    def test_recomputed_default_rates_are_zero_without_offers(self):
        history = SimulationHistory()
        for step in range(3):
            history.record_step(step, {}, np.zeros(2), np.zeros(2), {})
        np.testing.assert_array_equal(
            history.recompute_running_default_rates(), np.zeros((3, 2))
        )

    def test_takes_no_seed_records(self):
        # Histories fill through record_step only.
        with pytest.raises(TypeError):
            SimulationHistory(records=[])


class TestRecordStepPrecomputed:
    """The trusted fast ingest stores exactly what the plain path computes."""

    @staticmethod
    def _streams(users, steps, seed):
        rng = np.random.default_rng(seed)
        decisions = rng.integers(0, 2, size=(steps, users)).astype(float)
        actions = rng.integers(0, 2, size=(steps, users)).astype(float) * decisions
        incomes = rng.uniform(5.0, 100.0, size=(steps, users))
        return decisions, actions, incomes

    def _build_pair(self, users=30, steps=6, seed=17):
        from repro.credit.default_rates import user_default_rates

        decisions, actions, incomes = self._streams(users, steps, seed)
        plain = SimulationHistory()
        fast = SimulationHistory()
        offers_cum = np.zeros(users)
        repayments_cum = np.zeros(users)
        actions_cum = np.zeros(users)
        for k in range(steps):
            observation = {"portfolio_rate": float(k) / steps}
            plain.record_step(
                k, {"income": incomes[k]}, decisions[k], actions[k], observation
            )
            offers_cum += decisions[k]
            repayments_cum += actions[k] * decisions[k]
            actions_cum += actions[k]
            fast.record_step_precomputed(
                k,
                {"income": incomes[k]},
                decisions[k],
                actions[k],
                observation,
                running_rates=user_default_rates(offers_cum, repayments_cum),
                running_actions=actions_cum / float(k + 1),
                approval=float(np.mean(decisions[k])),
            )
        return plain, fast

    def _assert_identical(self, plain, fast):
        np.testing.assert_array_equal(plain.decisions_matrix(), fast.decisions_matrix())
        np.testing.assert_array_equal(plain.actions_matrix(), fast.actions_matrix())
        np.testing.assert_array_equal(
            plain.public_feature_matrix("income"), fast.public_feature_matrix("income")
        )
        np.testing.assert_array_equal(
            plain.observation_series("portfolio_rate"),
            fast.observation_series("portfolio_rate"),
        )
        np.testing.assert_array_equal(
            plain.running_default_rates(), fast.running_default_rates()
        )
        np.testing.assert_array_equal(
            plain.running_action_averages(), fast.running_action_averages()
        )
        np.testing.assert_array_equal(plain.approval_rates(), fast.approval_rates())

    def test_matches_plain_ingest_bitwise(self):
        plain, fast = self._build_pair()
        self._assert_identical(plain, fast)
        np.testing.assert_array_equal(
            fast.running_default_rates(), fast.recompute_running_default_rates()
        )

    def test_plain_record_step_after_precomputed_ingest_is_refused(self):
        # The precomputed path keeps no cumulative state, so a plain step
        # could not derive its rows; the refusal leaves the history intact.
        _, fast = self._build_pair(steps=3)
        with pytest.raises(ValueError, match="record_step_precomputed"):
            fast.record_step(3, {"income": np.ones(30)}, np.ones(30), np.ones(30), {})
        assert fast.num_steps == 3

    def test_validation_rejects_misshapen_rows(self):
        history = SimulationHistory()
        with pytest.raises(ValueError):
            history.record_step_precomputed(
                0,
                {},
                np.ones(4),
                np.ones(4),
                {},
                running_rates=np.ones(3),
                running_actions=np.ones(4),
                approval=1.0,
            )
