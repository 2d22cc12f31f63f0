"""Equivalence suite: the trial-batched engine against the pinned stream.

The trial-batched engine (:mod:`repro.experiments.batch`) runs all of an
experiment's trials in lockstep through ``(trials, users)`` tensors.  Its
contract is that every batched trial row is **bit-identical** to its serial
:func:`~repro.experiments.runner.run_trial` twin:

* at 200 users the batched experiment must reproduce the same golden
  SHA-256 digests as the serial engine
  (:data:`tests.experiments.harness.ENGINE_GOLDEN` — one set of hashes
  pinning four engine generations);
* at paper scale (1000 users, 5 trials) batched and serial runs must agree
  array-for-array in both ``history_mode`` cells;
* the fused fast paths (stacked decide/retrain for the default stack) and
  the generic per-trial fallback (custom policy factories) must both hold
  the contract.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.ai_system import CreditScoringSystem
from repro.core.history import FullHistoryRequiredError
from repro.credit.lender import Lender
from repro.data.census import Race
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment, run_trial

from tests.experiments.harness import (
    ENGINE_GOLDEN,
    assert_full_trials_identical as _assert_full_trials_identical,
    assert_group_series_identical as _assert_group_series_identical,
    experiment_digests,
)


@pytest.fixture(scope="module")
def small_config(golden_config) -> CaseStudyConfig:
    return golden_config


@pytest.fixture(scope="module")
def paper_config() -> CaseStudyConfig:
    return CaseStudyConfig()  # 1000 users, 5 trials — the paper's scale


def _batched(config: CaseStudyConfig, **changes) -> CaseStudyConfig:
    """Return ``config`` on the lockstep kernel, with ``changes`` applied."""
    return replace(config, execution="batch", **changes)


class TestBatchedEngineGoldens:
    """The batched engine reproduces the pinned golden stream exactly."""

    def test_batched_experiment_matches_engine_goldens(self, small_config):
        result = run_experiment(_batched(small_config))
        assert experiment_digests(result) == ENGINE_GOLDEN

    def test_batched_incremental_metrics_match_recompute(self, small_config):
        # The precomputed-statistics ingest rows must satisfy the history's
        # own cross-check recomputations bit for bit.
        result = run_experiment(_batched(small_config))
        for trial in result.trials:
            history = trial.history
            assert np.array_equal(
                history.running_default_rates(),
                history.recompute_running_default_rates(),
            )
            assert np.array_equal(
                history.running_action_averages(),
                history.recompute_running_action_averages(),
            )
            assert np.array_equal(
                history.approval_rates(), history.recompute_approval_rates()
            )


class TestBatchedMatchesSerialAcrossModes:
    """Paper scale, both history modes, bit for bit."""

    def test_full_mode(self, paper_config):
        serial = run_experiment(paper_config)
        batched = run_experiment(_batched(paper_config))
        assert len(serial.trials) == len(batched.trials) == paper_config.num_trials
        for serial_trial, batched_trial in zip(serial.trials, batched.trials):
            _assert_full_trials_identical(serial_trial, batched_trial)
            _assert_group_series_identical(serial_trial, batched_trial)

    def test_aggregate_mode(self, paper_config):
        serial = run_experiment(replace(paper_config, history_mode="aggregate"))
        batched = run_experiment(_batched(paper_config, history_mode="aggregate"))
        for serial_trial, batched_trial in zip(serial.trials, batched.trials):
            _assert_group_series_identical(serial_trial, batched_trial)
            assert np.array_equal(
                serial_trial.history.portfolio_rate_series(),
                batched_trial.history.portfolio_rate_series(),
            )
            assert np.array_equal(
                serial_trial.history.rate_histogram_series(),
                batched_trial.history.rate_histogram_series(),
            )
            assert np.array_equal(
                serial_trial.history.rate_low_count_series(),
                batched_trial.history.rate_low_count_series(),
            )
            with pytest.raises(FullHistoryRequiredError):
                batched_trial.history.decisions_matrix()


class TestBatchedRunnerSurface:
    """Knob plumbing and the generic (non-default-stack) fallback."""

    def test_custom_policy_factory_takes_generic_path(self, small_config):
        # A subclass breaks the exact-type fast-path check, sending the run
        # down the per-trial decide/update calls — still bit-identical.
        class LoggingLender(Lender):
            pass

        def factory(config, population):
            return CreditScoringSystem(
                LoggingLender(
                    cutoff=config.cutoff, warm_up_rounds=config.warm_up_rounds
                )
            )

        serial = run_experiment(small_config, policy_factory=factory)
        batched = run_experiment(_batched(small_config), policy_factory=factory)
        for serial_trial, batched_trial in zip(serial.trials, batched.trials):
            _assert_full_trials_identical(serial_trial, batched_trial)
        # The subclassed lender behaves like the default one, so the run
        # must also equal the fast-path batched result.
        fast = run_experiment(_batched(small_config))
        for fast_trial, batched_trial in zip(fast.trials, batched.trials):
            _assert_full_trials_identical(fast_trial, batched_trial)

    def test_config_knob_enables_batching(self, small_config):
        config = CaseStudyConfig(
            num_users=small_config.num_users,
            num_trials=small_config.num_trials,
            execution="batch",
        )
        batched = run_experiment(config)
        serial = run_experiment(small_config)
        for serial_trial, batched_trial in zip(serial.trials, batched.trials):
            assert np.array_equal(
                serial_trial.user_default_rates, batched_trial.user_default_rates
            )

    def test_single_trial_batch(self):
        config = CaseStudyConfig(num_users=100, num_trials=1)
        batched = run_experiment(_batched(config))
        reference = run_trial(config, trial_index=0)
        assert np.array_equal(
            batched.trials[0].user_default_rates, reference.user_default_rates
        )

    def test_keep_trials_false_accumulates_moments(self, small_config):
        kept = run_experiment(_batched(small_config))
        dropped = run_experiment(_batched(small_config), keep_trials=False)
        assert dropped.trials == ()
        for race in Race:
            # Welford vs batch mean: equal up to float reassociation.
            assert np.allclose(
                kept.group_mean_series()[race],
                dropped.group_mean_series()[race],
                rtol=0.0,
                atol=1e-12,
            )
        assert np.allclose(
            np.concatenate([kept.group_std_series()[race] for race in Race]),
            np.concatenate([dropped.group_std_series()[race] for race in Race]),
        )

    def test_invalid_history_mode_is_rejected(self, small_config):
        with pytest.raises(ValueError):
            run_experiment(_batched(small_config, history_mode="bogus"))

    @pytest.mark.parametrize("execution", ["serial", "batch", "auto"])
    @pytest.mark.parametrize("value", [0.7, 1.5])
    def test_non_binary_decisions_are_rejected_loudly(self, execution, value):
        # No layout gives fractional decisions a meaning: the serial filter
        # and the kernel refuse them with one check and one message.
        class FractionalSystem:
            def __init__(self, value):
                self.value = value

            def decide(self, public_features, observation, k):
                return np.full(public_features["income"].shape[0], self.value)

            def update(self, public_features, decisions, actions, observation, k):
                return None

        # One trial: "auto" runs it on the kernel on every host.
        config = CaseStudyConfig(
            num_users=40, num_trials=1, end_year=2004, execution=execution
        )
        with pytest.raises(ValueError, match="requires 0/1 decisions"):
            run_experiment(
                config,
                policy_factory=lambda cfg, population: FractionalSystem(value),
            )

    def test_shard_alias_rejects_non_binary_decisions_like_batch(self):
        class HalfSystem:
            def decide(self, public_features, observation, k):
                return np.full(public_features["income"].shape[0], 0.5)

            def update(self, public_features, decisions, actions, observation, k):
                return None

        config = CaseStudyConfig(num_users=40, num_trials=2, execution="shard")
        with pytest.raises(ValueError, match="0/1 decisions"):
            run_experiment(config, policy_factory=lambda cfg, population: HalfSystem())
