"""Tests for repro.experiments.runner."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import UniformLimitPolicy
from repro.credit.mortgage import MortgageTerms
from repro.data.census import Race
from repro.experiments.runner import ExperimentResult, run_experiment, run_trial


class TestRunTrial:
    def test_trial_shapes(self, small_config):
        trial = run_trial(small_config, trial_index=0)
        assert trial.user_default_rates.shape == (small_config.num_steps, small_config.num_users)
        assert trial.races.shape == (small_config.num_users,)
        assert trial.years == small_config.years
        for race in Race:
            assert trial.group_default_rates[race].shape == (small_config.num_steps,)

    def test_trials_are_reproducible(self, tiny_config):
        first = run_trial(tiny_config, trial_index=0)
        second = run_trial(tiny_config, trial_index=0)
        np.testing.assert_array_equal(first.user_default_rates, second.user_default_rates)

    def test_different_trials_differ(self, tiny_config):
        first = run_trial(tiny_config, trial_index=0)
        second = run_trial(tiny_config, trial_index=1)
        assert not np.array_equal(first.user_default_rates, second.user_default_rates)

    def test_default_rates_are_probabilities(self, tiny_config):
        trial = run_trial(tiny_config, trial_index=0)
        assert trial.user_default_rates.min() >= 0.0
        assert trial.user_default_rates.max() <= 1.0

    def test_custom_policy_factory_is_used(self, tiny_config):
        trial = run_trial(
            tiny_config,
            trial_index=0,
            policy_factory=lambda cfg, pop: UniformLimitPolicy(),
        )
        decisions = trial.history.decisions_matrix()
        # The uniform policy approves everyone at step 0 (no history yet).
        np.testing.assert_array_equal(decisions[0], np.ones(tiny_config.num_users))

    def test_custom_mortgage_terms_change_the_outcome(self, tiny_config):
        proportional = run_trial(tiny_config, trial_index=0)
        punitive = run_trial(
            tiny_config,
            trial_index=0,
            terms=MortgageTerms(fixed_principal=500.0, living_cost=10.0),
        )
        # A fixed $500K loan makes interest unaffordable for most users, so
        # defaults must be (weakly) more common than with 3.5x-income loans.
        assert punitive.user_default_rates[-1].mean() > proportional.user_default_rates[-1].mean()

    def test_final_group_gap_is_non_negative(self, tiny_config):
        trial = run_trial(tiny_config, trial_index=0)
        assert trial.final_group_gap >= 0.0


class TestRunExperiment:
    def test_experiment_has_one_result_per_trial(self, small_config):
        result = run_experiment(small_config)
        assert len(result.trials) == small_config.num_trials
        assert result.config is small_config

    def test_group_mean_and_std_series_shapes(self, small_config):
        result = run_experiment(small_config)
        means = result.group_mean_series()
        stds = result.group_std_series()
        for race in Race:
            assert means[race].shape == (small_config.num_steps,)
            assert stds[race].shape == (small_config.num_steps,)
            assert np.all(stds[race] >= 0.0)

    def test_stacked_user_series_shape(self, small_config):
        result = run_experiment(small_config)
        stacked = result.stacked_user_series()
        expected_rows = small_config.num_trials * small_config.num_users
        assert stacked.shape == (expected_rows, small_config.num_steps)
        assert result.stacked_user_races().shape == (expected_rows,)

    def test_experiment_is_reproducible(self, tiny_config):
        first = run_experiment(tiny_config)
        second = run_experiment(tiny_config)
        np.testing.assert_array_equal(
            first.stacked_user_series(), second.stacked_user_series()
        )


class TestGroupSeriesMoments:
    """Across-trial group statistics stream online (Welford) per trial."""

    def test_moments_match_batch_statistics(self, small_config):
        from repro.data.census import Race

        result = run_experiment(small_config)
        assert result.group_moments is not None
        assert result.group_moments.num_trials == small_config.num_trials
        batch_mean = result.group_mean_series()
        batch_std = result.group_std_series()
        online_mean = result.group_moments.mean_series()
        online_std = result.group_moments.std_series()
        for race in Race:
            np.testing.assert_allclose(
                batch_mean[race], online_mean[race], rtol=1e-12, atol=1e-15
            )
            np.testing.assert_allclose(
                batch_std[race], online_std[race], rtol=1e-9, atol=1e-12
            )

    def test_keep_trials_false_drops_series_but_keeps_statistics(
        self, small_config
    ):
        from repro.data.census import Race

        full = run_experiment(small_config)
        slim = run_experiment(small_config, keep_trials=False)
        assert slim.trials == ()
        assert slim.history_mode == small_config.history_mode
        for race in Race:
            np.testing.assert_allclose(
                full.group_mean_series()[race],
                slim.group_mean_series()[race],
                rtol=1e-12,
                atol=1e-15,
            )
        with pytest.raises(ValueError):
            ExperimentResult(config=small_config, trials=()).group_mean_series()

    def test_fig3_runs_from_a_trial_free_experiment(self, small_config):
        from repro.experiments.fig3_race_adr import fig3_race_adr

        slim = run_experiment(small_config, keep_trials=False)
        figure = fig3_race_adr(result=slim)
        assert figure.years == small_config.years
        assert np.isfinite(figure.final_gap)

    def test_moments_update_requires_trials(self):
        from repro.experiments.runner import GroupSeriesMoments

        moments = GroupSeriesMoments()
        with pytest.raises(ValueError):
            moments.mean_series()

    def test_keep_trials_false_keeps_the_resolved_history_mode(self, small_config):
        slim = run_experiment(
            replace(small_config, history_mode="aggregate"), keep_trials=False
        )
        assert slim.history_mode == "aggregate"

    def test_fig4_rejects_trial_free_experiments(self, small_config):
        from repro.experiments.fig4_user_adr import fig4_user_adr

        slim = run_experiment(
            replace(small_config, history_mode="aggregate"), keep_trials=False
        )
        with pytest.raises(ValueError, match="keep_trials=True"):
            fig4_user_adr(result=slim)
