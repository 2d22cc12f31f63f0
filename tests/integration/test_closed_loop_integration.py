"""Integration tests: the full credit-scoring closed loop, end to end.

These tests exercise every box of Figure 1 together — population, AI
system, filter, delay — and check the paper-level claims on the resulting
histories: warm-up equal treatment, the initial ordering of the race-wise
default rates, their dwindling towards a common level, and the behaviour of
the fairness assessments on real loop output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fairness import equal_impact_assessment, equal_treatment_assessment
from repro.core.metrics import approval_rates_by_group, group_average_series
from repro.data.census import Race
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_trial
from repro.utils.stats import max_pairwise_gap


@pytest.fixture(scope="module")
def trial():
    """One moderately sized trial shared by the whole module."""
    return run_trial(CaseStudyConfig(num_users=300, num_trials=1, seed=2024), trial_index=0)


class TestWarmUpPhase:
    def test_warm_up_years_are_equal_treatment(self, trial):
        decisions = trial.history.decisions_matrix()
        actions = trial.history.actions_matrix()
        warm_up_assessment = equal_treatment_assessment(
            decisions[:2], actions[:2], tolerance=1.0
        )
        assert warm_up_assessment.uniform_signal

    def test_everyone_is_approved_during_warm_up(self, trial):
        decisions = trial.history.decisions_matrix()
        assert decisions[:2].min() == 1.0


class TestPaperShape:
    def test_black_households_start_with_the_highest_default_rate(self, trial):
        groups = {race: np.flatnonzero(trial.races == race) for race in Race}
        series = group_average_series(trial.user_default_rates, groups)
        warm_up_index = 1
        assert series[Race.BLACK][warm_up_index] > series[Race.WHITE][warm_up_index]
        assert series[Race.WHITE][warm_up_index] >= series[Race.ASIAN][warm_up_index]

    def test_race_wise_rates_dwindle_towards_a_common_level(self, trial):
        groups = {race: np.flatnonzero(trial.races == race) for race in Race}
        series = group_average_series(trial.user_default_rates, groups)
        initial_gap = max(series[race][1] for race in Race) - min(
            series[race][1] for race in Race
        )
        final_gap = max(series[race][-1] for race in Race) - min(
            series[race][-1] for race in Race
        )
        assert final_gap < initial_gap

    def test_default_rates_end_up_low_for_every_race(self, trial):
        groups = {race: np.flatnonzero(trial.races == race) for race in Race}
        series = group_average_series(trial.user_default_rates, groups)
        for race in Race:
            assert series[race][-1] < 0.15

    def test_most_users_keep_access_to_credit(self, trial):
        approval = trial.history.approval_rates()
        assert approval[-1] > 0.8

    def test_incomes_grow_over_the_simulated_years(self, trial):
        incomes = trial.history.public_feature_matrix("income")
        assert incomes[-1].mean() > incomes[0].mean()


class TestFairnessAssessmentsOnLoopOutput:
    def test_equal_impact_assessment_runs_on_the_adr_series(self, trial):
        groups = {race: np.flatnonzero(trial.races == race) for race in Race}
        assessment = equal_impact_assessment(
            trial.user_default_rates,
            groups=groups,
            tolerance=0.1,
            already_averaged=True,
        )
        assert set(assessment.group_limits) == set(Race)
        assert assessment.max_group_gap >= 0.0
        assert np.all((assessment.user_limits >= 0.0) & (assessment.user_limits <= 1.0))

    def test_treatment_is_not_uniform_once_the_scorecard_kicks_in(self, trial):
        decisions = trial.history.decisions_matrix()
        actions = trial.history.actions_matrix()
        assessment = equal_treatment_assessment(decisions[2:], actions[2:])
        assert not assessment.uniform_signal

    def test_group_approval_gap_is_moderate(self, trial):
        groups = {race: np.flatnonzero(trial.races == race) for race in Race}
        rates = approval_rates_by_group(trial.history.decisions_matrix(), groups)
        assert 0.0 <= max_pairwise_gap(list(rates.values())) < 0.5


class TestDeterminism:
    def test_the_same_config_reproduces_the_same_trial(self):
        config = CaseStudyConfig(num_users=60, num_trials=1, seed=555)
        first = run_trial(config, trial_index=0)
        second = run_trial(config, trial_index=0)
        np.testing.assert_array_equal(first.user_default_rates, second.user_default_rates)
        np.testing.assert_array_equal(
            first.history.decisions_matrix(), second.history.decisions_matrix()
        )
