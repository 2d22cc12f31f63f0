"""Tests for repro.experiments.config."""

from __future__ import annotations

import pytest

from repro.data.census import Race
from repro.experiments.config import CaseStudyConfig


class TestDefaults:
    def test_paper_parameters(self):
        config = CaseStudyConfig()
        assert config.num_users == 1000
        assert config.num_trials == 5
        assert config.start_year == 2002
        assert config.end_year == 2020
        assert config.cutoff == pytest.approx(0.4)
        assert config.warm_up_rounds == 2
        assert config.income_multiple == pytest.approx(3.5)
        assert config.annual_rate == pytest.approx(0.0216)
        assert config.living_cost == pytest.approx(10.0)
        assert config.repayment_sensitivity == pytest.approx(5.0)

    def test_num_steps_covers_2002_to_2020(self):
        assert CaseStudyConfig().num_steps == 19

    def test_years_tuple(self):
        years = CaseStudyConfig().years
        assert years[0] == 2002
        assert years[-1] == 2020
        assert len(years) == 19

    def test_race_mix_matches_the_paper(self):
        mix = CaseStudyConfig().race_mix
        assert mix[Race.BLACK] == pytest.approx(0.1235)
        assert mix[Race.WHITE] == pytest.approx(0.8406)
        assert mix[Race.ASIAN] == pytest.approx(0.0359)


class TestValidationAndScaling:
    def test_rejects_inverted_year_range(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(start_year=2020, end_year=2002)

    def test_rejects_non_positive_population(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(num_users=0)

    def test_rejects_a_single_user(self):
        # The lender's first refit would find one offered user and raise.
        with pytest.raises(ValueError, match="two offered users"):
            CaseStudyConfig(num_users=1)
        assert CaseStudyConfig(num_users=2).num_users == 2

    def test_rejects_negative_warm_up(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(warm_up_rounds=-1)

    def test_rejects_a_run_without_warm_up(self):
        # Every in-tree policy's lender would raise at step 0 instead.
        with pytest.raises(ValueError, match="before being retrained"):
            CaseStudyConfig(warm_up_rounds=0)
        assert CaseStudyConfig(warm_up_rounds=1).warm_up_rounds == 1

    def test_scaled_copy_changes_only_the_requested_fields(self):
        config = CaseStudyConfig()
        scaled = config.scaled(num_users=50, num_trials=2)
        assert scaled.num_users == 50
        assert scaled.num_trials == 2
        assert scaled.start_year == config.start_year
        assert scaled.cutoff == config.cutoff

    def test_scaled_without_arguments_is_identical(self):
        config = CaseStudyConfig()
        assert config.scaled() == config

    def test_config_is_hashable_and_frozen(self):
        config = CaseStudyConfig()
        with pytest.raises(AttributeError):
            config.num_users = 5  # type: ignore[misc]
