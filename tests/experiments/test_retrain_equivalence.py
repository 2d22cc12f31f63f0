"""The engine's refit against the row-level reference refit.

The loop has one refit: :meth:`repro.credit.lender.Lender.retrain` counts
the offered users' ``(income code, previous rate, label)`` rows into a
count table and fits the weighted IRLS on its unique rows (the lockstep
kernel builds the same table per user block and refits through
``retrain_from_suffstats``).  The reference,
:class:`tests.oracle.refit.RowLevelLender`, fits the same penalised
likelihood on one row per offered user.  The suite pins:

* at paper scale (1,000 users, the full 2002-2020 window) for three
  seeds, on the serial loop and on the lockstep kernel, identical
  decision, action and rate trajectories, and final coefficients within
  1e-9 after the same Newton iteration count;
* Table 1's pooled fit within 1e-12 of the row-level fit;
* the retired refit knobs: a spec file naming ``retrain_modes`` or
  ``warm_start`` is refused with the key named, the constructors and the
  fit refuse the retired keywords, the configuration's ``retrain_mode``
  accepts only ``"compressed"`` and reaches no fingerprint or job id,
  and a cache directory written at version 1 misses.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    expand_campaign,
    load_campaign_spec,
    run_campaign,
)
from repro.core.ai_system import CreditScoringSystem
from repro.core.planner import plan_execution
from repro.credit.lender import Lender
from repro.experiments import table1_scorecard
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment, trajectory_fingerprint_fields
from repro.scoring.logistic import LogisticRegression

from tests.oracle.refit import RowLevelLender

PAPER_SEEDS = (20240101, 777, 31415)


def _run(config: CaseStudyConfig, lender_type: type):
    """Run trial 0 with ``lender_type``; return it and its fitted model."""
    lenders = []

    def factory(config, population):
        lender = lender_type(cutoff=config.cutoff, warm_up_rounds=config.warm_up_rounds)
        lenders.append(lender)
        return CreditScoringSystem(lender)

    trial = run_experiment(config, policy_factory=factory).trials[0]
    return trial, lenders[0].export_state()["model"]


class TestEngineRefitMatchesTheRowLevelReference:
    @pytest.fixture(scope="class", params=PAPER_SEEDS)
    def reference(self, request):
        config = CaseStudyConfig(num_users=1000, num_trials=1, seed=request.param)
        return config, _run(config, RowLevelLender)

    @pytest.fixture(scope="class", params=["serial", "batch"])
    def engine(self, request, reference):
        config, _ = reference
        return _run(replace(config, execution=request.param), Lender)

    def test_trajectories_agree(self, reference, engine):
        _, (expected, _) = reference
        trial, _ = engine
        history, reference_history = trial.history, expected.history
        assert np.array_equal(
            history.decisions_matrix(), reference_history.decisions_matrix()
        )
        assert np.array_equal(history.actions_matrix(), reference_history.actions_matrix())
        assert np.array_equal(trial.user_default_rates, expected.user_default_rates)

    def test_final_coefficients_agree(self, reference, engine):
        _, (_, expected_model) = reference
        _, model = engine
        fit, expected_fit = model.fit_result, expected_model.fit_result
        assert fit.intercept == pytest.approx(expected_fit.intercept, abs=1e-9)
        np.testing.assert_allclose(
            fit.coefficients, expected_fit.coefficients, rtol=0.0, atol=1e-9
        )
        assert fit.iterations == expected_fit.iterations

    def test_table1_pooled_fit_agrees(self, monkeypatch):
        config = CaseStudyConfig(num_users=400, num_trials=1)
        engine = table1_scorecard.table1_scorecard_result(config)
        monkeypatch.setattr(table1_scorecard, "Lender", RowLevelLender)
        reference = table1_scorecard.table1_scorecard_result(config)
        for name in ("trained_history_points", "trained_income_points"):
            assert getattr(engine, name) == pytest.approx(
                getattr(reference, name), abs=1e-12
            ), name


class TestRetiredRefitKnobs:
    @pytest.mark.parametrize(
        "key, value", [("retrain_modes", '["exact"]'), ("warm_start", "true")]
    )
    def test_spec_files_naming_them_are_refused(self, tmp_path, key, value):
        path = tmp_path / "grid.toml"
        path.write_text(f'name = "old"\n{key} = {value}\n')
        with pytest.raises(ValueError, match=f"unknown spec key\\(s\\) {key}"):
            load_campaign_spec(path)

    def test_retrain_mode_accepts_only_the_count_table_fit(self):
        assert CaseStudyConfig().retrain_mode == "compressed"
        with pytest.raises(ValueError, match="retrain_mode"):
            CaseStudyConfig(retrain_mode="exact")
        with pytest.raises(ValueError, match="retrain_mode"):
            plan_execution("auto", trials=1, users=10, steps=5, retrain_mode="exact")

    @pytest.mark.parametrize(
        "build, keyword, value",
        [
            (Lender, "retrain_mode", "compressed"),
            (Lender, "warm_start", False),
            (CaseStudyConfig, "warm_start", False),
            (CampaignSpec, "retrain_modes", ("compressed",)),
            (CampaignSpec, "warm_start", False),
            (
                partial(LogisticRegression().fit, np.eye(4, 2), [0, 1, 0, 1]),
                "initial_parameters",
                None,
            ),
        ],
        ids=[
            "Lender-retrain_mode",
            "Lender-warm_start",
            "CaseStudyConfig-warm_start",
            "CampaignSpec-retrain_modes",
            "CampaignSpec-warm_start",
            "fit-initial_parameters",
        ],
    )
    def test_constructors_refuse_them(self, build, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            build(**{keyword: value})

    def test_the_shim_stays_out_of_fingerprints_and_job_ids(self):
        config = CaseStudyConfig()
        fields = trajectory_fingerprint_fields(config)
        assert config.retrain_mode not in fields
        assert fields[-1] == config.seed
        (job,) = expand_campaign(
            CampaignSpec(population_sizes=(40,), seeds=(3,), end_year=2004)
        )
        assert job.job_id.split("/")[2:] == ["u40", "seed3"]

    def test_a_version_1_cache_misses(self, tmp_path, monkeypatch):
        spec = CampaignSpec(
            population_sizes=(40,), seeds=(3,), num_trials=1, end_year=2004
        )
        with monkeypatch.context() as old:
            old.setattr("repro.campaign.cache.CACHE_VERSION", 1)
            assert run_campaign(spec, tmp_path).hit_rate == 0.0
            assert run_campaign(spec, tmp_path).hit_rate == 1.0
        assert run_campaign(spec, tmp_path).hit_rate == 0.0
        assert run_campaign(spec, tmp_path).hit_rate == 1.0
