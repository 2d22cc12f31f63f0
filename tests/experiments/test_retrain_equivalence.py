"""Retrain-mode equivalence suite: compression never changes a decision.

``retrain_mode="exact"`` is the bit-exact reproduction path and must keep
matching the pinned engine goldens (its IRLS iteration is untouched by the
sufficient-statistics machinery).  ``retrain_mode="compressed"`` optimises
the *same* penalised likelihood on the deduplicated count table, so its
coefficients agree with exact to solver tolerance — and because decisions
threshold the score at 0.4 with macroscopic margins, the decision vectors
are *identical* at paper scale, which in turn makes the whole trajectory
bit-identical (every random draw downstream of the decisions replays).

The suite pins:

* exact mode (explicitly requested) against the golden digests of
  ``test_engine_equivalence.py``;
* compressed vs exact: identical decision/action/rate matrices at paper
  scale (1000 users, full 2002-2020 window) across three seeds, plus
  final-scorecard coefficient agreement ``<= 1e-9``;
* warm-started refits: same decision vectors at paper scale.

(The lockstep kernel's per-thread count tables merge into the
whole-population table bit for bit; ``test_kernel_threads.py`` pins the
refit coefficients across thread counts.)

The CI retrain-matrix job runs this file once per (mode, execution) cell
with ``REPRO_TEST_RETRAIN_MODE`` / ``REPRO_TEST_EXECUTION`` set; the
execution values are the planner's layout names (``serial``, ``batch``).
Without the variables every combination is covered, and so is ``shard``:
the second name for ``batch`` that the benchmark harness still plans, which
must keep every retrain-mode guarantee of the kernel it names.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment, run_trial

from tests.experiments.harness import ENGINE_GOLDEN, digest

PAPER_SEEDS = (20240101, 777, 31415)


def _modes() -> tuple:
    override = os.environ.get("REPRO_TEST_RETRAIN_MODE")
    if override:
        return (override,)
    return ("exact", "compressed")


def _executions() -> tuple:
    override = os.environ.get("REPRO_TEST_EXECUTION")
    if override:
        return (override,)
    return ("serial", "batch", "shard")


MODES = _modes()
EXECUTIONS = _executions()


def _execution_trial(config, trial_index: int, retrain_mode: str, execution: str):
    """Run one trial under the given execution layout.

    ``serial`` drives :func:`run_trial` directly; ``batch`` (and its second
    name ``shard``) runs the whole experiment on the trial-batched engine,
    whose trial rows are bit-identical to their serial twins — so every
    retrain-mode guarantee must hold there cell for cell too.
    """
    config = replace(config, retrain_mode=retrain_mode, execution=execution)
    if execution in ("batch", "shard"):
        return run_experiment(config).trials[trial_index]
    return run_trial(config, trial_index=trial_index)


def _final_card_points(trial_seed: int, num_users: int, mode: str, **kwargs):
    """Run one closed loop directly and return the final scorecard params."""
    from repro.core.ai_system import CreditScoringSystem
    from repro.core.filters import DefaultRateFilter
    from repro.core.loop import ClosedLoop
    from repro.core.population import CreditPopulation
    from repro.credit.lender import Lender
    from repro.data.synthetic import PopulationSpec, generate_population

    rng = np.random.default_rng(trial_seed)
    population = CreditPopulation(
        population=generate_population(PopulationSpec(size=num_users), rng)
    )
    system = CreditScoringSystem(Lender(retrain_mode=mode, **kwargs))
    loop = ClosedLoop(
        ai_system=system,
        population=population,
        loop_filter=DefaultRateFilter(num_users=num_users),
    )
    history = loop.run(19, rng=trial_seed)
    card = system.lender.scorecard
    points = {factor.name: factor.points for factor in card.factors}
    points["__base__"] = card.base_score
    return history, points


class TestExactModeIsThePinnedPath:
    """Explicitly requested exact mode reproduces the engine goldens."""

    def test_defaults_are_exact(self):
        from repro.credit.lender import Lender

        assert CaseStudyConfig().retrain_mode == "exact"
        assert not CaseStudyConfig().warm_start
        assert Lender().retrain_mode == "exact"

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_exact_matches_engine_goldens(self, execution):
        if "exact" not in MODES:
            pytest.skip("matrix cell covers compressed mode only")
        config = CaseStudyConfig().scaled(num_users=200, num_trials=2)
        trial = _execution_trial(config, 0, "exact", execution)
        assert (
            digest(trial.history.decisions_matrix())
            == ENGINE_GOLDEN["trial0_decisions"]
        )
        assert digest(trial.history.actions_matrix()) == ENGINE_GOLDEN["trial0_actions"]
        assert digest(trial.user_default_rates) == ENGINE_GOLDEN["trial0_user_rates"]


class TestCompressedMatchesExact:
    """Identical decision vectors — hence identical trajectories — at paper scale."""

    @pytest.mark.parametrize("seed", PAPER_SEEDS)
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_decision_vectors_identical_at_paper_scale(self, seed, execution):
        if "compressed" not in MODES:
            pytest.skip("matrix cell covers exact mode only")
        config = CaseStudyConfig(num_users=1000, num_trials=1, seed=seed)
        exact = run_trial(config, trial_index=0)
        compressed = _execution_trial(config, 0, "compressed", execution)
        assert np.array_equal(
            exact.history.decisions_matrix(), compressed.history.decisions_matrix()
        )
        assert np.array_equal(
            exact.history.actions_matrix(), compressed.history.actions_matrix()
        )
        assert np.array_equal(
            exact.user_default_rates, compressed.user_default_rates
        )

    @pytest.mark.parametrize("seed", PAPER_SEEDS)
    def test_final_coefficients_agree_to_solver_tolerance(self, seed):
        if "compressed" not in MODES:
            pytest.skip("matrix cell covers exact mode only")
        _, exact_points = _final_card_points(seed, 1000, "exact")
        _, compressed_points = _final_card_points(seed, 1000, "compressed")
        for name, value in exact_points.items():
            assert compressed_points[name] == pytest.approx(value, abs=1e-9), name


class TestWarmStart:
    def test_warm_start_keeps_paper_scale_decisions(self):
        if "compressed" not in MODES:
            pytest.skip("matrix cell covers exact mode only")
        config = CaseStudyConfig(num_users=1000, num_trials=1, retrain_mode="compressed")
        cold = run_trial(config, trial_index=0)
        warm = run_trial(replace(config, warm_start=True), trial_index=0)
        assert np.array_equal(
            cold.history.decisions_matrix(), warm.history.decisions_matrix()
        )
