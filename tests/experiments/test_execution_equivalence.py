"""Cross-layout differential suite: every ``execution`` mode, one stream.

The execution planner (:mod:`repro.core.planner`) puts the serial loop,
the trial-batched tensor engine and the trial process pool behind one
knob.  Its contract is that the knob
is *purely* a wall-clock choice: whatever layout the planner picks — on
whatever machine — the trajectories are bit-identical to the serial
reference pinned by :data:`tests.experiments.harness.ENGINE_GOLDEN`.

This suite is the consolidated harness behind that claim:

* every ``execution`` mode reproduces the engine goldens, in both history
  modes (the CI execution-matrix job runs one mode per cell via
  ``REPRO_TEST_EXECUTION_MODE``; without it every mode runs);
* ``execution="auto"`` is bit-identical across *core counts* (the plan
  changes, the stream must not) — the property that makes the knob safe
  to bake into configs shared between laptops and CI runners;
* ``run_experiment`` plans once per run, and ``run_trial`` runs the
  serial loop without planning;
* forbidden combinations fail at configuration time with actionable
  errors, not at step 900 of a trial.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import planner
from repro.core.streaming import AggregateHistory
from repro.experiments import runner as runner_module
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment, run_trial

from tests.experiments.harness import (
    ENGINE_GOLDEN,
    assert_experiments_identical,
    digest,
    execution_modes,
    expected_group_digests,
    experiment_digests,
    group_digests,
)

EXECUTIONS = execution_modes()


class TestExecutionModesMatchGoldens:
    """Each planner-chosen layout reproduces the pinned golden stream."""

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_full_history_matches_engine_goldens(self, golden_config, execution):
        result = run_experiment(replace(golden_config, execution=execution))
        assert experiment_digests(result) == ENGINE_GOLDEN

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_aggregate_history_matches_group_goldens(self, golden_config, execution):
        result = run_experiment(
            replace(golden_config, history_mode="aggregate", execution=execution)
        )
        observed = {}
        expected = {}
        for index, trial in enumerate(result.trials):
            assert isinstance(trial.history, AggregateHistory)
            observed.update(group_digests(trial, index, portfolio=True))
            expected.update(expected_group_digests(index, portfolio=True))
        assert observed == expected

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_run_trial_matches_trial0_goldens(self, golden_config, execution):
        trial = run_trial(replace(golden_config, execution=execution), trial_index=0)
        assert (
            digest(trial.history.decisions_matrix())
            == ENGINE_GOLDEN["trial0_decisions"]
        )
        assert digest(trial.history.actions_matrix()) == ENGINE_GOLDEN["trial0_actions"]
        assert digest(trial.user_default_rates) == ENGINE_GOLDEN["trial0_user_rates"]


class TestAutoIsPureWallClock:
    """The auto plan varies with the host; the stream must not."""

    @pytest.mark.parametrize("cores", [1, 4, 16])
    def test_bit_identical_across_core_counts(
        self, golden_config, golden_serial_result, cores, monkeypatch
    ):
        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: cores)
        result = run_experiment(replace(golden_config, execution="auto"))
        assert_experiments_identical(golden_serial_result, result)


class TestKnobPlumbing:
    """The config knob reaches the planner from ``run_experiment``."""

    def test_execution_defaults_to_serial(self):
        assert CaseStudyConfig().execution == "serial"

    @staticmethod
    def _planner_calls(monkeypatch):
        """Record ``(execution, trials)`` of every plan the runner makes."""
        calls = []

        def spy(execution, **workload):
            calls.append((execution, workload["trials"]))
            return planner.plan_execution(execution, **workload)

        monkeypatch.setattr(runner_module, "plan_execution", spy)
        return calls

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_run_trial_runs_the_serial_loop_without_planning(
        self, golden_config, execution, monkeypatch
    ):
        calls = self._planner_calls(monkeypatch)
        trial = run_trial(replace(golden_config, execution=execution), trial_index=0)
        assert calls == []
        assert (
            digest(trial.history.decisions_matrix())
            == ENGINE_GOLDEN["trial0_decisions"]
        )

    @pytest.mark.parametrize("execution", ["serial", "batch", "shard"])
    def test_run_experiment_plans_once_for_every_trial(
        self, golden_config, execution, monkeypatch
    ):
        # One plan covers the whole run: its trials execute it as given,
        # never re-planning per trial.
        calls = self._planner_calls(monkeypatch)
        run_experiment(replace(golden_config, execution=execution))
        assert calls == [(execution, golden_config.num_trials)]

    def test_run_trial_shard_matches_experiment_shard(self, golden_config):
        trial = run_trial(replace(golden_config, execution="shard"), trial_index=0)
        assert np.array_equal(
            trial.user_default_rates,
            run_trial(golden_config, trial_index=0).user_default_rates,
        )


class TestForbiddenCombosFailAtConfigTime:
    """Bad knob combinations are rejected before any work starts."""

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="execution"):
            CaseStudyConfig(execution="turbo")

    def test_none_is_not_a_mode(self):
        with pytest.raises(ValueError, match="execution"):
            CaseStudyConfig(execution=None)

    def test_batch_mode_rejects_checkpointing(self, tmp_path):
        with pytest.raises(ValueError, match="incompatible with checkpointing"):
            CaseStudyConfig(
                execution="batch",
                checkpoint_dir=str(tmp_path),
                checkpoint_every=5,
            )

    @pytest.mark.parametrize(
        "knobs", [{"checkpoint_every": 5}, {"resume": True}], ids=["every", "resume"]
    )
    def test_shard_alias_rejects_checkpointing_like_batch(self, tmp_path, knobs):
        # "shard" is batch's second name, so it names the same kernel,
        # which has no per-trial boundary to snapshot or resume from.
        with pytest.raises(ValueError, match="execution='shard'.*checkpointing"):
            CaseStudyConfig(execution="shard", checkpoint_dir=str(tmp_path), **knobs)
