"""Chaos suite: checkpoint/resume and the trial pool under injected faults.

Every scenario follows the same shape: run the scaled case study once,
uninterrupted, as the golden; then run it again with a deterministic fault
armed (worker kill, raised exception, hang, torn or failed checkpoint
write) at a chosen ``(trial, step)`` coordinate; recover — supervised
retry, serial fallback, or explicit ``resume`` — and assert the recovered
trajectory is **bit-identical** to the golden.  Bit-identity is the paper
repository's core invariant (stateless per ``(trial, shard, step)`` random
streams), so fault tolerance must never cost a single bit.
"""

from __future__ import annotations

import copyreg
import errno
import io
import os
import pickle
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import checkpoint as checkpoint_module
from repro.core.checkpoint import (
    CheckpointError,
    checkpoint_path,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.streaming import StreamingAggregator
from repro.core.supervision import SupervisorPolicy
from repro.experiments import runner as runner_module
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment, run_trial
from repro.testing.faults import (
    FAULTS_ENV,
    FaultInjected,
    FaultSpec,
    clear_plan,
    install_plan,
    plan_environment,
)

#: A supervisor that retries instantly (chaos tests should not sleep) and
#: treats >5 s of silence as a hang — orders of magnitude above a step.
FAST_SUPERVISOR = SupervisorPolicy(max_retries=2, timeout=5.0, backoff_base=0.0)


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No fault plan may leak between tests (or out of the suite)."""
    clear_plan()
    os.environ.pop(FAULTS_ENV, None)
    yield
    clear_plan()
    os.environ.pop(FAULTS_ENV, None)


@pytest.fixture(scope="module")
def ft_config() -> CaseStudyConfig:
    return CaseStudyConfig(num_users=60, num_trials=3, seed=424)


@pytest.fixture(scope="module")
def golden_trial(ft_config):
    return run_trial(ft_config, trial_index=0)


@pytest.fixture(scope="module")
def golden_experiment(ft_config):
    return run_experiment(ft_config)


def _checkpointed(config, directory, every=0, **changes):
    """Return ``config`` checkpointing into ``directory`` every ``every`` steps."""
    return replace(
        config, checkpoint_dir=str(directory), checkpoint_every=every, **changes
    )


def assert_trials_identical(left, right):
    np.testing.assert_array_equal(
        left.history.decisions_matrix(), right.history.decisions_matrix()
    )
    np.testing.assert_array_equal(
        left.history.actions_matrix(), right.history.actions_matrix()
    )
    np.testing.assert_array_equal(left.user_default_rates, right.user_default_rates)
    np.testing.assert_array_equal(left.races, right.races)
    for race, series in left.group_default_rates.items():
        np.testing.assert_array_equal(series, right.group_default_rates[race])


class _PreFoldPickler(pickle.Pickler):
    """Pickles aggregators the way builds without a group fold did.

    Their whole attribute dict minus ``_fold``, bypassing the class's own
    pickling hooks.
    """

    def reducer_override(self, obj):
        if isinstance(obj, StreamingAggregator):
            state = {name: value for name, value in vars(obj).items() if name != "_fold"}
            return copyreg.__newobj__, (type(obj),), state
        return NotImplemented


def _dumps_without_group_fold(payload, protocol):
    buffer = io.BytesIO()
    _PreFoldPickler(buffer, protocol).dump(payload)
    return buffer.getvalue()


def assert_experiments_identical(left, right):
    assert len(left.trials) == len(right.trials)
    for trial_left, trial_right in zip(left.trials, right.trials):
        assert_trials_identical(trial_left, trial_right)


class TestCheckpointResume:
    """Interrupted-and-resumed trials replay the uninterrupted bytes."""

    def test_resumed_trial_is_bit_identical(self, ft_config, golden_trial, tmp_path):
        install_plan([FaultSpec(site="loop_step", kind="raise", step=8)])
        with pytest.raises(FaultInjected):
            run_trial(_checkpointed(ft_config, tmp_path, 3), trial_index=0)
        # The crash left the step-3 and step-6 snapshots behind.
        assert [s for s, _ in list_checkpoints(tmp_path, "trial-0000")] == [6, 3]
        resumed = run_trial(
            _checkpointed(ft_config, tmp_path, 3, resume=True),
            trial_index=0,
        )
        assert_trials_identical(golden_trial, resumed)

    def test_resume_with_no_snapshot_starts_from_scratch(
        self, ft_config, golden_trial, tmp_path
    ):
        resumed = run_trial(
            _checkpointed(ft_config, tmp_path, 5, resume=True),
            trial_index=0,
        )
        assert_trials_identical(golden_trial, resumed)

    def test_resume_across_aggregate_history_mode(self, ft_config, tmp_path):
        golden = run_trial(replace(ft_config, history_mode="aggregate"), trial_index=0)
        install_plan([FaultSpec(site="loop_step", kind="raise", step=10)])
        with pytest.raises(FaultInjected):
            run_trial(
                _checkpointed(ft_config, tmp_path, 4, history_mode="aggregate"),
                trial_index=0,
            )
        resumed = run_trial(
            _checkpointed(
                ft_config, tmp_path, 4, history_mode="aggregate", resume=True
            ),
            trial_index=0,
        )
        for race, series in golden.group_default_rates.items():
            np.testing.assert_array_equal(series, resumed.group_default_rates[race])

    def test_resume_from_snapshot_pickled_before_the_group_fold(
        self, ft_config, tmp_path, monkeypatch
    ):
        # Aggregate-mode snapshots written before the aggregators owned a
        # GroupFold pickle the aggregator's attribute dict without one.
        # Resume must rebuild the fold, not fail on the next recorded step.
        golden = run_trial(replace(ft_config, history_mode="aggregate"), trial_index=0)
        install_plan([FaultSpec(site="loop_step", kind="raise", step=10)])
        with pytest.raises(FaultInjected):
            run_trial(
                _checkpointed(ft_config, tmp_path, 4, history_mode="aggregate"),
                trial_index=0,
            )
        newest = list_checkpoints(tmp_path, "trial-0000")[0][1]
        payload = read_checkpoint(newest)
        with monkeypatch.context() as patch:
            patch.setattr(
                checkpoint_module,
                "pickle",
                SimpleNamespace(
                    dumps=_dumps_without_group_fold,
                    HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
                ),
            )
            write_checkpoint(newest, payload)
        with open(newest, "rb") as handle:
            assert b"GroupFold" not in handle.read()
        resumed = run_trial(
            _checkpointed(
                ft_config, tmp_path, 4, history_mode="aggregate", resume=True
            ),
            trial_index=0,
        )
        for race, series in golden.group_default_rates.items():
            np.testing.assert_array_equal(series, resumed.group_default_rates[race])

    def test_checkpoints_fingerprinted_with_the_retired_refit_knobs_are_refused(
        self, ft_config, tmp_path, monkeypatch
    ):
        # Before the count-table fit became the one refit, the trajectory
        # fields ended in (retrain_mode, warm_start).  A directory written
        # then must be refused as another configuration's, never served.
        snapshots, results = tmp_path / "snapshots", tmp_path / "results"
        fields = runner_module.trajectory_fingerprint_fields
        with monkeypatch.context() as old:
            old.setattr(
                runner_module,
                "trajectory_fingerprint_fields",
                lambda config: (*fields(config), "exact", False),
            )
            install_plan([FaultSpec(site="loop_step", kind="raise", step=8)])
            with pytest.raises(FaultInjected):
                run_trial(_checkpointed(ft_config, snapshots, 3), trial_index=0)
            clear_plan()
            run_experiment(_checkpointed(ft_config, results))
        with pytest.raises(CheckpointError, match="different\\s+configuration"):
            run_trial(
                _checkpointed(ft_config, snapshots, 3, resume=True), trial_index=0
            )
        with pytest.raises(CheckpointError, match="different\\s+configuration"):
            run_experiment(_checkpointed(ft_config, results, resume=True))

    def test_torn_newest_snapshot_falls_back_one_boundary(
        self, ft_config, golden_trial, tmp_path
    ):
        install_plan([FaultSpec(site="loop_step", kind="raise", step=8)])
        with pytest.raises(FaultInjected):
            run_trial(_checkpointed(ft_config, tmp_path, 3), trial_index=0)
        # Tear the newest snapshot (step 6) the way a mid-rename power cut
        # would; recovery must detect it and fall back to step 3.
        newest = list_checkpoints(tmp_path, "trial-0000")[0][1]
        with open(newest, "r+b") as handle:
            handle.truncate(os.path.getsize(newest) // 2)
        with pytest.warns(RuntimeWarning, match="skipping unreadable checkpoint"):
            resumed = run_trial(
                _checkpointed(ft_config, tmp_path, 3, resume=True),
                trial_index=0,
            )
        assert_trials_identical(golden_trial, resumed)

    def test_injected_torn_write_recovers_from_scratch(
        self, ft_config, golden_trial, tmp_path
    ):
        # The torn_write fault chops the *first* landed snapshot (step 3);
        # interrupting before the next boundary leaves only the torn file,
        # so resume degrades all the way to a fresh start — still
        # bit-identical.
        install_plan(
            [
                FaultSpec(site="checkpoint_write", kind="torn_write"),
                FaultSpec(site="loop_step", kind="raise", step=5),
            ]
        )
        with pytest.raises(FaultInjected):
            run_trial(_checkpointed(ft_config, tmp_path, 3), trial_index=0)
        with pytest.warns(RuntimeWarning, match="skipping unreadable checkpoint"):
            resumed = run_trial(
                _checkpointed(ft_config, tmp_path, 3, resume=True),
                trial_index=0,
            )
        assert_trials_identical(golden_trial, resumed)

    def test_fingerprint_mismatch_is_rejected_with_guidance(
        self, ft_config, tmp_path
    ):
        install_plan([FaultSpec(site="loop_step", kind="raise", step=8)])
        with pytest.raises(FaultInjected):
            run_trial(_checkpointed(ft_config, tmp_path, 3), trial_index=0)
        other = CaseStudyConfig(num_users=60, num_trials=3, seed=425)
        with pytest.raises(CheckpointError, match="different\\s+configuration"):
            run_trial(_checkpointed(other, tmp_path, 3, resume=True), trial_index=0)


class TestExperimentResume:
    def test_completed_trials_are_skipped_on_resume(
        self, ft_config, golden_experiment, tmp_path
    ):
        first = run_experiment(_checkpointed(ft_config, tmp_path))
        assert_experiments_identical(golden_experiment, first)

        def exploding_factory(config, population):  # pragma: no cover - must not run
            raise AssertionError("resume re-ran an already-completed trial")

        resumed = run_experiment(
            _checkpointed(ft_config, tmp_path, resume=True),
            policy_factory=exploding_factory,
        )
        assert_experiments_identical(golden_experiment, resumed)

    def test_partial_experiment_resumes_the_missing_trials(
        self, ft_config, golden_experiment, tmp_path
    ):
        run_experiment(_checkpointed(ft_config, tmp_path))
        # Lose trial 1's persisted result; resume must re-run exactly it.
        (tmp_path / "trial-0001.result").unlink()
        resumed = run_experiment(_checkpointed(ft_config, tmp_path, resume=True))
        assert_experiments_identical(golden_experiment, resumed)

    def test_unreadable_result_file_is_rerun_with_warning(
        self, ft_config, golden_experiment, tmp_path
    ):
        run_experiment(_checkpointed(ft_config, tmp_path))
        (tmp_path / "trial-0002.result").write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="re-running trial 2"):
            resumed = run_experiment(_checkpointed(ft_config, tmp_path, resume=True))
        assert_experiments_identical(golden_experiment, resumed)

    @pytest.mark.parametrize(
        "layout",
        [{}, {"execution": "pool", "max_workers": 2}],
        ids=["serial", "pool"],
    )
    def test_failed_result_write_keeps_the_computed_experiment(
        self, ft_config, golden_experiment, tmp_path, monkeypatch, layout
    ):
        # A full disk while persisting a finished trial costs its result
        # file, never the computed trial.  The parent persists pooled
        # trials as they arrive, so the pool must not lose them either.
        def full_disk(path, payload):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        with monkeypatch.context() as patch:
            patch.setattr(runner_module, "write_checkpoint", full_disk)
            with pytest.warns(RuntimeWarning, match="could not persist") as caught:
                result = run_experiment(
                    _checkpointed(ft_config, tmp_path, **layout),
                    supervisor=FAST_SUPERVISOR,
                )
        assert_experiments_identical(golden_experiment, result)
        for index in range(ft_config.num_trials):
            assert any(
                f"trial-{index:04d}.result" in str(warning.message)
                for warning in caught
            )
        assert not any("pool failure" in str(w.message) for w in caught)
        assert not any(tmp_path.iterdir())
        # The next resume finds nothing on disk and recomputes every trial.
        resumed = run_experiment(_checkpointed(ft_config, tmp_path, resume=True))
        assert_experiments_identical(golden_experiment, resumed)
        assert len(list(tmp_path.glob("*.result"))) == ft_config.num_trials

    @pytest.mark.parametrize(
        "execution", ["serial", "batch", "pool", "shard", "auto"]
    )
    def test_every_execution_mode_saves_the_same_results(
        self, ft_config, golden_experiment, tmp_path, execution
    ):
        directory = tmp_path / execution
        result = run_experiment(_checkpointed(ft_config, directory, execution=execution))
        assert_experiments_identical(golden_experiment, result)
        expected = [f"trial-{index:04d}.result" for index in range(ft_config.num_trials)]
        assert sorted(path.name for path in directory.iterdir()) == expected
        for trial, name in zip(golden_experiment.trials, expected):
            saved = read_checkpoint(directory / name)["group_rates"]
            for race, series in trial.group_default_rates.items():
                np.testing.assert_array_equal(saved[race], series)

        def exploding_factory(config, population):  # pragma: no cover - must not run
            raise AssertionError("resume re-ran a trial whose result was saved")

        resumed = run_experiment(
            _checkpointed(ft_config, directory, resume=True),
            policy_factory=exploding_factory,
        )
        assert_experiments_identical(golden_experiment, resumed)


    @pytest.mark.parametrize("execution", ["serial", "pool", "auto"])
    def test_kernel_results_resume_under_every_resumable_layout(
        self, ft_config, golden_experiment, tmp_path, execution
    ):
        # The kernel cannot resume itself (it has no per-trial boundary),
        # but the results it saved are the same files every other layout
        # skips on.
        run_experiment(_checkpointed(ft_config, tmp_path, execution="batch"))

        def exploding_factory(config, population):  # pragma: no cover - must not run
            raise AssertionError("resume re-ran a trial whose result was saved")

        resumed = run_experiment(
            _checkpointed(
                ft_config, tmp_path, execution=execution, max_workers=2, resume=True
            ),
            policy_factory=exploding_factory,
        )
        assert_experiments_identical(golden_experiment, resumed)


class TestFailedSnapshotWrites:
    """A full disk costs step snapshots, never the trial computing past them."""

    @staticmethod
    def _fail_snapshot_writes(patch, from_step=0):
        """Make ``.ckpt`` writes of step ``from_step`` on raise ``ENOSPC``."""
        real_write = checkpoint_module.write_checkpoint

        def write(path, payload):
            if str(path).endswith(".ckpt") and int(payload["step"]) >= from_step:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return real_write(path, payload)

        patch.setattr(checkpoint_module, "write_checkpoint", write)

    @pytest.mark.parametrize(
        "layout",
        [{}, {"execution": "pool", "max_workers": 2}],
        ids=["serial", "pool"],
    )
    def test_lost_snapshots_keep_the_computed_experiment(
        self, ft_config, golden_experiment, tmp_path, monkeypatch, layout
    ):
        snapshots = tmp_path / "snapshots"
        log = tmp_path / "warnings.log"

        def log_warning(message, category, filename, lineno, file=None, line=None):
            # Pool workers are forked inside the block and inherit this
            # hook, so their warnings land in the same file.
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{category.__name__}: {message}\n")

        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = log_warning
            self._fail_snapshot_writes(patch)
            result = run_experiment(
                _checkpointed(ft_config, snapshots, 2, **layout),
                supervisor=FAST_SUPERVISOR,
            )
        assert_experiments_identical(golden_experiment, result)
        lines = log.read_text(encoding="utf-8").splitlines()
        lost = [line for line in lines if "could not write the step snapshot" in line]
        assert all(line.startswith("RuntimeWarning: ") for line in lost)
        expected = [
            str(checkpoint_path(snapshots, f"trial-{index:04d}", step))
            for index in range(ft_config.num_trials)
            for step in range(2, ft_config.num_steps + 1, 2)
        ]
        assert len(lost) == len(expected) == 27
        for path in expected:
            assert sum(path in line for line in lost) == 1
        assert not any("pool failure" in line for line in lines)
        assert sorted(path.name for path in snapshots.iterdir()) == [
            f"trial-{index:04d}.result" for index in range(ft_config.num_trials)
        ]

    def test_a_later_lost_snapshot_leaves_the_earlier_resume_point(
        self, ft_config, golden_trial, tmp_path, monkeypatch
    ):
        install_plan([FaultSpec(site="loop_step", kind="raise", step=14)])
        with monkeypatch.context() as patch:
            self._fail_snapshot_writes(patch, from_step=9)
            with pytest.warns(RuntimeWarning, match="could not write") as caught:
                with pytest.raises(FaultInjected):
                    run_trial(_checkpointed(ft_config, tmp_path, 3), trial_index=0)
        lost = [
            str(warning.message)
            for warning in caught
            if "could not write the step snapshot" in str(warning.message)
        ]
        assert len(lost) == 2
        for message, step in zip(lost, (9, 12)):
            assert str(checkpoint_path(tmp_path, "trial-0000", step)) in message
        # Only the failed snapshots are missing: the ones that landed
        # stay, and the newest of them is the resume point.
        assert [step for step, _ in list_checkpoints(tmp_path, "trial-0000")] == [6, 3]
        resumed = run_trial(
            _checkpointed(ft_config, tmp_path, 3, resume=True), trial_index=0
        )
        assert_trials_identical(golden_trial, resumed)


def _trial_pool(config):
    """Return ``config`` on a two-worker trial pool."""
    return replace(config, execution="pool", max_workers=2)


class TestSupervisedTrialPool:
    """Satellite (a): a worker death mid-experiment no longer sinks it."""

    def test_worker_kill_mid_experiment_is_recovered(
        self, ft_config, golden_experiment, tmp_path
    ):
        os.environ.update(
            plan_environment(
                [FaultSpec(site="trial_worker", kind="kill", trial=1)],
                state_dir=tmp_path,
            )
        )
        with pytest.warns(RuntimeWarning, match="parallel trial pool failure"):
            recovered = run_experiment(
                _trial_pool(ft_config), supervisor=FAST_SUPERVISOR
            )
        assert_experiments_identical(golden_experiment, recovered)

    def test_worker_exception_is_retried(
        self, ft_config, golden_experiment, tmp_path
    ):
        os.environ.update(
            plan_environment(
                [FaultSpec(site="trial_worker", kind="raise", trial=2)],
                state_dir=tmp_path,
            )
        )
        with pytest.warns(
            RuntimeWarning, match=r"trial 2 raised FaultInjected\(.*\); retrying it"
        ) as caught:
            recovered = run_experiment(
                _trial_pool(ft_config), supervisor=FAST_SUPERVISOR
            )
        assert len(caught) == 1  # a raise neither rebuilds the pool nor falls back
        assert_experiments_identical(golden_experiment, recovered)

    def test_exhausted_trial_budget_degrades_to_serial(
        self, ft_config, golden_experiment, tmp_path
    ):
        # max_retries=0: the first worker failure already exhausts the
        # budget, so trial 0 degrades to the in-process serial path (the
        # once-claim marker lets the serial re-run pass through cleanly).
        os.environ.update(
            plan_environment(
                [FaultSpec(site="trial_worker", kind="raise", trial=0)],
                state_dir=tmp_path,
            )
        )
        with pytest.warns(RuntimeWarning, match="trial 0 raised"), pytest.warns(
            RuntimeWarning, match="trial 0 exhausted its retry budget"
        ):
            recovered = run_experiment(
                _trial_pool(ft_config),
                supervisor=SupervisorPolicy(max_retries=0, backoff_base=0.0),
            )
        assert_experiments_identical(golden_experiment, recovered)

    def test_killed_experiment_resumes_from_persisted_results(
        self, ft_config, golden_experiment, tmp_path
    ):
        # End-to-end kill-and-resume: trial 1's worker dies *and* the
        # retry budget is zero, so the experiment run raises nothing but
        # degrades trial 1 to the serial path; a fresh resume run then
        # skips everything already on disk.
        state = tmp_path / "faults"
        snapshots = tmp_path / "snapshots"
        os.environ.update(
            plan_environment(
                [FaultSpec(site="trial_worker", kind="kill", trial=1)],
                state_dir=state,
            )
        )
        with pytest.warns(RuntimeWarning, match="parallel trial pool failure"):
            first = run_experiment(
                _trial_pool(_checkpointed(ft_config, snapshots)),
                supervisor=FAST_SUPERVISOR,
            )
        assert_experiments_identical(golden_experiment, first)
        os.environ.pop(FAULTS_ENV)
        resumed = run_experiment(_checkpointed(ft_config, snapshots, resume=True))
        assert_experiments_identical(golden_experiment, resumed)


    def test_hung_worker_times_out_and_is_retried(
        self, ft_config, golden_experiment, tmp_path
    ):
        os.environ.update(
            plan_environment(
                [FaultSpec(site="trial_worker", kind="hang", trial=1, delay=3600.0)],
                state_dir=tmp_path,
            )
        )
        # A tight deadline keeps the test short; a spurious timeout on a
        # slow host only costs a bit-identical retry.
        supervisor = SupervisorPolicy(max_retries=2, timeout=2.0, backoff_base=0.0)
        with pytest.warns(RuntimeWarning, match="supervision timeout"):
            recovered = run_experiment(_trial_pool(ft_config), supervisor=supervisor)
        assert_experiments_identical(golden_experiment, recovered)

    @staticmethod
    def _log_restored_steps(patch, log):
        """Append the step of every snapshot a loop restores to ``log``.

        Pool workers are forked after the patch, so they log too.
        """
        from repro.core.loop import ClosedLoop

        real_restore = ClosedLoop.restore_snapshot

        def restore(self, payload):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{int(payload['step'])}\n")
            return real_restore(self, payload)

        patch.setattr(ClosedLoop, "restore_snapshot", restore)

    @pytest.mark.parametrize("kind", ["kill", "raise"])
    def test_kill_with_checkpoints_retries_from_the_boundary(
        self, ft_config, golden_experiment, tmp_path, monkeypatch, kind
    ):
        # The first trial to reach step 11 fails there; its retry picks
        # up the step-9 snapshot the failed attempt left, not step 0.
        state = tmp_path / "faults"
        snapshots = tmp_path / "snapshots"
        log = tmp_path / "restored.log"
        os.environ.update(
            plan_environment(
                [FaultSpec(site="loop_step", kind=kind, step=11)], state_dir=state
            )
        )
        with monkeypatch.context() as patch:
            self._log_restored_steps(patch, log)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                recovered = run_experiment(
                    _trial_pool(_checkpointed(ft_config, snapshots, 3)),
                    supervisor=FAST_SUPERVISOR,
                )
        assert_experiments_identical(golden_experiment, recovered)
        assert 9 in [int(line) for line in log.read_text().split()]
        pool_failures = [w for w in caught if "pool failure" in str(w.message)]
        raises = [w for w in caught if "retrying it" in str(w.message)]
        # A dead worker breaks the pool; a raise only retries its trial.
        assert bool(pool_failures) == (kind == "kill")
        assert bool(raises) == (kind == "raise")


class TestCrossPlanResume:
    """``execution="auto"`` resumes bit-for-bit under a different plan.

    Plans are excluded from checkpoint fingerprints, so a run interrupted
    on a 1-core host must resume on an 8-core host under a different
    layout without a fingerprint rejection — and land on the uninterrupted
    trajectory exactly.
    """

    def test_auto_resume_across_core_counts(
        self, ft_config, golden_trial, tmp_path, monkeypatch
    ):
        from repro.core import planner

        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 1)
        install_plan([FaultSpec(site="loop_step", kind="raise", step=8)])
        with pytest.raises(FaultInjected):
            run_trial(
                _checkpointed(ft_config, tmp_path, 3, execution="auto"),
                trial_index=0,
            )
        clear_plan()
        # Resume on a "different host" under a different execution value:
        # the layout is not part of the fingerprint, so the checkpoint
        # must still be accepted and replayed.
        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 8)
        resumed = run_trial(
            _checkpointed(ft_config, tmp_path, 3, execution="pool", resume=True),
            trial_index=0,
        )
        assert_trials_identical(golden_trial, resumed)

    def test_auto_experiment_resume_skips_completed_trials(
        self, ft_config, golden_experiment, tmp_path, monkeypatch
    ):
        from repro.core import planner

        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 1)
        first = run_experiment(_checkpointed(ft_config, tmp_path, execution="auto"))
        assert_experiments_identical(golden_experiment, first)
        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 8)
        resumed = run_experiment(
            _checkpointed(ft_config, tmp_path, execution="auto", resume=True)
        )
        assert_experiments_identical(golden_experiment, resumed)


class TestKnobValidation:
    """Satellite (b): bad knob combinations fail at configuration time."""

    def test_resume_requires_a_checkpoint_dir(self):
        with pytest.raises(ValueError, match="--checkpoint-dir"):
            CaseStudyConfig(resume=True)

    def test_checkpoint_every_requires_a_checkpoint_dir(self):
        with pytest.raises(ValueError, match="--checkpoint-dir"):
            CaseStudyConfig(checkpoint_every=5)

    def test_negative_checkpoint_every_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            CaseStudyConfig(checkpoint_dir=str(tmp_path), checkpoint_every=-1)
