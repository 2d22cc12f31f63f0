"""Chaos suite: checkpoint/resume and supervised pools under injected faults.

Every scenario follows the same shape: run the scaled case study once,
uninterrupted, as the golden; then run it again with a deterministic fault
armed (worker kill, raised exception, hang, torn checkpoint write) at a
chosen ``(trial, shard, step)`` coordinate; recover — supervised retry,
serial fallback, or explicit ``resume`` — and assert the recovered
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
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import checkpoint as checkpoint_module
from repro.core.checkpoint import (
    CheckpointError,
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

#: 60 users over the paper's 19 years: two pooled workers split the eight
#: canonical shards as ids [0..3] (worker 0) and [4..7] (worker 1), so a
#: fault pinned to ``shard=4`` lands in worker 1.
WORKER1_SHARD = 4

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

    def test_resume_across_compressed_retrain_mode(self, ft_config, tmp_path):
        golden = run_trial(replace(ft_config, retrain_mode="compressed"), trial_index=0)
        install_plan([FaultSpec(site="loop_step", kind="raise", step=7)])
        with pytest.raises(FaultInjected):
            run_trial(
                _checkpointed(ft_config, tmp_path, 3, retrain_mode="compressed"),
                trial_index=0,
            )
        resumed = run_trial(
            _checkpointed(
                ft_config, tmp_path, 3, retrain_mode="compressed", resume=True
            ),
            trial_index=0,
        )
        assert_trials_identical(golden, resumed)

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


class TestSupervisedShardPool:
    """The intra-trial shard pool survives death, raises, and hangs."""

    def _pooled(self, ft_config, tmp_path, **changes):
        return run_trial(
            replace(ft_config, num_shards=2, execution="shard", **changes),
            trial_index=0,
            supervisor=FAST_SUPERVISOR,
        )

    def test_worker_kill_is_retried_bit_identically(
        self, ft_config, golden_trial, tmp_path
    ):
        os.environ.update(
            plan_environment(
                [
                    FaultSpec(
                        site="shard_worker_begin",
                        kind="kill",
                        shard=WORKER1_SHARD,
                        step=5,
                    )
                ],
                state_dir=tmp_path,
            )
        )
        with pytest.warns(RuntimeWarning, match="rebuilding the pool"):
            recovered = self._pooled(ft_config, tmp_path)
        assert_trials_identical(golden_trial, recovered)

    def test_worker_exception_is_retried_bit_identically(
        self, ft_config, golden_trial, tmp_path
    ):
        os.environ.update(
            plan_environment(
                [
                    FaultSpec(
                        site="shard_worker_respond",
                        kind="raise",
                        shard=0,
                        step=3,
                    )
                ],
                state_dir=tmp_path,
            )
        )
        with pytest.warns(RuntimeWarning, match="rebuilding the pool"):
            recovered = self._pooled(ft_config, tmp_path)
        assert_trials_identical(golden_trial, recovered)

    def test_hung_worker_times_out_and_is_retried(
        self, ft_config, golden_trial, tmp_path
    ):
        os.environ.update(
            plan_environment(
                [
                    FaultSpec(
                        site="shard_worker_begin",
                        kind="hang",
                        shard=WORKER1_SHARD,
                        step=4,
                        delay=3600.0,
                    )
                ],
                state_dir=tmp_path,
            )
        )
        with pytest.warns(RuntimeWarning, match="rebuilding the pool"):
            recovered = self._pooled(ft_config, tmp_path)
        assert_trials_identical(golden_trial, recovered)

    def test_exhausted_budget_degrades_to_serial(
        self, ft_config, golden_trial, tmp_path
    ):
        # once=False: the fault fires on every attempt, so the pool can
        # never get past step 2 and the retry budget runs dry.
        os.environ.update(
            plan_environment(
                [
                    FaultSpec(
                        site="shard_worker_begin",
                        kind="raise",
                        shard=0,
                        step=2,
                        once=False,
                    )
                ],
                state_dir=tmp_path,
            )
        )
        with pytest.warns(RuntimeWarning, match="serial path"):
            recovered = self._pooled(ft_config, tmp_path)
        assert_trials_identical(golden_trial, recovered)

    def test_kill_with_checkpoints_retries_from_the_boundary(
        self, ft_config, golden_trial, tmp_path
    ):
        state = tmp_path / "faults"
        snapshots = tmp_path / "snapshots"
        os.environ.update(
            plan_environment(
                [
                    FaultSpec(
                        site="shard_worker_begin",
                        kind="kill",
                        shard=WORKER1_SHARD,
                        step=11,
                    )
                ],
                state_dir=state,
            )
        )
        with pytest.warns(RuntimeWarning, match="retrying from step 9"):
            recovered = self._pooled(
                ft_config,
                tmp_path,
                checkpoint_dir=str(snapshots),
                checkpoint_every=3,
            )
        assert_trials_identical(golden_trial, recovered)
        assert list_checkpoints(snapshots, "trial-0000")


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
        recovered = run_experiment(_trial_pool(ft_config), supervisor=FAST_SUPERVISOR)
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
        with pytest.warns(RuntimeWarning, match="exhausted its retry budget"):
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


class TestSharedMemoryHygiene:
    """No ``/dev/shm`` segment survives any pool exit route.

    The pooled shard path now moves its per-step payloads through one
    shared-memory arena per pool (:mod:`repro.core.shardmem`).  The
    orchestrator owns the segment and must unlink it on *every* exit:
    clean shutdown, worker kill/hang followed by a pool rebuild, and the
    exhausted-budget serial fallback.  ``live_segments()`` is the leak
    oracle; each scenario asserts the set of segments is unchanged.
    """

    def _pooled(self, ft_config):
        return run_trial(
            replace(ft_config, num_shards=2, execution="shard"),
            trial_index=0,
            supervisor=FAST_SUPERVISOR,
        )

    def test_clean_pooled_run_leaves_no_segments(self, ft_config, golden_trial):
        from repro.core.shardmem import live_segments

        before = live_segments()
        recovered = self._pooled(ft_config)
        assert_trials_identical(golden_trial, recovered)
        assert live_segments() == before

    @pytest.mark.parametrize(
        "kind,extra",
        [("kill", {}), ("raise", {}), ("hang", {"delay": 3600.0})],
        ids=["kill", "raise", "hang"],
    )
    def test_rebuild_after_worker_failure_leaves_no_segments(
        self, ft_config, golden_trial, tmp_path, kind, extra
    ):
        from repro.core.shardmem import live_segments

        before = live_segments()
        os.environ.update(
            plan_environment(
                [
                    FaultSpec(
                        site="shard_worker_begin",
                        kind=kind,
                        shard=WORKER1_SHARD,
                        step=5,
                        **extra,
                    )
                ],
                state_dir=tmp_path,
            )
        )
        with pytest.warns(RuntimeWarning, match="rebuilding the pool"):
            recovered = self._pooled(ft_config)
        assert_trials_identical(golden_trial, recovered)
        assert live_segments() == before

    def test_serial_fallback_leaves_no_segments(
        self, ft_config, golden_trial, tmp_path
    ):
        from repro.core.shardmem import live_segments

        before = live_segments()
        os.environ.update(
            plan_environment(
                [
                    FaultSpec(
                        site="shard_worker_respond",
                        kind="raise",
                        shard=0,
                        step=2,
                        once=False,
                    )
                ],
                state_dir=tmp_path,
            )
        )
        with pytest.warns(RuntimeWarning, match="serial path"):
            recovered = self._pooled(ft_config)
        assert_trials_identical(golden_trial, recovered)
        assert live_segments() == before

    def test_pickle_transport_remains_available_and_identical(
        self, ft_config, golden_trial
    ):
        # The pickled fallback transport stays bit-identical to the arena
        # path (and is what populations without feature_channels use).
        from repro.core.shardmem import TransportMeter, set_transport_meter

        meter = TransportMeter()
        set_transport_meter(meter)
        try:
            shared = self._pooled(ft_config)
        finally:
            set_transport_meter(None)
        assert_trials_identical(golden_trial, shared)
        # The arena moved every per-step payload: nothing was pickled.
        assert meter.shared_bytes > 0
        assert meter.pickled_bytes == 0


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
        # Resume on a "different host" under a different plan: auto keeps
        # a checkpointed trial on the serial loop on any host, so the
        # resume asks for shard workers on 8 cores — the checkpoint must
        # still be accepted and replayed.
        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 8)
        resumed = run_trial(
            _checkpointed(ft_config, tmp_path, 3, execution="shard", resume=True),
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
