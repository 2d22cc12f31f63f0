"""Campaign runner: cold/warm sweeps, layout-invariant hits, chaos resume."""

from __future__ import annotations

import errno
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    expand_campaign,
    job_key,
    plan_campaign,
    run_campaign,
)
from repro.campaign import cache as cache_module
from repro.campaign import runner as campaign_runner
from repro.core import loop as loop_module
from repro.core import planner
from repro.core.supervision import SupervisorPolicy
from repro.data.census import Race
from repro.experiments import runner as experiment_runner
from repro.experiments.batch import BatchedTrialRunner
from repro.testing.faults import FAULTS_ENV, FaultSpec, clear_plan, plan_environment

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

FAST_SUPERVISOR = SupervisorPolicy(backoff_base=0.01, backoff_max=0.05)


@pytest.fixture(autouse=True)
def _clean_fault_plans():
    clear_plan()
    yield
    os.environ.pop(FAULTS_ENV, None)
    clear_plan()


def _spec(**kwargs):
    defaults = dict(
        name="test",
        scenarios=("baseline",),
        policies=("retraining", "static"),
        population_sizes=(50,),
        seeds=(1, 2),
        num_trials=2,
        start_year=2002,
        end_year=2004,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def _assert_series_equal(left, right):
    assert left.years == right.years
    for race in Race:
        assert np.array_equal(
            left.group_default_rates[race],
            right.group_default_rates[race],
            equal_nan=True,
        )
    assert np.array_equal(left.approval_rates, right.approval_rates)


class TestColdWarm:
    def test_cold_sweep_computes_then_warm_sweep_hits(self, tmp_path):
        spec = _spec()
        cold = run_campaign(spec, tmp_path, cpu_count=1)
        assert cold.hits == 0
        assert cold.misses == spec.grid_size
        assert cold.hit_rate == 0.0
        warm = run_campaign(spec, tmp_path, cpu_count=1)
        assert warm.hits == spec.grid_size
        assert warm.misses == 0
        assert warm.hit_rate == 1.0
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert before.key == after.key
            _assert_series_equal(before.series, after.series)

    def test_outcomes_follow_job_order(self, tmp_path):
        spec = _spec()
        result = run_campaign(spec, tmp_path, cpu_count=1)
        jobs = expand_campaign(spec)
        assert [outcome.job.index for outcome in result.outcomes] == [
            job.index for job in jobs
        ]
        assert result.series_for(jobs[0].job_id) is result.outcomes[0].series
        with pytest.raises(KeyError, match="no job"):
            result.series_for("nope")

    def test_partial_cache_runs_only_misses(self, tmp_path):
        spec = _spec()
        jobs = expand_campaign(spec)
        # Pre-compute only the first job by sweeping a single-seed subgrid.
        sub = _spec(seeds=(1,), policies=("retraining",))
        run_campaign(sub, tmp_path, cpu_count=1)
        result = run_campaign(spec, tmp_path, cpu_count=1)
        assert result.hits == 1
        assert result.misses == len(jobs) - 1
        assert result.outcomes[0].cached is True

    def test_plan_reports_without_running(self, tmp_path):
        spec = _spec()
        plan = plan_campaign(spec, tmp_path, cpu_count=1)
        assert plan.num_cached == 0
        assert plan.num_pending == spec.grid_size
        assert "to run" in plan.describe()
        assert not os.listdir(tmp_path)  # planning computes nothing


class TestLayoutInvariance:
    def test_serial_entries_hit_under_pool_and_shard(self, tmp_path):
        serial = _spec(execution="serial")
        cold = run_campaign(serial, tmp_path, cpu_count=1)
        assert cold.misses == serial.grid_size
        for options in (
            dict(execution="pool", max_workers=2),
            dict(execution="shard", num_shards=2),
            dict(execution="batch"),
            dict(execution="auto"),
        ):
            warm = run_campaign(_spec(**options), tmp_path, cpu_count=2)
            assert warm.hit_rate == 1.0, options
            for before, after in zip(cold.outcomes, warm.outcomes):
                _assert_series_equal(before.series, after.series)

    def test_pooled_cold_sweep_matches_serial_golden(self, tmp_path):
        spec = _spec()
        pooled = run_campaign(spec, tmp_path / "pooled", cpu_count=2)
        assert pooled.budget.job_workers == 2
        assert pooled.misses == spec.grid_size
        golden = run_campaign(_spec(execution="serial"), tmp_path / "serial", cpu_count=1)
        for left, right in zip(pooled.outcomes, golden.outcomes):
            assert left.key == right.key
            _assert_series_equal(left.series, right.series)


class TestBudgetRouting:
    def test_jobs_split_the_host_not_each_greedily(self, tmp_path):
        spec = _spec()
        result = run_campaign(spec, tmp_path, cpu_count=3)
        # 4 pending jobs on 3 cores: 3 concurrent jobs x 1 core each —
        # each job plans against its slice, not the whole host.
        assert result.budget.job_workers == 3
        assert result.budget.cores_per_job == 1

    def test_max_workers_caps_job_concurrency(self, tmp_path):
        spec = _spec(max_workers=1)
        result = run_campaign(spec, tmp_path, cpu_count=8)
        assert result.budget.job_workers == 1
        assert result.budget.cores_per_job == 8

    def test_each_job_runs_the_plan_for_its_own_core_slice(
        self, tmp_path, monkeypatch
    ):
        # The host looks like 8 cores, where "auto" would pool each job's
        # trials; the campaign grants every job one core, so each job must
        # run on the lockstep kernel, in process, with no pool anywhere.
        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 8)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        for module in (campaign_runner, experiment_runner, loop_module):
            monkeypatch.setattr(module, "ProcessPoolExecutor", no_pool)
        kernel_runs = []
        original_run = BatchedTrialRunner.run

        def counting_run(self):
            kernel_runs.append(self._config.num_trials)
            return original_run(self)

        monkeypatch.setattr(BatchedTrialRunner, "run", counting_run)
        spec = _spec()
        assert spec.execution == "auto" and spec.num_trials >= 2
        result = run_campaign(spec, tmp_path, cpu_count=1)
        assert result.budget.cores_per_job == 1
        assert result.misses == spec.grid_size
        assert kernel_runs == [spec.num_trials] * spec.grid_size


class TestSupervision:
    def test_killed_job_worker_is_retried_to_completion(self, tmp_path):
        spec = _spec()
        golden = run_campaign(spec, tmp_path / "golden", cpu_count=1)
        os.environ.update(
            plan_environment(
                [FaultSpec(site="campaign_job", kind="kill", trial=1, once=True)],
                state_dir=tmp_path / "state",
            )
        )
        with pytest.warns(RuntimeWarning, match="campaign job pool failure"):
            result = run_campaign(
                spec,
                tmp_path / "cache",
                cpu_count=2,
                supervisor=FAST_SUPERVISOR,
            )
        assert result.misses == spec.grid_size
        for left, right in zip(result.outcomes, golden.outcomes):
            _assert_series_equal(left.series, right.series)

    def test_persistently_raising_job_falls_back_in_process(self, tmp_path):
        # once=False: job 2 raises on *every* pooled attempt, so it burns
        # its retry budget and degrades to the in-process path — which
        # does not pass through the worker's fault hook and therefore
        # completes, surfacing the supervision contract: the sweep
        # finishes instead of crashing on a poisoned worker.
        spec = _spec()
        golden = run_campaign(spec, tmp_path / "golden", cpu_count=1)
        os.environ.update(
            plan_environment(
                [FaultSpec(site="campaign_job", kind="raise", trial=2, once=False)]
            )
        )
        with pytest.warns(RuntimeWarning, match="exhausted its retry budget"):
            result = run_campaign(
                spec,
                tmp_path / "cache",
                cpu_count=2,
                supervisor=SupervisorPolicy(
                    max_retries=1, backoff_base=0.01, backoff_max=0.05
                ),
            )
        assert result.misses == spec.grid_size
        for left, right in zip(result.outcomes, golden.outcomes):
            _assert_series_equal(left.series, right.series)
        cache = ResultCache(tmp_path / "cache")
        assert all(job_key(job) in cache for job in expand_campaign(spec))


def _full_disk(path, payload):
    raise OSError(errno.ENOSPC, "No space left on device", str(path))


class TestFailedPublish:
    def test_full_disk_keeps_the_computed_series(self, tmp_path, monkeypatch):
        # A failed cache write costs the entry, never the computed job.
        spec = _spec()
        golden = run_campaign(spec, tmp_path / "golden", cpu_count=1)
        monkeypatch.setattr(cache_module, "write_checkpoint", _full_disk)
        cache_dir = tmp_path / "cache"
        with pytest.warns(RuntimeWarning, match=r"could not publish .*\.result"):
            result = run_campaign(spec, cache_dir, cpu_count=1)
        assert result.misses == spec.grid_size
        for left, right in zip(result.outcomes, golden.outcomes):
            _assert_series_equal(left.series, right.series)
        assert not any(cache_dir.iterdir())

    def test_full_disk_on_the_job_pool_keeps_the_series(self, tmp_path, monkeypatch):
        # Pooled workers publish their own entries.  A failed write there
        # must not fail the job, or the pool would recompute it on every
        # retry and then raise from the in-process fallback.
        spec = _spec()
        golden = run_campaign(spec, tmp_path / "golden", cpu_count=1)
        monkeypatch.setattr(cache_module, "write_checkpoint", _full_disk)
        cache_dir = tmp_path / "cache"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_campaign(
                spec,
                cache_dir,
                cpu_count=2,
                supervisor=SupervisorPolicy(backoff_base=0.0),
            )
        assert result.budget.job_workers == 2
        assert not [w for w in caught if "retry budget" in str(w.message)]
        for left, right in zip(result.outcomes, golden.outcomes):
            _assert_series_equal(left.series, right.series)
        assert not any(cache_dir.iterdir())


class TestKillAndResume:
    def test_interrupted_sweep_resumes_without_rerunning(self, tmp_path):
        cache_dir = tmp_path / "cache"
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        child = textwrap.dedent(
            f"""
            import os
            from repro.testing.faults import FaultSpec, plan_environment
            os.environ.update(
                plan_environment(
                    [FaultSpec(site="campaign_job", kind="kill", trial=2)],
                    state_dir={str(state_dir)!r},
                )
            )
            from repro.campaign import CampaignSpec, run_campaign
            spec = CampaignSpec(
                name="test",
                scenarios=("baseline",),
                policies=("retraining", "static"),
                population_sizes=(50,),
                seeds=(1, 2),
                num_trials=2,
                start_year=2002,
                end_year=2004,
            )
            run_campaign(spec, {str(cache_dir)!r}, cpu_count=1)
            """
        )
        env = {**os.environ, "PYTHONPATH": SRC_DIR}
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 86, proc.stderr  # KILL_EXIT_CODE
        # Jobs 0 and 1 completed and were published before the kill.
        assert len(os.listdir(cache_dir)) == 2
        spec = _spec()
        resumed = run_campaign(spec, cache_dir, cpu_count=1)
        assert resumed.hits == 2
        assert resumed.misses == 2
        golden = run_campaign(spec, tmp_path / "golden", cpu_count=1)
        for left, right in zip(resumed.outcomes, golden.outcomes):
            assert left.key == right.key
            _assert_series_equal(left.series, right.series)


class TestUnpicklableSpecs:
    def test_unpicklable_supervisor_falls_back_to_serial(self, tmp_path):
        # A locally-defined policy class cannot cross process boundaries;
        # the campaign silently runs in-process instead — same results.
        class LocalPolicy(SupervisorPolicy):
            pass

        spec = _spec()
        result = run_campaign(spec, tmp_path, cpu_count=2, supervisor=LocalPolicy())
        assert result.misses == spec.grid_size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warm = run_campaign(spec, tmp_path, cpu_count=2)
        assert warm.hit_rate == 1.0
