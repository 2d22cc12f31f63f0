"""Unit tests of the execution planner's heuristics and surfaces."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import planner
from repro.core.planner import (
    EXECUTION_MODES,
    CampaignBudget,
    ExecutionPlan,
    measure_dispatch_overhead,
    plan_campaign_jobs,
    plan_execution,
    validate_execution_settings,
)
from repro.experiments import CaseStudyConfig
from repro.experiments.batch import BatchedTrialRunner


def _plan(execution, **overrides):
    inputs = dict(trials=5, users=1000, steps=19, cpu_count=8)
    inputs.update(overrides)
    return plan_execution(execution, **inputs)


class TestExplicitModes:
    def test_serial_is_serial(self):
        plan = _plan("serial")
        assert plan.layout == "serial"
        assert not (plan.parallel or plan.trial_batch)

    def test_batch_routes_to_the_tensor_engine(self):
        plan = _plan("batch")
        assert plan.layout == "batch"
        assert plan.trial_batch

    def test_pool_sizes_workers_from_cores_and_trials(self):
        assert _plan("pool").max_workers == 5  # min(5 trials, 8 cores)
        assert _plan("pool", cpu_count=2).max_workers == 2
        assert _plan("pool", max_workers=3).max_workers == 3

    def test_pool_with_one_trial_degrades_to_serial(self):
        plan = _plan("pool", trials=1)
        assert plan.layout == "serial"
        assert plan.execution == "pool"  # the request is preserved

    @pytest.mark.parametrize("users", [1, 1000, 1_000_000])
    def test_shard_is_a_second_name_for_batch(self, users):
        shard = _plan("shard", trials=1, users=users)
        batch = _plan("batch", trials=1, users=users)
        assert shard.execution == "shard"
        assert replace(shard, execution="batch") == batch
        assert not shard.shard_parallel

    def test_shard_rejects_checkpointing_like_batch(self):
        with pytest.raises(ValueError, match="incompatible with checkpointing"):
            _plan("shard", checkpoint_every=3)


class TestAutoHeuristics:
    def test_one_core_many_trials_batches(self):
        plan = _plan("auto", cpu_count=1)
        assert plan.layout == "batch"

    def test_one_core_with_checkpointing_stays_serial(self):
        plan = _plan("auto", cpu_count=1, checkpoint_every=3)
        assert plan.layout == "serial"
        assert not plan.trial_batch

    def test_many_cores_many_trials_pools(self):
        plan = _plan("auto")
        assert plan.layout == "pool"
        assert plan.max_workers == 5

    @pytest.mark.parametrize("cores", [1, 2, 8])
    @pytest.mark.parametrize("users", [200, 100_000, 1_000_000])
    def test_single_trial_runs_in_process_on_the_lockstep_kernel(
        self, cores, users
    ):
        plan = _plan("auto", trials=1, users=users, cpu_count=cores)
        assert plan.layout == "batch"
        assert plan.trial_batch
        assert not plan.parallel

    @pytest.mark.parametrize("knobs", [{"checkpoint_every": 3}, {"resume": True}])
    def test_single_trial_with_checkpointing_stays_serial(self, knobs):
        plan = _plan("auto", trials=1, users=100_000, **knobs)
        assert plan.layout == "serial"
        assert not plan.trial_batch

    def test_single_trial_ignores_calibration(self, monkeypatch):
        # Calibration weighs dispatch amortised across trials; one trial
        # has none to amortise, and the kernel is the faster loop anyway.
        monkeypatch.setattr(planner, "measure_dispatch_overhead", lambda users: 0.0)
        plan = _plan("auto", trials=1, cpu_count=1, calibrate=True)
        assert plan.layout == "batch"
        assert not plan.calibrated

    @pytest.mark.parametrize("users", [4096, 100_000])
    def test_spare_cores_still_plan_a_plain_pool(self, users):
        # Cores beyond one per trial stay idle: only the lockstep kernel
        # spreads a trial's users over cores, and it runs in process.
        plan = _plan("auto", trials=2, users=users, steps=5, cpu_count=8)
        assert plan.layout == "pool"
        assert plan.max_workers == 2
        assert not plan.trial_batch

    def test_no_spare_cores_means_no_composition(self):
        plan = _plan("auto", trials=8, users=100_000, cpu_count=8)
        assert plan.layout == "pool"

    def test_defaults_to_the_detected_core_count(self, monkeypatch):
        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 3)
        plan = plan_execution("auto", trials=5, users=100, steps=19)
        assert plan.cpu_count == 3


class TestKernelThreads:
    """A ``batch`` plan carries the lockstep kernel's thread count."""

    def test_giant_trial_gets_a_thread_per_core(self):
        plan = _plan("auto", trials=1, users=1_000_000, cpu_count=2)
        assert plan.layout == "batch"
        assert plan.max_workers == 2
        assert "2 kernel threads" in plan.describe()

    def test_campaign_job_runs_one_inline_chunk(self):
        # A campaign_grid job: one core of the budget, 1000 users.
        assert plan_campaign_jobs(24, cpu_count=2).cores_per_job == 1
        plan = _plan("auto", trials=5, users=1000, cpu_count=1)
        assert plan.layout == "batch"
        assert plan.max_workers == 1
        assert "1 kernel thread " in plan.describe()

    def test_small_populations_stay_on_one_thread(self):
        users = 2 * planner.KERNEL_MIN_USER_TRIALS_PER_THREAD - 1
        assert _plan("batch", trials=1, users=users, cpu_count=8).max_workers == 1
        assert (
            _plan("batch", trials=1, users=users + 1, cpu_count=8).max_workers == 2
        )

    def test_threads_count_user_trials(self):
        # A lane spans every trial: 32 trials of 20,000 users get a thread
        # per core, 5 trials of 1,000 users still one.
        assert _plan("batch", trials=32, users=20_000, cpu_count=2).max_workers == 2
        assert _plan("batch", trials=5, users=1000, cpu_count=2).max_workers == 1
        user_trials = 2 * planner.KERNEL_MIN_USER_TRIALS_PER_THREAD
        assert _plan("batch", trials=4, users=user_trials // 4).max_workers == 2
        assert _plan("batch", trials=4, users=user_trials // 4 - 1).max_workers == 1

    def test_threads_need_wide_lanes(self):
        # However many trials, a thread's lane holds enough users: 128
        # trials of 5,000 users stay on one thread.
        assert _plan("batch", trials=128, users=5000, cpu_count=2).max_workers == 1
        users = 2 * planner.KERNEL_MIN_USERS_PER_THREAD
        assert _plan("batch", trials=64, users=users, cpu_count=2).max_workers == 2
        assert _plan("batch", trials=64, users=users - 1, cpu_count=2).max_workers == 1

    def test_caps(self, monkeypatch):
        assert _plan("batch", users=10_000_000, cpu_count=64).max_workers == 8
        assert _plan("batch", users=10_000_000, max_workers=3).max_workers == 3
        monkeypatch.setattr(planner, "KERNEL_MIN_USER_TRIALS_PER_THREAD", 1)
        monkeypatch.setattr(planner, "KERNEL_MIN_USERS_PER_THREAD", 1)
        assert _plan("batch", users=3, cpu_count=8).max_workers == 3

    def test_plan_round_trips_the_thread_count(self):
        plan = _plan("auto", trials=1, users=1_000_000, cpu_count=4)
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan

    def test_plan_rejects_a_nonpositive_thread_count(self):
        with pytest.raises(ValueError, match="kernel thread"):
            ExecutionPlan(
                execution="batch",
                layout="batch",
                trial_batch=True,
                parallel=False,
                max_workers=0,
                cpu_count=4,
            )


class TestKernelStepBound:
    """The kernel's per-run tables grow with the square of the steps."""

    def test_batch_past_the_bound_is_rejected_at_configuration(self):
        start = CaseStudyConfig().start_year
        steps = planner.KERNEL_MAX_STEPS + 1
        message = (
            f"execution='batch' runs at most {planner.KERNEL_MAX_STEPS} steps, "
            f"this run has {steps}"
        )
        with pytest.raises(ValueError, match=message):
            CaseStudyConfig(end_year=start + steps - 1, execution="batch")
        with pytest.raises(ValueError, match="runs at most"):
            _plan("shard", steps=steps)
        # At the bound, and on every other layout past it, the run plans.
        CaseStudyConfig(
            end_year=start + planner.KERNEL_MAX_STEPS - 1, execution="batch"
        )
        for execution in ("auto", "serial", "pool"):
            CaseStudyConfig(end_year=start + steps - 1, execution=execution)

    @pytest.mark.parametrize("trials, cores", [(1, 2), (3, 1)])
    def test_auto_runs_a_longer_horizon_on_the_serial_loop(self, trials, cores):
        inputs = dict(trials=trials, users=1000, cpu_count=cores)
        at_bound = plan_execution("auto", steps=planner.KERNEL_MAX_STEPS, **inputs)
        assert at_bound.layout == "batch"
        past = plan_execution("auto", steps=planner.KERNEL_MAX_STEPS + 1, **inputs)
        assert past.layout == "serial"

    def test_the_runner_checks_the_bound_before_it_builds_populations(self):
        start = CaseStudyConfig().start_year
        config = CaseStudyConfig(
            num_users=10, end_year=start + planner.KERNEL_MAX_STEPS
        )
        built = []
        with pytest.raises(ValueError, match="runs at most"):
            BatchedTrialRunner(config, lambda *args: built.append(args))
        assert built == []


class TestCalibration:
    def test_negligible_dispatch_keeps_the_serial_loop(self, monkeypatch):
        monkeypatch.setattr(planner, "measure_dispatch_overhead", lambda users: 0.0)
        plan = _plan("auto", cpu_count=1, calibrate=True)
        assert plan.layout == "serial"
        assert plan.calibrated

    def test_heavy_dispatch_confirms_the_batch_choice(self, monkeypatch):
        monkeypatch.setattr(planner, "measure_dispatch_overhead", lambda users: 0.5)
        plan = _plan("auto", cpu_count=1, calibrate=True)
        assert plan.layout == "batch"
        assert plan.calibrated

    def test_probe_returns_a_fraction(self):
        fraction = measure_dispatch_overhead(500, probes=1)
        assert 0.0 <= fraction <= 1.0


class TestPlanSurface:
    def test_modes_constant(self):
        assert EXECUTION_MODES == ("auto", "serial", "batch", "pool", "shard")

    def test_describe_names_the_layout(self):
        assert "pool" in _plan("pool").describe()
        assert "in-process" in _plan("serial").describe()

    def test_plan_rejects_batch_with_pools(self):
        with pytest.raises(ValueError, match="batched plan"):
            ExecutionPlan(
                execution="batch",
                layout="batch",
                trial_batch=True,
                parallel=True,
                max_workers=2,
                cpu_count=4,
            )

    def test_validate_settings_rejects_none(self):
        # None is not a layout: configs default to "serial" instead.
        with pytest.raises(ValueError, match="execution must be one of"):
            validate_execution_settings(None)

    def test_bad_inputs_are_rejected(self):
        with pytest.raises(ValueError, match="users"):
            plan_execution("auto", trials=1, users=0, steps=5)
        with pytest.raises(ValueError, match="steps"):
            plan_execution("auto", trials=1, users=10, steps=-1)
        with pytest.raises(ValueError, match="history_mode"):
            plan_execution("auto", trials=1, users=10, steps=5, history_mode="x")
        with pytest.raises(ValueError, match="retrain_mode"):
            plan_execution("auto", trials=1, users=10, steps=5, retrain_mode="x")
        with pytest.raises(ValueError, match="cpu_count"):
            plan_execution("auto", trials=1, users=10, steps=5, cpu_count=0)
        with pytest.raises(ValueError, match="max_workers"):
            plan_execution("auto", trials=1, users=10, steps=5, max_workers=0)


def _patch_cpu_probes(monkeypatch, usable, calls=None):
    """Make both host probes report ``usable`` cores (counting calls)."""

    def affinity(pid):
        if calls is not None:
            calls.append("affinity")
        return set(range(usable))

    def cpu_count():
        if calls is not None:
            calls.append("cpu_count")
        return usable

    monkeypatch.setattr(planner.os, "sched_getaffinity", affinity, raising=False)
    monkeypatch.setattr(planner.os, "cpu_count", cpu_count)


class TestPlannerMemos:
    @pytest.fixture(autouse=True)
    def _fresh_caches(self):
        planner.reset_planner_caches()
        yield
        planner.reset_planner_caches()

    def test_cpu_count_is_probed_once_per_process(self, monkeypatch):
        calls = []
        _patch_cpu_probes(monkeypatch, 6, calls)
        assert planner._detect_cpu_count() == 6
        assert planner._detect_cpu_count() == 6
        assert len(calls) == 1  # second call served from the memo

    def test_reset_forgets_the_cpu_memo(self, monkeypatch):
        _patch_cpu_probes(monkeypatch, 6)
        assert planner._detect_cpu_count() == 6
        _patch_cpu_probes(monkeypatch, 2)
        assert planner._detect_cpu_count() == 6  # memo still in charge
        planner.reset_planner_caches()
        assert planner._detect_cpu_count() == 2

    def test_affinity_mask_limits_the_usable_cores(self, monkeypatch):
        # Under `taskset -c 0` on an 8-CPU host: one usable core, so no
        # trial pool, one campaign job at a time, one kernel thread.
        monkeypatch.setattr(
            planner.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(planner.os, "cpu_count", lambda: 8)
        assert planner._detect_cpu_count() == 1
        plan = plan_execution("auto", trials=4, users=1000, steps=5)
        assert plan.layout == "batch"
        assert plan.cpu_count == 1
        assert plan_campaign_jobs(24).job_workers == 1
        giant = plan_execution("auto", trials=1, users=1_000_000, steps=20)
        assert giant.max_workers == 1

    def test_without_an_affinity_probe_the_cpu_count_is_used(self, monkeypatch):
        monkeypatch.delattr(planner.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(planner.os, "cpu_count", lambda: 3)
        assert planner._detect_cpu_count() == 3

    def test_dispatch_probe_is_memoized_on_the_capped_size(self):
        first = measure_dispatch_overhead(500, probes=1)
        assert planner._DISPATCH_MEMO  # the probe populated the memo
        # Same capped size: the memoized fraction comes back verbatim.
        assert measure_dispatch_overhead(500, probes=1) == first

    def test_dispatch_memo_keys_on_the_capped_probe_size(self):
        # Every size beyond the cap shares one measurement...
        measure_dispatch_overhead(1 << 17, probes=1)
        measure_dispatch_overhead(1 << 20, probes=1)
        assert len(planner._DISPATCH_MEMO) == 1
        # ...while a distinct small size probes again.
        measure_dispatch_overhead(64, probes=1)
        assert len(planner._DISPATCH_MEMO) == 2

    def test_reset_forgets_the_dispatch_memo(self):
        measure_dispatch_overhead(500, probes=1)
        planner.reset_planner_caches()
        assert not planner._DISPATCH_MEMO


class TestCampaignBudget:
    def test_more_jobs_than_cores_runs_one_core_each(self):
        budget = plan_campaign_jobs(24, cpu_count=8)
        assert budget.job_workers == 8
        assert budget.cores_per_job == 1

    def test_more_cores_than_jobs_splits_the_remainder(self):
        budget = plan_campaign_jobs(2, cpu_count=8)
        assert budget.job_workers == 2
        assert budget.cores_per_job == 4

    def test_uneven_split_rounds_down(self):
        budget = plan_campaign_jobs(3, cpu_count=8)
        assert budget.job_workers == 3
        assert budget.cores_per_job == 2  # 8 // 3, never oversubscribed

    def test_max_workers_caps_concurrency_and_widens_each_job(self):
        budget = plan_campaign_jobs(24, cpu_count=8, max_workers=2)
        assert budget.job_workers == 2
        assert budget.cores_per_job == 4

    def test_no_pending_jobs_still_yields_a_valid_budget(self):
        budget = plan_campaign_jobs(0, cpu_count=4)
        assert budget.jobs == 0
        assert budget.job_workers == 1
        assert budget.cores_per_job == 4

    def test_describe_names_the_split(self):
        text = plan_campaign_jobs(24, cpu_count=8).describe()
        assert "8 concurrent job(s)" in text
        assert "24 job(s) pending" in text

    def test_bad_inputs_are_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            plan_campaign_jobs(-1, cpu_count=4)
        with pytest.raises(ValueError, match="cpu_count"):
            plan_campaign_jobs(4, cpu_count=0)
        with pytest.raises(ValueError, match="max_workers"):
            plan_campaign_jobs(4, cpu_count=4, max_workers=0)

    def test_budget_rejects_oversubscription(self):
        with pytest.raises(ValueError, match="oversubscribes"):
            CampaignBudget(jobs=8, job_workers=8, cores_per_job=4, cpu_count=4)
