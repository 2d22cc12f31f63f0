"""Unit tests of the execution planner's heuristics and surfaces."""

from __future__ import annotations

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


def _plan(execution, **overrides):
    inputs = dict(trials=5, users=1000, steps=19, cpu_count=8)
    inputs.update(overrides)
    return plan_execution(execution, **inputs)


class TestExplicitModes:
    def test_serial_is_serial(self):
        plan = _plan("serial")
        assert plan.layout == "serial"
        assert not (plan.parallel or plan.trial_batch or plan.shard_parallel)

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

    def test_shard_caps_at_the_canonical_shard_count(self):
        plan = _plan("shard", trials=1, users=100_000)
        assert plan.layout == "shard"
        assert plan.num_shards == 8  # NUM_CANONICAL_SHARDS
        assert plan.shard_parallel

    def test_shard_honours_an_explicit_shard_hint(self):
        assert _plan("shard", num_shards=4).num_shards == 4

    def test_shard_with_a_tiny_population_degrades_to_serial(self):
        assert _plan("shard", users=1).layout == "serial"


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
        assert not (plan.parallel or plan.shard_parallel)
        assert plan.num_shards == 1

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

    def test_explicit_shard_still_shards_a_single_trial(self):
        plan = _plan("shard", trials=1, users=100_000, cpu_count=2)
        assert plan.layout == "shard"
        assert plan.shard_parallel
        assert plan.num_shards == 2

    def test_spare_cores_compose_pool_with_shards(self):
        plan = _plan("auto", trials=2, users=100_000, cpu_count=16)
        assert plan.layout == "pool+shard"
        assert plan.max_workers == 2
        assert plan.shard_parallel and plan.num_shards >= 2

    def test_no_spare_cores_means_no_composition(self):
        plan = _plan("auto", trials=8, users=100_000, cpu_count=8)
        assert plan.layout == "pool"

    def test_defaults_to_the_detected_core_count(self, monkeypatch):
        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 3)
        plan = plan_execution("auto", trials=5, users=100, steps=19)
        assert plan.cpu_count == 3


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
                num_shards=1,
                shard_parallel=False,
                cpu_count=4,
            )

    def test_plan_rejects_single_shard_pools(self):
        with pytest.raises(ValueError, match="two worker shards"):
            ExecutionPlan(
                execution="shard",
                layout="shard",
                trial_batch=False,
                parallel=False,
                max_workers=None,
                num_shards=1,
                shard_parallel=True,
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


class TestPlannerMemos:
    @pytest.fixture(autouse=True)
    def _fresh_caches(self):
        planner.reset_planner_caches()
        yield
        planner.reset_planner_caches()

    def test_cpu_count_is_probed_once_per_process(self, monkeypatch):
        calls = []

        def counting_cpu_count():
            calls.append(None)
            return 6

        monkeypatch.setattr(planner.os, "cpu_count", counting_cpu_count)
        assert planner._detect_cpu_count() == 6
        assert planner._detect_cpu_count() == 6
        assert len(calls) == 1  # second call served from the memo

    def test_reset_forgets_the_cpu_memo(self, monkeypatch):
        monkeypatch.setattr(planner.os, "cpu_count", lambda: 6)
        assert planner._detect_cpu_count() == 6
        monkeypatch.setattr(planner.os, "cpu_count", lambda: 2)
        assert planner._detect_cpu_count() == 6  # memo still in charge
        planner.reset_planner_caches()
        assert planner._detect_cpu_count() == 2

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
