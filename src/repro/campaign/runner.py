"""Planner-routed execution of campaign grids with cache-aware resume.

:func:`plan_campaign` expands a spec, content-addresses every job, probes
the cache, and splits the host's cores across the pending jobs via
:func:`~repro.core.planner.plan_campaign_jobs`; :func:`run_campaign`
executes the plan.  Cache hits are answered from disk without running
anything; misses run as whole jobs — the outermost, synchronization-free
axis of parallelism — on a supervised process pool, each job resolving its
*own* intra-job layout through :func:`~repro.core.planner.plan_execution`
against its granted core slice rather than the whole host.

Every completed job publishes its result to the cache from inside the
worker, atomically, before the sweep moves on — so a campaign killed at
job K resumes by simply re-running: jobs 0..K-1 are hits, the rest
recompute.  Worker death, hangs and raises retry under the
:class:`~repro.core.supervision.SupervisorPolicy` budget and then degrade
to an in-process run with a :class:`RuntimeWarning`, mirroring the trial
pool's supervision contract.
"""

from __future__ import annotations

import pickle
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.campaign.cache import CampaignJobSeries, ResultCache, job_key
from repro.campaign.spec import CampaignJob, CampaignSpec, expand_campaign
from repro.core.planner import CampaignBudget, plan_campaign_jobs, plan_execution
from repro.core.supervision import SupervisorPolicy, WorkerPoolFailure, kill_executor
from repro.experiments.runner import _run_planned_experiment
from repro.testing.faults import fire as _fire_fault

__all__ = [
    "CampaignPlan",
    "CampaignResult",
    "JobOutcome",
    "plan_campaign",
    "run_campaign",
]


@dataclass(frozen=True)
class JobOutcome:
    """One job's result and where it came from (cache or execution)."""

    job: CampaignJob
    key: str
    cached: bool
    series: CampaignJobSeries


@dataclass(frozen=True)
class CampaignPlan:
    """A campaign's jobs, their content addresses, and the core budget."""

    spec: CampaignSpec
    jobs: Tuple[CampaignJob, ...]
    keys: Tuple[str, ...]
    cached: Tuple[bool, ...]
    budget: CampaignBudget

    @property
    def num_cached(self) -> int:
        """Return how many jobs the cache already answers."""
        return sum(self.cached)

    @property
    def num_pending(self) -> int:
        """Return how many jobs must execute."""
        return len(self.jobs) - self.num_cached

    def describe(self) -> str:
        """Return a multi-line human summary for the CLI."""
        lines = [
            f"campaign {self.spec.name!r}: {len(self.jobs)} job(s) "
            f"({len(self.spec.scenarios)} scenario(s) x "
            f"{len(self.spec.policies)} policy arm(s) x "
            f"{len(self.spec.population_sizes)} population size(s) x "
            f"{len(self.spec.seeds)} seed(s) x "
            f"{len(self.spec.retrain_modes)} retrain mode(s))",
            f"cache: {self.num_cached} hit(s), {self.num_pending} to run",
            f"budget: {self.budget.describe()}",
            f"execution: {self.spec.execution!r} per job",
        ]
        for job, cached in zip(self.jobs, self.cached):
            marker = "cached" if cached else "run"
            lines.append(f"  [{marker:>6}] {job.job_id}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign sweep."""

    spec: CampaignSpec
    outcomes: Tuple[JobOutcome, ...]
    budget: CampaignBudget

    @property
    def hits(self) -> int:
        """Return how many jobs were answered from the cache."""
        return sum(outcome.cached for outcome in self.outcomes)

    @property
    def misses(self) -> int:
        """Return how many jobs were executed."""
        return len(self.outcomes) - self.hits

    @property
    def hit_rate(self) -> float:
        """Return the cache hit rate of the sweep (1.0 for an empty grid)."""
        if not self.outcomes:
            return 1.0
        return self.hits / len(self.outcomes)

    def series_for(self, job_id: str) -> CampaignJobSeries:
        """Return one job's series by its human-readable id."""
        for outcome in self.outcomes:
            if outcome.job.job_id == job_id:
                return outcome.series
        known = ", ".join(outcome.job.job_id for outcome in self.outcomes)
        raise KeyError(f"no job {job_id!r} in this campaign; jobs: {known}")

    def summary(self) -> str:
        """Return a multi-line human summary for the CLI."""
        lines = [
            f"campaign {self.spec.name!r}: {len(self.outcomes)} job(s), "
            f"{self.hits} cache hit(s), {self.misses} executed "
            f"(hit rate {self.hit_rate:.0%})",
        ]
        for outcome in self.outcomes:
            marker = "cached" if outcome.cached else "ran"
            lines.append(f"  [{marker:>6}] {outcome.job.job_id}")
        return "\n".join(lines)


def plan_campaign(
    spec: CampaignSpec,
    cache_dir: str | Path,
    *,
    cpu_count: int | None = None,
) -> CampaignPlan:
    """Expand a spec, probe the cache, and budget the pending jobs.

    The cache probe here is a cheap existence check (a torn entry still
    counts as cached in the *summary*); :func:`run_campaign` re-probes
    with a full integrity read, so a torn file can only ever cost a
    recompute, never a wrong result.
    """
    jobs = expand_campaign(spec)
    cache = ResultCache(cache_dir)
    keys = tuple(job_key(job) for job in jobs)
    cached = tuple(key in cache for key in keys)
    budget = plan_campaign_jobs(
        sum(1 for hit in cached if not hit),
        cpu_count=cpu_count,
        max_workers=spec.max_workers,
    )
    return CampaignPlan(spec=spec, jobs=jobs, keys=keys, cached=cached, budget=budget)


def _execute_job(
    job: CampaignJob,
    spec: CampaignSpec,
    cores_per_job: int,
    supervisor: SupervisorPolicy | None,
) -> CampaignJobSeries:
    """Run one job under its granted core slice and stack its series.

    The job's layout is resolved by :func:`plan_execution` against
    ``cores_per_job`` — not the host's core count — which is what keeps J
    concurrent jobs from greedily sizing J full-width pools.  The
    experiment runner executes that plan as is, so it never re-plans on
    its own host view.
    """
    config = job.config
    plan = plan_execution(
        spec.execution,
        trials=config.num_trials,
        users=config.num_users,
        steps=config.num_steps,
        history_mode=config.history_mode,
        retrain_mode=config.retrain_mode,
        cpu_count=cores_per_job,
        num_shards=spec.num_shards,
    )
    result = _run_planned_experiment(
        config,
        plan,
        policy_factory=job.policy_factory(),
        income_table=job.income_table(),
        supervisor=supervisor,
    )
    return CampaignJobSeries.from_experiment(result)


def _run_campaign_job(
    payload: Tuple[CampaignJob, CampaignSpec, str, str, int, SupervisorPolicy | None]
) -> CampaignJobSeries:
    """Executor entry point: run one campaign job and publish its result.

    The worker stores the cache entry itself (atomically) before
    returning, so a sweep killed after this job completes keeps it across
    the resume — the parent process never holds unpublished results.
    """
    job, spec, cache_dir, key, cores_per_job, supervisor = payload
    # Chaos-suite hook: lets a test deterministically kill/hang/fail the
    # sweep at a chosen job to exercise campaign-level resume.
    _fire_fault("campaign_job", trial=job.index)
    series = _execute_job(job, spec, cores_per_job, supervisor)
    ResultCache(cache_dir).store(key, series)
    return series


def _is_picklable(value: object) -> bool:
    try:
        pickle.dumps(value)
        return True
    except Exception:
        return False


def _run_jobs_supervised(
    pending: List[CampaignJob],
    keys: Dict[int, str],
    spec: CampaignSpec,
    cache_dir: str,
    budget: CampaignBudget,
    supervisor: SupervisorPolicy | None,
) -> Dict[int, CampaignJobSeries]:
    """Run pending jobs on a supervised pool; ``None``-free result map.

    Mirrors the trial pool's supervision contract: a worker death or hang
    tears the pool down, keeps every published result, and re-runs only
    the lost jobs after a backoff; a raise inside one job retries just
    that job; a job past ``supervisor.max_retries`` degrades to an
    in-process run with a :class:`RuntimeWarning` (surfacing its own
    deterministic error, if that is what keeps killing workers).
    """
    policy = supervisor or SupervisorPolicy()

    def payload_for(job: CampaignJob) -> tuple:
        return (job, spec, cache_dir, keys[job.index], budget.cores_per_job, supervisor)

    results: Dict[int, CampaignJobSeries] = {}
    attempts: Dict[int, int] = {job.index: 0 for job in pending}
    by_index = {job.index: job for job in pending}
    waiting = [job.index for job in pending]
    executor: ProcessPoolExecutor | None = None
    pool_failures = 0
    try:
        while waiting:
            for index in [i for i in waiting if attempts[i] > policy.max_retries]:
                warnings.warn(
                    f"campaign job {by_index[index].job_id!r} exhausted its "
                    f"retry budget ({policy.max_retries} retries); running it "
                    "in-process",
                    RuntimeWarning,
                    stacklevel=3,
                )
                series = _execute_job(
                    by_index[index], spec, budget.cores_per_job, supervisor
                )
                ResultCache(cache_dir).store(keys[index], series)
                results[index] = series
            waiting = [i for i in waiting if i not in results]
            if not waiting:
                break
            failure: WorkerPoolFailure | None = None
            try:
                if executor is None:
                    executor = ProcessPoolExecutor(
                        max_workers=min(budget.job_workers, len(waiting))
                    )
                future_map = {
                    executor.submit(
                        _run_campaign_job, payload_for(by_index[index])
                    ): index
                    for index in waiting
                }
            except (pickle.PicklingError, BrokenProcessPool) as error:
                failure = WorkerPoolFailure("submitting jobs failed", error)
                future_map = {}
            outstanding = set(future_map)
            while outstanding and failure is None:
                done, _ = wait(
                    outstanding, timeout=policy.timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    failure = WorkerPoolFailure(
                        "no job completed within the supervision timeout", None
                    )
                    break
                for future in done:
                    index = future_map[future]
                    outstanding.discard(future)
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool as error:
                        failure = WorkerPoolFailure("a job worker process died", error)
                        break
                    except Exception:
                        # The job itself raised: retry just this one.
                        attempts[index] += 1
            waiting = [i for i in waiting if i not in results]
            if failure is not None and waiting:
                pool_failures += 1
                for index in waiting:
                    attempts[index] += 1
                kill_executor(executor)
                executor = None
                cause = failure.cause if failure.cause is not None else failure
                warnings.warn(
                    f"campaign job pool failure ({failure.reason}: {cause!r}); "
                    f"rebuilding the pool and re-running {len(waiting)} lost "
                    f"job(s) (pool failure {pool_failures})",
                    RuntimeWarning,
                    stacklevel=3,
                )
                policy.sleep_before_retry(pool_failures)
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
            executor = None
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
    return results


def run_campaign(
    spec: CampaignSpec,
    cache_dir: str | Path,
    *,
    supervisor: SupervisorPolicy | None = None,
    cpu_count: int | None = None,
) -> CampaignResult:
    """Run a campaign: serve cache hits, execute misses, publish results.

    Parameters
    ----------
    spec:
        The campaign grid and its run options.
    cache_dir:
        Directory of the content-addressed result cache.  Reusing it
        across runs is the whole point: a completed sweep re-run from the
        same directory is a pure cache read, and an interrupted sweep
        resumes from the jobs already published.
    supervisor:
        Retry/backoff policy of the job pool (``None`` applies the
        defaults), also forwarded into each job's intra-job pools.
    cpu_count:
        Host core count override for the budget (tests; ``None`` detects).

    The per-job results are bit-identical to a fresh
    :func:`~repro.experiments.runner.run_experiment` of the same
    configuration and seed, whether they were computed here, computed by
    a previous run under a *different* execution layout, or computed by a
    sweep that was killed halfway through.
    """
    plan = plan_campaign(spec, cache_dir, cpu_count=cpu_count)
    cache = ResultCache(cache_dir)
    outcomes: Dict[int, JobOutcome] = {}
    pending: List[CampaignJob] = []
    keys: Dict[int, str] = {}
    for job, key in zip(plan.jobs, plan.keys):
        keys[job.index] = key
        series = cache.load(key)
        if series is not None:
            outcomes[job.index] = JobOutcome(job=job, key=key, cached=True, series=series)
        else:
            pending.append(job)
    budget = plan_campaign_jobs(
        len(pending), cpu_count=cpu_count, max_workers=spec.max_workers
    )
    if pending:
        computed: Dict[int, CampaignJobSeries] = {}
        pooled = (
            budget.job_workers > 1
            and len(pending) > 1
            and _is_picklable(
                (pending[0], spec, str(cache.directory), keys[pending[0].index],
                 budget.cores_per_job, supervisor)
            )
        )
        if pooled:
            computed = _run_jobs_supervised(
                pending, keys, spec, str(cache.directory), budget, supervisor
            )
        else:
            for job in pending:
                # Same chaos hook as the pooled worker, so the serial path
                # can be killed (and resumed) at a chosen job too.
                _fire_fault("campaign_job", trial=job.index)
                series = _execute_job(job, spec, budget.cores_per_job, supervisor)
                cache.store(keys[job.index], series)
                computed[job.index] = series
        for job in pending:
            outcomes[job.index] = JobOutcome(
                job=job,
                key=keys[job.index],
                cached=False,
                series=computed[job.index],
            )
    ordered = tuple(outcomes[job.index] for job in plan.jobs)
    return CampaignResult(spec=spec, outcomes=ordered, budget=budget)
