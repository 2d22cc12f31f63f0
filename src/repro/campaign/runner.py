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
recompute.  The job pool is :func:`~repro.core.supervision.supervised_map`,
the trial pool's executor too: worker death, hangs and raises retry under
the :class:`~repro.core.supervision.SupervisorPolicy` budget and then
degrade to an in-process run with a :class:`RuntimeWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.campaign.cache import CampaignJobSeries, ResultCache, job_key
from repro.campaign.spec import CampaignJob, CampaignSpec, expand_campaign
from repro.core.planner import CampaignBudget, plan_campaign_jobs, plan_execution
from repro.core.supervision import SupervisorPolicy, supervised_map
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
            f"{len(self.spec.seeds)} seed(s))",
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
    key: str,
    spec: CampaignSpec,
    cache_dir: str,
    cores_per_job: int,
    supervisor: SupervisorPolicy | None,
) -> CampaignJobSeries:
    """Run one job under its granted core slice and publish its series.

    The job's layout is resolved by :func:`plan_execution` against
    ``cores_per_job`` — not the host's core count — which is what keeps J
    concurrent jobs from greedily sizing J full-width pools.  The
    experiment runner executes that plan as is, so it never re-plans on
    its own host view.

    The series is stored in the cache (atomically) before this returns,
    in whichever process runs the job, so a sweep killed after this job
    completes keeps it across the resume — no process ever holds
    unpublished results.
    """
    config = job.config
    plan = plan_execution(
        spec.execution,
        trials=config.num_trials,
        users=config.num_users,
        steps=config.num_steps,
        history_mode=config.history_mode,
        cpu_count=cores_per_job,
    )
    result = _run_planned_experiment(
        config,
        plan,
        policy_factory=job.policy_factory(),
        income_table=job.income_table(),
        supervisor=supervisor,
    )
    series = CampaignJobSeries.from_experiment(result)
    ResultCache(cache_dir).store(key, series)
    return series


def _run_campaign_job(
    payload: Tuple[CampaignJob, str, CampaignSpec, str, int, SupervisorPolicy | None]
) -> CampaignJobSeries:
    """Run one campaign job from its argument tuple: the pool's worker.

    The serial sweep runs jobs through here too; the pool's past-budget
    fallback calls :func:`_execute_job` directly, past the fault hook.
    """
    # Chaos-suite hook: lets a test deterministically kill/hang/fail the
    # sweep at a chosen job to exercise campaign-level resume.
    _fire_fault("campaign_job", trial=payload[0].index)
    return _execute_job(*payload)


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
    pending: List[Tuple[CampaignJob, str]] = []
    for job, key in zip(plan.jobs, plan.keys):
        series = cache.load(key)
        if series is not None:
            outcomes[job.index] = JobOutcome(job=job, key=key, cached=True, series=series)
        else:
            pending.append((job, key))
    budget = plan_campaign_jobs(
        len(pending), cpu_count=cpu_count, max_workers=spec.max_workers
    )
    payloads = [
        (job, key, spec, str(cache.directory), budget.cores_per_job, supervisor)
        for job, key in pending
    ]
    computed: Dict[int, CampaignJobSeries] = {}
    pooled = supervised_map(
        _run_campaign_job,
        range(len(payloads)),
        lambda position, failures: payloads[position],
        lambda position: _execute_job(*payloads[position]),
        computed.__setitem__,
        workers=budget.job_workers,
        policy=supervisor,
        pool="campaign job pool",
        label=lambda position: f"campaign job {pending[position][0].job_id!r}",
    )
    if not pooled:
        for position, payload in enumerate(payloads):
            computed[position] = _run_campaign_job(payload)
    for position, (job, key) in enumerate(pending):
        outcomes[job.index] = JobOutcome(
            job=job, key=key, cached=False, series=computed[position]
        )
    ordered = tuple(outcomes[job.index] for job in plan.jobs)
    return CampaignResult(spec=spec, outcomes=ordered, budget=budget)
