"""The execution planner: one knob picks how a run executes.

Besides the serial loop, the engine has two execution layouts:

* the lockstep tensor kernel (``batch``): every trial in one process, the
  per-user math fused across the trial axis and split over kernel threads
  along the user axis — the one way to spread a trial's users over cores;
* the trial process pool (``pool``): several heavy trials on several
  cores.

:func:`plan_execution` turns the measured rules into code: given the
workload shape (trials, users, steps), the host (``cpu_count``), the
recording mode and the checkpoint knobs, it resolves a
single ``execution`` request — ``"auto"``, ``"serial"``, ``"batch"`` or
``"pool"`` — into an :class:`ExecutionPlan`, which the runner executes.
``"auto"`` and ``"pool"`` pool trials when the trials, the usable cores
and the ``max_workers`` cap are all at least two: a one-worker pool is
the serial loop plus process overhead.  Otherwise ``"pool"`` runs the
serial loop, and ``"auto"`` runs in process on the lockstep kernel, or on
the serial loop when checkpointing or past the kernel's
:data:`KERNEL_MAX_STEPS`.  Every layout requires the AI system's
decisions to be 0/1 and refuses others with the same error, so a plan
never decides whether a policy runs.

A ``batch`` plan also sizes the kernel's threads, in
``ExecutionPlan.max_workers``: the smallest of the usable cores, the
``max_workers`` cap, the canonical shard count (each thread steps a lane
of whole shards, see :mod:`repro.experiments.batch`) and the run's
user-trials (trials times users) at
:data:`KERNEL_MIN_USER_TRIALS_PER_THREAD` a thread and users at
:data:`KERNEL_MIN_USERS_PER_THREAD` a thread, minimums measured on a
2-CPU host.  A 1M-user trial gets a thread per core, and so do 32 trials
of 20,000 users; 128 trials of 5,000 users get one thread, and so does a
paper-size campaign job on its one-core slice, which runs inline, without
a pool.

The usable cores are the process's affinity mask
(``os.sched_getaffinity``, falling back to ``os.cpu_count()`` where the
platform has no mask): under ``taskset`` or a container CPU set the
host's CPU count overstates them.

Two invariants the rest of the engine supplies and the planner preserves:

* **Every plan is bit-identical.**  All layouts reproduce the serial
  golden stream (pinned by the consolidated differential harness in
  ``tests/experiments/``), so planning is purely a performance decision —
  ``auto`` can never change a trajectory.
* **Plans are not part of a trajectory's identity.**  Checkpoint
  fingerprints exclude the execution layout (see
  ``repro.experiments.runner._trial_fingerprint``), so a run checkpointed
  under one plan resumes bit-identically under another — including
  ``execution="auto"`` resumed on a host with a different ``cpu_count``.

The forbidden combinations, ``"batch"`` × checkpointing and ``"batch"``
past :data:`KERNEL_MAX_STEPS` steps, are rejected at configuration time by
:func:`validate_execution_settings`, mirroring
:func:`repro.experiments.config.validate_checkpoint_settings`.

``"shard"`` named the retired process shard pool.  It is kept for the
benchmark harness until its next change, as a second name for ``"batch"``:
validated and planned exactly like it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.core.sharding import max_worker_shards

__all__ = [
    "EXECUTION_MODES",
    "CampaignBudget",
    "ExecutionPlan",
    "plan_campaign_jobs",
    "plan_execution",
    "reset_planner_caches",
    "validate_execution_settings",
]

#: The values the ``execution`` knob accepts.  ``"shard"`` is a second name
#: for ``"batch"``, kept for the benchmark harness until its next change
#: (``perfbench/workloads.py`` plans it and builds configs with it).
EXECUTION_MODES = ("auto", "serial", "batch", "pool", "shard")

#: The modes that run the lockstep kernel.
_KERNEL_MODES = ("batch", "shard")

#: The layouts a plan resolves to.
_LAYOUTS = ("serial", "batch", "pool")

#: Fewest user-trials (trials x users) per lockstep-kernel thread.  A
#: thread's lane spans every trial, so its work is its users times the
#: trials, and that work must outlast the hand-offs between threads.  On
#: a 2-CPU host (numpy 2.4; one trial, 20 steps, aggregate history,
#: compressed refit; median of 3-15 runs) two threads ran 32,000 users
#: 1.18x and 48,000 users 1.06x slower than one thread, and 64,000 users
#: 1.18x, 100,000 users 1.45x and 1,000,000 users 1.63x faster.  Over
#: trials (19 steps, medians of 4 interleaved rounds), two threads ran 32
#: trials x 20,000 users 1.34x faster than one (2.27 -> 1.70 s; aggregate
#: history, compressed refit), and 5 trials x 1,000 users 0.69x as fast
#: (full history, exact refit, a campaign job's shape).
KERNEL_MIN_USER_TRIALS_PER_THREAD = 32_768

#: Fewest users per lockstep-kernel thread, whatever the trials.  A lane's
#: step makes a few numpy calls per trial row; on short rows they hold the
#: GIL about as long as they compute, so two threads contend instead of
#: overlapping.  On a 2-CPU host (numpy 2.4; 19 steps, aggregate history,
#: compressed refit; medians of 7-9 interleaved rounds) two threads ran,
#: against one, lanes of 1,250 users (256 trials x 2,500) 0.92x as fast,
#: of 2,500 users (16, 24, 32 and 128 trials x 5,000) 0.87-1.03x, of 5,000
#: users 0.84-1.01x at 8 and 12 trials x 10,000 but 1.15x and 1.14x at 16
#: and 64, and of 10,000 users or more (4-32 trials x 20,000, 2 and 4
#: trials x 40,000) 1.01-1.51x.
KERNEL_MIN_USERS_PER_THREAD = 5_000

#: Most steps the lockstep kernel runs.  It keeps each user's filter state
#: as a cell of an ``(S + 1) x (S + 1)`` grid and builds, once per run,
#: tables with an entry per cell (see :mod:`repro.experiments.batch`):
#: about 48 bytes a cell kept and 85 while they are built, and 0.12-0.18
#: us a cell to build on a 2-CPU host.  At 1,023 steps (2**20 cells) that
#: is 48 MiB kept, 84 MiB at the peak and 0.17 s, whatever the population;
#: at 300 steps 4 MiB and 11 ms.  ``"auto"`` runs a longer
#: horizon on the serial loop, and ``"batch"`` rejects it at configuration
#: time.
KERNEL_MAX_STEPS = 1023


#: Per-process memo of the core-count probe.  The usable cores cannot
#: change under a running interpreter, so a campaign planning 10k jobs
#: probes once, not once per job.
_CPU_COUNT_MEMO: Optional[int] = None


def reset_planner_caches() -> None:
    """Forget the memoized cpu-count probe.

    Test seam: suites that monkeypatch the probes ``os.sched_getaffinity``
    and ``os.cpu_count`` (rather than the :func:`_detect_cpu_count`
    function itself) call this between cases.
    """
    global _CPU_COUNT_MEMO
    _CPU_COUNT_MEMO = None


def _detect_cpu_count() -> int:
    """Return the CPUs this process may run on (monkeypatchable seam).

    The affinity mask, where the platform has one, not ``os.cpu_count()``:
    under ``taskset`` or a container's CPU set the host count overstates
    the usable cores, and every pool and kernel thread sized from it would
    share them.
    """
    global _CPU_COUNT_MEMO
    if _CPU_COUNT_MEMO is None:
        if hasattr(os, "sched_getaffinity"):
            _CPU_COUNT_MEMO = len(os.sched_getaffinity(0)) or 1
        else:
            _CPU_COUNT_MEMO = os.cpu_count() or 1
    return _CPU_COUNT_MEMO


def validate_execution_settings(
    execution: str,
    *,
    steps: int = 0,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> None:
    """Reject unusable ``execution`` combinations with actionable errors.

    Called from :class:`~repro.experiments.config.CaseStudyConfig`
    construction and from :func:`plan_execution`, so a bad combination
    fails at configuration time — the same contract as
    :func:`~repro.experiments.config.validate_checkpoint_settings`.
    """
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
        )
    if execution in _KERNEL_MODES and steps > KERNEL_MAX_STEPS:
        raise ValueError(
            f"execution={execution!r} runs at most {KERNEL_MAX_STEPS} steps, "
            f"this run has {steps} (the lockstep kernel's per-run tables grow "
            "with the square of the step count); pick execution='auto', "
            "which runs a longer horizon on the serial loop, or 'serial'"
        )
    if execution in _KERNEL_MODES and (checkpoint_every > 0 or resume):
        raise ValueError(
            f"execution={execution!r} is incompatible with checkpointing (the "
            "batched engine advances all trials in lockstep with no "
            "per-trial boundary to snapshot); pick another execution mode, "
            "or drop the checkpoint_every/resume knobs"
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """The resolved layout of one experiment (or trial) run.

    Attributes
    ----------
    execution:
        The requested knob value (``"auto"``, ``"serial"``, ...).
    layout:
        The resolved layout: ``"serial"``, ``"batch"`` (the lockstep
        kernel) or ``"pool"`` (the trial pool).
    max_workers:
        The trial pool's worker count (at least two), or a ``batch`` plan's
        kernel thread count: the threads that run the lockstep kernel's
        per-user phases, one lane of whole canonical shards each (``None``
        means one).
    cpu_count:
        The usable core count the planner saw (the process's affinity
        mask, not the host's CPU count).  Recorded for diagnostics only —
        it is *excluded* from checkpoint fingerprints, so plans chosen on
        different hosts resume each other's checkpoints bit-identically.
    """

    execution: str
    layout: str
    max_workers: Optional[int]
    cpu_count: int

    def __post_init__(self) -> None:
        self.validate()

    @property
    def trial_batch(self) -> bool:
        """Whether the plan runs the lockstep kernel."""
        return self.layout == "batch"

    @property
    def parallel(self) -> bool:
        """Whether the plan runs the trial pool."""
        return self.layout == "pool"

    @property
    def shard_parallel(self) -> bool:
        """Always ``False``: no plan runs the retired process shard pool.

        Kept for the benchmark harness until its next change
        (``perfbench/workloads.py`` reads it).
        """
        return False

    def validate(self) -> None:
        """Assert the plan's internal consistency (no forbidden combos)."""
        if self.execution not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {self.execution!r}")
        if self.layout not in _LAYOUTS:
            raise ValueError(f"layout must be one of {_LAYOUTS}, got {self.layout!r}")
        if self.parallel and (self.max_workers is None or self.max_workers < 2):
            raise ValueError("a pooled plan needs at least two workers")
        if self.trial_batch and self.max_workers is not None and self.max_workers < 1:
            raise ValueError("a batched plan needs a positive kernel thread count")
        if self.cpu_count < 1:
            raise ValueError("cpu_count must be positive")

    def describe(self) -> str:
        """Return a one-line human summary of the plan."""
        pieces = [f"{self.execution}->{self.layout}"]
        if self.parallel:
            pieces.append(f"{self.max_workers} trial workers")
        elif self.trial_batch:
            threads = self.max_workers or 1
            pieces.append(
                f"lockstep trials on {threads} kernel thread"
                + ("s" if threads > 1 else "")
            )
        else:
            pieces.append("in-process")
        return ", ".join(pieces) + f" (saw {self.cpu_count} cpu)"


def _kernel_thread_count(
    trials: int, users: int, cores: int, requested: Optional[int]
) -> int:
    """Resolve a ``batch`` plan's kernel thread count.

    The smallest of the usable cores, the ``max_workers`` cap, the
    canonical shard count (a lane is made of whole shards), the run's
    share at :data:`KERNEL_MIN_USER_TRIALS_PER_THREAD` user-trials a
    thread and at :data:`KERNEL_MIN_USERS_PER_THREAD` users a thread, and
    at least one.
    """
    threads = min(
        cores,
        max_worker_shards(users),
        trials * users // KERNEL_MIN_USER_TRIALS_PER_THREAD,
        users // KERNEL_MIN_USERS_PER_THREAD,
    )
    if requested is not None:
        threads = min(threads, int(requested))
    return max(1, threads)


def plan_execution(
    execution: str,
    *,
    trials: int,
    users: int,
    steps: int,
    history_mode: str = "full",
    retrain_mode: str = "compressed",
    checkpoint_every: int = 0,
    resume: bool = False,
    cpu_count: Optional[int] = None,
    max_workers: Optional[int] = None,
) -> ExecutionPlan:
    """Resolve an ``execution`` request into an :class:`ExecutionPlan`.

    Deterministic for fixed inputs (``cpu_count`` included; it defaults to
    the live core count).  ``history_mode`` is accepted for completeness —
    every layout supports both modes, so it does not steer the choice, but
    the signature is the stable seam where a mode-specific layout
    preference would land.  ``retrain_mode`` accepts only
    ``"compressed"``, the one refit, and steers nothing.  A ``batch``
    plan, which ``"auto"`` returns for every in-process run that does not
    checkpoint and has at most :data:`KERNEL_MAX_STEPS` steps, has the
    kernel thread count as its ``max_workers``, capped by ``max_workers``.
    A ``pool`` plan has ``min(trials, cores, max_workers)`` workers, and
    is planned only when that is at least two.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if users < 1:
        raise ValueError("users must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if history_mode not in ("full", "aggregate"):
        raise ValueError(
            f'history_mode must be "full" or "aggregate", got {history_mode!r}'
        )
    # Shim: the loop has one refit, but the benchmark harness still passes
    # retrain_mode="compressed" (perfbench/workloads.py).  Delete the
    # parameter in its next change (ROADMAP item 7).
    if retrain_mode != "compressed":
        raise ValueError(
            f'retrain_mode accepts only "compressed", got {retrain_mode!r}'
        )
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be positive when given")
    validate_execution_settings(
        execution, steps=steps, checkpoint_every=checkpoint_every, resume=resume
    )
    cores = _detect_cpu_count() if cpu_count is None else int(cpu_count)
    if cores < 1:
        raise ValueError("cpu_count must be positive")
    if execution == "serial":
        return ExecutionPlan("serial", "serial", None, cores)
    if execution not in _KERNEL_MODES:
        workers = min(trials, cores, max_workers or cores)
        if workers >= 2:
            return ExecutionPlan(execution, "pool", workers, cores)
        # One trial on any host, or several on one core (or one worker):
        # "pool" runs them on the serial loop, and so does "auto" when
        # checkpointing or a horizon past the kernel's step bound forbids
        # the kernel.  validate_execution_settings above already rejected
        # both for the kernel modes.
        checkpointing = checkpoint_every > 0 or resume
        if execution == "pool" or checkpointing or steps > KERNEL_MAX_STEPS:
            return ExecutionPlan(execution, "serial", None, cores)
    threads = _kernel_thread_count(trials, users, cores, max_workers)
    return ExecutionPlan(execution, "batch", threads, cores)


@dataclass(frozen=True)
class CampaignBudget:
    """How a campaign's concurrent jobs split the host's core budget.

    A campaign runs many independent experiments (jobs).  Left to itself,
    every job would hand :func:`plan_execution` the *whole* host core
    count and greedily size its own trial pool and kernel threads — J
    concurrent jobs would then oversubscribe the machine J times over.
    The budget instead runs ``job_workers`` jobs side by side and grants
    each a ``cores_per_job`` slice, which is the ``cpu_count`` its
    :func:`plan_execution` call sees.

    Attributes
    ----------
    jobs:
        Number of jobs the budget was sized for (the campaign's pending
        work, not its grid size).
    job_workers:
        Jobs executed concurrently.  Job-level parallelism is the
        outermost, synchronization-free axis, so it is preferred over
        intra-job pools whenever there are at least as many jobs as cores.
    cores_per_job:
        The ``cpu_count`` each concurrent job plans against (>= 1).
    cpu_count:
        The host core count the budget divided up.
    """

    jobs: int
    job_workers: int
    cores_per_job: int
    cpu_count: int

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError("jobs must be non-negative")
        if self.job_workers < 1:
            raise ValueError("job_workers must be positive")
        if self.cores_per_job < 1:
            raise ValueError("cores_per_job must be positive")
        if self.cpu_count < 1:
            raise ValueError("cpu_count must be positive")
        if self.job_workers * self.cores_per_job > max(self.cpu_count, 1) * 2:
            # Mild oversubscription (rounding) is fine; 2x is a planning bug.
            raise ValueError(
                f"budget oversubscribes the host: {self.job_workers} jobs x "
                f"{self.cores_per_job} cores on {self.cpu_count} cpus"
            )

    def describe(self) -> str:
        """Return a one-line human summary of the budget."""
        return (
            f"{self.job_workers} concurrent job(s) x {self.cores_per_job} "
            f"core(s) each (saw {self.cpu_count} cpu, {self.jobs} job(s) pending)"
        )


def plan_campaign_jobs(
    jobs: int,
    *,
    cpu_count: Optional[int] = None,
    max_workers: Optional[int] = None,
) -> CampaignBudget:
    """Split the host's cores across a campaign's pending jobs.

    Jobs are whole independent experiments, so running them side by side
    parallelizes everything — including the per-step refits and group
    folds that stay on the lockstep kernel's calling thread — with zero
    synchronization.  The budget therefore maximizes ``job_workers`` first
    (up to the core count and the optional ``max_workers`` cap) and only
    leaves ``cores_per_job > 1`` when cores outnumber jobs; each concurrent
    job must then hand its
    ``cores_per_job`` slice to :func:`plan_execution` as ``cpu_count``
    instead of letting the planner see the whole host.
    """
    if jobs < 0:
        raise ValueError("jobs must be non-negative")
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be positive when given")
    cores = _detect_cpu_count() if cpu_count is None else int(cpu_count)
    if cores < 1:
        raise ValueError("cpu_count must be positive")
    workers = min(max(jobs, 1), cores)
    if max_workers is not None:
        workers = min(workers, max_workers)
    workers = max(1, workers)
    return CampaignBudget(
        jobs=jobs,
        job_workers=workers,
        cores_per_job=max(1, cores // workers),
        cpu_count=cores,
    )
