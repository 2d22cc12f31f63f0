"""The execution planner: one knob picks how a run executes.

The engine has three execution layouts:

* the lockstep tensor kernel (``batch``): every trial in one process, the
  per-user math fused across the trial axis;
* the trial process pool (``pool``): several heavy trials on several
  cores;
* the intra-trial shard pool (``shard``): one trial's users spread over
  worker processes.

:func:`plan_execution` turns the measured rules into code: given the
workload shape (trials, users, steps), the host (``cpu_count``), the
recording and retraining modes, and the checkpoint knobs, it resolves a
single ``execution`` request — ``"auto"``, ``"serial"``, ``"batch"``,
``"pool"`` or ``"shard"`` — into an :class:`ExecutionPlan`, which the
runner executes.  ``"auto"`` pools trials when there are several trials
and several cores, and may *compose* layouts (trial pooling × user
sharding when cores outnumber trials).  Otherwise — one trial on any
host, or several trials on one core — it runs in process on the lockstep
kernel, or on the serial loop when checkpointing.  A single trial never
goes to the shard pool under ``"auto"``: on a 2-CPU host the pool ran a 1M-user trial slower than the
in-process kernel, because its orchestrator records and decides serially
while the workers wait.  An optional calibration micro-bench
(:func:`measure_dispatch_overhead`) refines the batch-vs-serial call for
several trials on one core.  The lockstep kernel requires the AI system's
decisions to be 0/1, so a custom policy with other decisions runs with
``"serial"``, whose filter truncates them to integers, not ``"auto"``.

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

The one forbidden combination, ``"batch"`` × checkpointing, is rejected at
configuration time by :func:`validate_execution_settings`, mirroring
:func:`repro.experiments.config.validate_checkpoint_settings`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.sharding import max_worker_shards

__all__ = [
    "EXECUTION_MODES",
    "CampaignBudget",
    "ExecutionPlan",
    "plan_campaign_jobs",
    "plan_execution",
    "reset_planner_caches",
    "validate_execution_settings",
    "measure_dispatch_overhead",
]

#: The values the ``execution`` knob accepts.
EXECUTION_MODES = ("auto", "serial", "batch", "pool", "shard")

#: Below this population size ``auto`` never composes pooled trials with
#: the shard pool: the per-step pool round-trip costs more than the
#: per-user math saves.
AUTO_SHARD_MIN_USERS = 2048

#: ``auto`` composes trial pooling with user sharding only when at least
#: this many cores are left per pooled trial.
AUTO_COMPOSE_MIN_CORES_PER_TRIAL = 2

#: Calibration threshold: when the measured per-step dispatch overhead is
#: below this fraction of a step's vectorized work, batching has nothing
#: to amortise and ``auto`` keeps the serial loop.
AUTO_BATCH_MIN_DISPATCH_FRACTION = 0.01


#: Per-process memos of the host probes.  The core count cannot change
#: under a running interpreter, and the dispatch-overhead micro-bench is a
#: property of the interpreter + BLAS build, not of the workload — so a
#: campaign planning 10k jobs pays for each probe once, not once per job.
_CPU_COUNT_MEMO: Optional[int] = None
_DISPATCH_MEMO: Dict[int, float] = {}


def reset_planner_caches() -> None:
    """Forget the memoized cpu-count and dispatch-overhead probes.

    Test seam: suites that monkeypatch ``os.cpu_count`` (rather than the
    :func:`_detect_cpu_count` function itself) or want a fresh calibration
    probe call this between cases.
    """
    global _CPU_COUNT_MEMO
    _CPU_COUNT_MEMO = None
    _DISPATCH_MEMO.clear()


def _detect_cpu_count() -> int:
    """Return the host's CPU count (monkeypatchable seam for tests)."""
    global _CPU_COUNT_MEMO
    if _CPU_COUNT_MEMO is None:
        _CPU_COUNT_MEMO = os.cpu_count() or 1
    return _CPU_COUNT_MEMO


def validate_execution_settings(
    execution: str, *, checkpoint_every: int = 0, resume: bool = False
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
    if execution == "batch" and (checkpoint_every > 0 or resume):
        raise ValueError(
            'execution="batch" is incompatible with checkpointing (the '
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
        The resolved headline layout: ``"serial"``, ``"batch"``,
        ``"pool"``, ``"shard"`` or the composition ``"pool+shard"``.
    trial_batch, parallel, max_workers, num_shards, shard_parallel:
        The concrete layout: the lockstep kernel, the trial pool and its
        worker count, and the shard count and pool each trial's
        ``ClosedLoop.run`` gets.
    cpu_count:
        The core count the planner saw.  Recorded for diagnostics only —
        it is *excluded* from checkpoint fingerprints, so plans chosen on
        different hosts resume each other's checkpoints bit-identically.
    calibrated:
        Whether the calibration micro-bench informed the choice.
    """

    execution: str
    layout: str
    trial_batch: bool
    parallel: bool
    max_workers: Optional[int]
    num_shards: int
    shard_parallel: bool
    cpu_count: int
    calibrated: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Assert the plan's internal consistency (no forbidden combos)."""
        if self.execution not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {self.execution!r}")
        if self.trial_batch and (self.parallel or self.shard_parallel):
            raise ValueError(
                "a batched plan cannot also pool trials or shards (the "
                "batched engine owns every trial in one process)"
            )
        if self.num_shards < 1:
            raise ValueError("num_shards must be positive")
        if self.shard_parallel and self.num_shards < 2:
            raise ValueError("a sharded plan needs at least two worker shards")
        if self.parallel and (self.max_workers is None or self.max_workers < 1):
            raise ValueError("a pooled plan needs a positive worker count")
        if self.cpu_count < 1:
            raise ValueError("cpu_count must be positive")

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serializable form (round-trips via :meth:`from_dict`)."""
        return {
            "execution": self.execution,
            "layout": self.layout,
            "trial_batch": self.trial_batch,
            "parallel": self.parallel,
            "max_workers": self.max_workers,
            "num_shards": self.num_shards,
            "shard_parallel": self.shard_parallel,
            "cpu_count": self.cpu_count,
            "calibrated": self.calibrated,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_dict` output (validates on build)."""
        return cls(
            execution=str(payload["execution"]),
            layout=str(payload["layout"]),
            trial_batch=bool(payload["trial_batch"]),
            parallel=bool(payload["parallel"]),
            max_workers=(
                None
                if payload.get("max_workers") is None
                else int(payload["max_workers"])
            ),
            num_shards=int(payload["num_shards"]),
            shard_parallel=bool(payload["shard_parallel"]),
            cpu_count=int(payload["cpu_count"]),
            calibrated=bool(payload.get("calibrated", False)),
        )

    def describe(self) -> str:
        """Return a one-line human summary of the plan."""
        pieces = [f"{self.execution}->{self.layout}"]
        if self.parallel:
            pieces.append(f"{self.max_workers} trial workers")
        if self.trial_batch:
            pieces.append("lockstep trials")
        if self.shard_parallel:
            pieces.append(f"{self.num_shards} shard workers")
        if not (self.parallel or self.trial_batch or self.shard_parallel):
            pieces.append("in-process")
        return ", ".join(pieces) + f" (saw {self.cpu_count} cpu)"


def measure_dispatch_overhead(users: int, probes: int = 3) -> float:
    """Estimate the per-step Python dispatch fraction of one loop step.

    Times a trivial Python call chain (the fixed per-step cost batching
    amortises) against one vectorized O(users) kernel (the work that
    doesn't shrink), and returns ``dispatch / (dispatch + work)`` from the
    best of ``probes`` runs.  The probe array is capped so calibration
    costs milliseconds even for million-user plans.  Calibration only ever
    tunes the *layout* — every layout is bit-identical, so a noisy probe
    cannot perturb a trajectory.

    Memoized per process on the capped probe size (the only input that
    shapes the measurement): a calibrated 10k-job campaign probes once.
    :func:`reset_planner_caches` forgets the memo.
    """
    size = max(16, min(int(users), 1 << 16))
    memoized = _DISPATCH_MEMO.get(size)
    if memoized is not None:
        return memoized
    values = np.linspace(0.0, 1.0, size)
    out = np.empty_like(values)

    def _noop(payload: Dict[str, float]) -> Dict[str, float]:
        return payload

    best_work = float("inf")
    best_dispatch = float("inf")
    for _ in range(max(1, probes)):
        start = time.perf_counter()
        np.multiply(values, 1.0000001, out=out)
        np.clip(out, 0.0, 1.0, out=out)
        best_work = min(best_work, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(8):
            _noop({"step": 0.0})["step"]
        best_dispatch = min(best_dispatch, time.perf_counter() - start)
    total = best_work + best_dispatch
    fraction = 0.0 if total <= 0.0 else best_dispatch / total
    _DISPATCH_MEMO[size] = fraction
    return fraction


def _shard_worker_count(
    users: int, cores: int, requested: Optional[int]
) -> int:
    """Resolve the shard-pool worker count for one trial.

    Capped by the canonical shard count (extra workers would idle — see
    :func:`~repro.core.sharding.max_worker_shards`) and the population
    size; an explicit request wins over the core count.
    """
    ceiling = max_worker_shards(users)
    if requested is not None:
        return max(1, min(int(requested), ceiling))
    return max(1, min(max(cores, 2), ceiling))


def plan_execution(
    execution: str,
    *,
    trials: int,
    users: int,
    steps: int,
    history_mode: str = "full",
    retrain_mode: str = "exact",
    checkpoint_every: int = 0,
    resume: bool = False,
    cpu_count: Optional[int] = None,
    max_workers: Optional[int] = None,
    num_shards: Optional[int] = None,
    calibrate: bool = False,
) -> ExecutionPlan:
    """Resolve an ``execution`` request into an :class:`ExecutionPlan`.

    Deterministic for fixed inputs (``cpu_count`` included; it defaults to
    the live core count) unless ``calibrate`` lets the micro-bench break a
    batch-vs-serial tie.  ``history_mode`` and ``retrain_mode`` are
    accepted for completeness — every layout supports both today, so they
    do not steer the choice, but the signature is the stable seam where a
    mode-specific layout preference would land.  A ``batch`` plan, which
    ``"auto"`` returns for every in-process run that does not checkpoint,
    requires 0/1 decisions from the AI system.
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
    if retrain_mode not in ("exact", "compressed"):
        raise ValueError(
            f'retrain_mode must be "exact" or "compressed", got {retrain_mode!r}'
        )
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be positive when given")
    validate_execution_settings(
        execution, checkpoint_every=checkpoint_every, resume=resume
    )
    cores = _detect_cpu_count() if cpu_count is None else int(cpu_count)
    if cores < 1:
        raise ValueError("cpu_count must be positive")
    checkpointing = checkpoint_every > 0 or resume

    def serial_plan(requested: str, calibrated: bool = False) -> ExecutionPlan:
        return ExecutionPlan(
            execution=requested,
            layout="serial",
            trial_batch=False,
            parallel=False,
            max_workers=None,
            num_shards=1,
            shard_parallel=False,
            cpu_count=cores,
            calibrated=calibrated,
        )

    if execution == "serial":
        return serial_plan("serial")

    if execution == "batch":
        # validate_execution_settings above already rejected checkpointing.
        return ExecutionPlan(
            execution="batch",
            layout="batch",
            trial_batch=True,
            parallel=False,
            max_workers=None,
            num_shards=1,
            shard_parallel=False,
            cpu_count=cores,
        )

    if execution == "pool":
        if trials < 2:
            return serial_plan("pool")  # nothing to pool over
        workers = min(trials, cores if max_workers is None else max_workers)
        return ExecutionPlan(
            execution="pool",
            layout="pool",
            trial_batch=False,
            parallel=True,
            max_workers=max(1, workers),
            num_shards=1,
            shard_parallel=False,
            cpu_count=cores,
        )

    if execution == "shard":
        shards = _shard_worker_count(users, cores, num_shards)
        if shards < 2:
            return serial_plan("shard")  # one-user-ish populations
        return ExecutionPlan(
            execution="shard",
            layout="shard",
            trial_batch=False,
            parallel=False,
            max_workers=None,
            num_shards=shards,
            shard_parallel=True,
            cpu_count=cores,
        )

    # execution == "auto"
    if trials > 1 and cores > 1:
        workers = min(trials, cores if max_workers is None else max_workers)
        workers = max(1, workers)
        spare = cores // workers
        if (
            spare >= AUTO_COMPOSE_MIN_CORES_PER_TRIAL
            and users >= AUTO_SHARD_MIN_USERS
        ):
            shards = _shard_worker_count(users, spare, num_shards)
            if shards >= 2:
                # Composition: pooled trials, each sharding its users over
                # the cores its siblings leave idle.
                return ExecutionPlan(
                    execution="auto",
                    layout="pool+shard",
                    trial_batch=False,
                    parallel=True,
                    max_workers=workers,
                    num_shards=shards,
                    shard_parallel=True,
                    cpu_count=cores,
                )
        return ExecutionPlan(
            execution="auto",
            layout="pool",
            trial_batch=False,
            parallel=True,
            max_workers=workers,
            num_shards=1,
            shard_parallel=False,
            cpu_count=cores,
        )
    # In process: one trial on any host (no host has yet measured the shard
    # pool beating it), or several trials on one core.  The lockstep kernel
    # runs them, unless checkpointing forbids it or, for several trials,
    # the calibration probe finds no per-step dispatch worth amortising.
    if checkpointing:
        return serial_plan("auto")
    calibrated = calibrate and trials > 1
    if (
        calibrated
        and measure_dispatch_overhead(users) < AUTO_BATCH_MIN_DISPATCH_FRACTION
    ):
        return serial_plan("auto", calibrated=True)
    return ExecutionPlan(
        execution="auto",
        layout="batch",
        trial_batch=True,
        parallel=False,
        max_workers=None,
        num_shards=1,
        shard_parallel=False,
        cpu_count=cores,
        calibrated=calibrated,
    )


@dataclass(frozen=True)
class CampaignBudget:
    """How a campaign's concurrent jobs split the host's core budget.

    A campaign runs many independent experiments (jobs).  Left to itself,
    every job would hand :func:`plan_execution` the *whole* host core
    count and greedily size its own trial/shard pools — J concurrent jobs
    would then oversubscribe the machine J times over.  The budget instead
    runs ``job_workers`` jobs side by side and grants each a
    ``cores_per_job`` slice, which is the ``cpu_count`` its
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
    parallelizes everything — including the central refit that caps the
    shard pool's speedup — with zero synchronization.  The budget therefore
    maximizes ``job_workers`` first (up to the core count and the optional
    ``max_workers`` cap) and only leaves ``cores_per_job > 1`` when cores
    outnumber jobs; each concurrent job must then hand its
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
