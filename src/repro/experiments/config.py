"""Configuration of the paper's credit-scoring case study.

One frozen dataclass gathers every parameter of Section VII: the population
size and race mix, the simulated calendar window, the mortgage terms, the
repayment-model sensitivity, the scorecard cut-off, and the number of
trials.  The defaults reproduce the paper exactly; benchmarks and tests use
scaled-down copies via :meth:`CaseStudyConfig.scaled`.

The same dataclass carries how a run executes — the ``execution`` layout,
its worker cap, and the checkpoint knobs.  It is the run's only
configuration: the runners take no per-call overrides of its fields, so a
variant is ``dataclasses.replace(config, execution="pool", max_workers=2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Tuple

from repro.core.planner import validate_execution_settings
from repro.data.census import Race, paper_race_mix
from repro.utils.validation import require_positive

__all__ = [
    "CaseStudyConfig",
    "validate_checkpoint_settings",
    "validate_execution_settings",
]


def validate_checkpoint_settings(
    checkpoint_dir: str | None, checkpoint_every: int, resume: bool
) -> None:
    """Reject unusable checkpoint knob combinations with actionable errors.

    Called from :class:`CaseStudyConfig` construction, so a bad
    combination fails at configuration time — not at step 900 of a
    1000-step trial.
    """
    if checkpoint_every < 0:
        raise ValueError(
            f"checkpoint_every must be non-negative, got {checkpoint_every}"
        )
    if checkpoint_every > 0 and checkpoint_dir is None:
        raise ValueError(
            "checkpoint_every > 0 needs somewhere to write snapshots: "
            "set checkpoint_dir (CLI: --checkpoint-dir)"
        )
    if resume and checkpoint_dir is None:
        raise ValueError(
            "resume=True needs somewhere to look for checkpoints: "
            "set checkpoint_dir (CLI: --checkpoint-dir)"
        )


@dataclass(frozen=True)
class CaseStudyConfig:
    """Parameters of the credit-scoring closed-loop simulation.

    Attributes
    ----------
    num_users:
        Number of simulated households per trial (paper: 1000); at least 2,
        since the lender's first refit needs two offered users.
    num_trials:
        Number of independent trials, each with a fresh population
        (paper: 5).
    start_year, end_year:
        Simulated calendar window; one time step per year (paper:
        2002-2020).
    race_mix:
        Sampling distribution of the protected attribute (paper: the 2002
        household ratio).
    income_multiple, annual_rate, living_cost:
        Mortgage terms (paper: 3.5x, 2.16%, $10K).
    repayment_sensitivity:
        Slope of the probit repayment model (paper: 5).
    cutoff:
        Scorecard cut-off score (paper: 0.4).
    warm_up_rounds:
        Initial years with approve-everyone decisions (paper: 2); at least
        1, since the lender needs one year of outcomes before it can score.
    seed:
        Master seed; trial ``t`` derives its own stream from it.
    history_mode:
        Trajectory recording mode: ``"full"`` (default) retains every
        ``(steps, users)`` column so per-user figures and matrices are
        available; ``"aggregate"`` streams each step through an
        :class:`~repro.core.streaming.AggregateHistory` and keeps only
        group-level series, bounding memory at ``O(users)`` running state
        for million-user trials.  Group-level results (``ADR_s(k)``,
        approval and action-average series) are bit-identical between the
        two modes; per-user accessors raise
        :class:`~repro.core.history.FullHistoryRequiredError` in aggregate
        mode.
    max_workers:
        Worker cap of the trial pool, and of the lockstep kernel's threads
        under a ``batch`` plan (``None`` sizes both from the usable core
        count).
    retrain_mode:
        Accepts only ``"compressed"`` and changes nothing: the yearly
        refit is always the count-table fit of
        :meth:`~repro.credit.lender.Lender.retrain`.  The field stays for
        the benchmark harness until its next change (ROADMAP item 7), and
        no fingerprint or cache key reads it.
    checkpoint_dir:
        Directory holding per-trial step snapshots and completed-trial
        results.  Required when ``checkpoint_every`` or ``resume`` is
        set.  Whenever it is set, ``run_experiment`` saves every completed
        trial's result there, under every ``execution`` mode, so a later
        ``resume`` skips that trial.
    checkpoint_every:
        Snapshot each trial's full loop state every this many steps,
        written crash-consistently (see :mod:`repro.core.checkpoint`).
        ``0`` (default) disables step checkpointing.  Because the random
        streams are stateless per ``(trial, shard, step)``, a trial
        resumed from a snapshot is bit-identical to the uninterrupted
        run.  Incompatible with ``execution="batch"``.
    resume:
        Pick up an interrupted experiment from ``checkpoint_dir``:
        trials with a completed result on disk are skipped outright, and a
        trial with a step snapshot continues from its latest intact one.
        Snapshots carry a configuration fingerprint; resuming with a
        different configuration fails with an actionable error instead of
        silently mixing runs.
    execution:
        How the run executes, resolved by the planner
        (:func:`~repro.core.planner.plan_execution`): ``"serial"``
        (default) runs each trial in process on the serial loop,
        ``"batch"`` runs every trial in lockstep on the tensor kernel
        (:class:`~repro.experiments.batch.BatchedTrialRunner`), whose
        threads spread each trial's users over the usable cores,
        ``"pool"`` runs trials on a process pool, and ``"auto"`` inspects
        (``cpu_count``, trials, users, steps, checkpoint knobs) and picks
        one of them.  ``"shard"`` is a second name for ``"batch"``, kept
        for the benchmark harness until its next change.  Every layout is
        bit-identical, so this is purely a performance choice — and it is
        excluded from checkpoint fingerprints, so a run checkpointed under
        one plan resumes under another (e.g. ``"auto"`` on a host with a
        different core count).
    """

    num_users: int = 1000
    num_trials: int = 5
    start_year: int = 2002
    end_year: int = 2020
    race_mix: Mapping[Race, float] = field(default_factory=paper_race_mix)
    income_multiple: float = 3.5
    annual_rate: float = 0.0216
    living_cost: float = 10.0
    repayment_sensitivity: float = 5.0
    cutoff: float = 0.4
    warm_up_rounds: int = 2
    seed: int = 20240101
    history_mode: str = "full"
    max_workers: int | None = None
    # Shim for perfbench/workloads.py, which sets it; delete in the next
    # benchmark change (ROADMAP item 7).
    retrain_mode: str = "compressed"
    checkpoint_dir: str | None = None
    checkpoint_every: int = 0
    resume: bool = False
    execution: str = "serial"

    def __post_init__(self) -> None:
        if self.history_mode not in ("full", "aggregate"):
            raise ValueError(
                f'history_mode must be "full" or "aggregate", got {self.history_mode!r}'
            )
        if self.retrain_mode != "compressed":
            raise ValueError(
                f'retrain_mode accepts only "compressed", got {self.retrain_mode!r}'
            )
        require_positive(self.num_users, "num_users")
        if self.num_users < 2:
            raise ValueError(
                "num_users must be at least 2: the lender's first refit needs "
                "two offered users, and with one every run would fail there"
            )
        require_positive(self.num_trials, "num_trials")
        if self.end_year < self.start_year:
            raise ValueError("end_year must not precede start_year")
        if self.warm_up_rounds < 1:
            raise ValueError(
                "warm_up_rounds must be at least 1: every policy's lender "
                "approves everyone until its first refit, and with no warm-up "
                "round it would have to decide at step 0 before being "
                "retrained"
            )
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError("max_workers must be positive when given")
        validate_checkpoint_settings(
            self.checkpoint_dir, self.checkpoint_every, self.resume
        )
        validate_execution_settings(
            self.execution,
            steps=self.num_steps,
            checkpoint_every=self.checkpoint_every,
            resume=self.resume,
        )

    @property
    def num_steps(self) -> int:
        """Return the number of simulated time steps (one per year)."""
        return self.end_year - self.start_year + 1

    @property
    def years(self) -> Tuple[int, ...]:
        """Return the simulated calendar years."""
        return tuple(range(self.start_year, self.end_year + 1))

    def scaled(
        self, num_users: int | None = None, num_trials: int | None = None
    ) -> "CaseStudyConfig":
        """Return a copy with a smaller population and/or fewer trials.

        Convenient for tests and quick benchmarks that keep every other
        parameter at the paper's values.
        """
        return replace(
            self,
            num_users=num_users if num_users is not None else self.num_users,
            num_trials=num_trials if num_trials is not None else self.num_trials,
        )
