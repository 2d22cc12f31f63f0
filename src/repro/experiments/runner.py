"""Multi-trial runner of the credit-scoring closed loop.

A *trial* (the paper's term) generates a fresh batch of users and runs the
closed loop over the whole calendar window; the experiment repeats the trial
several times and aggregates the race-wise average-default-rate series into
mean and standard-deviation bands — exactly the quantities plotted in the
paper's Figures 3-5.

A run's :class:`~repro.experiments.config.CaseStudyConfig` is its whole
configuration: :func:`run_trial` and :func:`run_experiment` take no
per-call overrides of its fields, so a variant is
``dataclasses.replace(config, ...)``.  Each call resolves
``config.execution`` into an :class:`~repro.core.planner.ExecutionPlan`
and executes it:

* ``serial`` runs the trials one after another on the serial loop;
* ``batch`` runs every trial in lockstep through the trial-batched tensor
  engine (:mod:`repro.experiments.batch`), which stacks the per-trial
  populations into ``(trials, users)`` columns and fuses the deterministic
  per-step math across the trial axis;
* ``pool`` runs trials in process workers through
  :func:`~repro.core.supervision.supervised_map` (the trial body is
  numpy-crunching Python that holds the GIL, so threads could not overlap
  it); inputs that cannot be pickled, or trials past the retry budget, run
  on the serial loop instead.

The lockstep kernel is the one layout that spreads a trial's users over
cores: its per-user phases run on threads, one lane of whole canonical
shards each, stepped in blocks.  (``shard`` is a second name for ``batch``.)

Trials are embarrassingly parallel: trial ``t`` seeds its own generator via
``derive_seed(config.seed, "trial", t)``, so no random state is shared and
every layout yields bit-identical results.

Each trial records in one of two history modes (``config.history_mode``):
``"full"`` retains the ``(steps, users)`` columns, ``"aggregate"`` streams
the trajectory through an :class:`~repro.core.streaming.AggregateHistory`
and keeps only the group-level series the paper's figures need, bounding
memory for million-user trials.  Group-level results are bit-identical
between modes; per-user accessors (``user_default_rates``,
``stacked_user_series``) raise
:class:`~repro.core.history.FullHistoryRequiredError` in aggregate mode.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.ai_system import AISystem, CreditScoringSystem
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointSpec,
    config_fingerprint,
    load_latest_checkpoint,
    prune_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.filters import DefaultRateFilter
from repro.core.history import FullHistoryRequiredError, SimulationHistory
from repro.core.loop import ClosedLoop
from repro.core.metrics import group_approval_series, group_average_series
from repro.core.planner import ExecutionPlan, plan_execution
from repro.core.streaming import AggregateHistory
from repro.core.population import CreditPopulation
from repro.core.supervision import SupervisorPolicy, supervised_map
from repro.credit.lender import Lender
from repro.credit.mortgage import MortgageTerms
from repro.credit.repayment import GaussianRepaymentModel
from repro.data.census import IncomeTable, Race, default_income_table
from repro.data.synthetic import PopulationSpec, generate_population
from repro.experiments.batch import BatchedTrialRunner
from repro.experiments.config import CaseStudyConfig
from repro.testing.faults import fire as _fire_fault
from repro.utils.rng import derive_seed

__all__ = [
    "TrialResult",
    "ExperimentResult",
    "GroupSeriesMoments",
    "run_trial",
    "run_experiment",
    "trajectory_fingerprint_fields",
]


#: Signature of a policy factory: builds a fresh AI system for each trial.
PolicyFactory = Callable[[CaseStudyConfig, CreditPopulation], AISystem]


def default_policy_factory(
    config: CaseStudyConfig, population: CreditPopulation
) -> AISystem:
    """Build the paper's retraining scorecard lender for one trial."""
    return CreditScoringSystem(
        Lender(cutoff=config.cutoff, warm_up_rounds=config.warm_up_rounds)
    )


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial of the case study.

    Attributes
    ----------
    history:
        The trial's trajectory store: a
        :class:`~repro.core.history.SimulationHistory` in full mode, an
        :class:`~repro.core.streaming.AggregateHistory` in aggregate mode.
    user_default_rates:
        ``ADR_i(k)`` as a ``(steps, users)`` matrix, or ``None`` in
        aggregate mode (per-user rows are never materialised there).
    group_default_rates:
        ``ADR_s(k)`` per race as ``(steps,)`` vectors — available, and
        bit-identical, in both modes.
    races:
        The per-user race labels of the trial's population.
    years:
        Calendar years of the steps.
    """

    history: SimulationHistory | AggregateHistory
    user_default_rates: np.ndarray | None
    group_default_rates: Dict[Race, np.ndarray]
    races: np.ndarray
    years: Tuple[int, ...]

    @property
    def history_mode(self) -> str:
        """Return the recording mode this trial ran with."""
        return "aggregate" if isinstance(self.history, AggregateHistory) else "full"

    def group_indices(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the user indices of this trial's population."""
        races_array = np.asarray(self.races, dtype=object)
        return {race: np.flatnonzero(races_array == race) for race in Race}

    def approval_rate_series(self) -> np.ndarray:
        """Return the per-step approval rates (identical in both modes)."""
        return np.asarray(self.history.approval_rates())

    def group_action_averages(self) -> Dict[Race, np.ndarray]:
        """Return the per-race Cesàro action-average series.

        Aggregate mode reads the streaming series; full mode derives the
        same arrays (bit for bit) from the per-user history.
        """
        if isinstance(self.history, AggregateHistory):
            return dict(self.history.group_action_average_series())
        return group_average_series(
            self.history.running_action_averages(), self.group_indices()
        )

    def group_approval_series(self) -> Dict[Race, np.ndarray]:
        """Return the per-race per-step approval-rate series (both modes)."""
        if isinstance(self.history, AggregateHistory):
            return dict(self.history.group_approval_series())
        return group_approval_series(
            self.history.decisions_matrix(), self.group_indices()
        )

    def require_user_default_rates(self) -> np.ndarray:
        """Return the per-user ADR matrix, or raise in aggregate mode."""
        if self.user_default_rates is None:
            raise FullHistoryRequiredError(
                "per-user default-rate series are not retained in "
                'history_mode="aggregate"; rerun with history_mode="full"'
            )
        return self.user_default_rates

    @property
    def final_group_rates(self) -> Dict[Race, float]:
        """Return the last-step race-wise default rates."""
        return {race: float(series[-1]) for race, series in self.group_default_rates.items()}

    @property
    def final_group_gap(self) -> float:
        """Return the spread of the last-step race-wise default rates."""
        finite = [value for value in self.final_group_rates.values() if np.isfinite(value)]
        if len(finite) < 2:
            return 0.0
        return float(max(finite) - min(finite))


class GroupSeriesMoments:
    """Online across-trial moments of the per-race ``ADR_s(k)`` series.

    One Welford accumulator per race and step: trials stream through
    :meth:`update` one at a time, so the across-trial mean and standard
    deviation are available without retaining any per-trial series — the
    route to experiments with thousands of trials
    (``run_experiment(..., keep_trials=False)``).

    The single-pass mean/std agree with the batch ``np.mean``/``np.std``
    over the stacked series to floating-point reassociation error (Welford
    is the numerically stable formulation); the default ``keep_trials=True``
    path still computes the batch statistics, so golden-hash suites are
    unaffected.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean: Dict[Race, np.ndarray] = {}
        self._m2: Dict[Race, np.ndarray] = {}

    @property
    def num_trials(self) -> int:
        """Return how many trials have been folded in."""
        return self._count

    def update(self, group_rates: Dict[Race, np.ndarray]) -> None:
        """Fold one trial's per-race series into the running moments."""
        self._count += 1
        for race, series in group_rates.items():
            values = np.asarray(series, dtype=float)
            if race not in self._mean:
                self._mean[race] = np.zeros_like(values)
                self._m2[race] = np.zeros_like(values)
            delta = values - self._mean[race]
            self._mean[race] += delta / self._count
            self._m2[race] += delta * (values - self._mean[race])

    def mean_series(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the across-trial mean series."""
        if self._count == 0:
            raise ValueError("no trials have been accumulated")
        return {race: mean.copy() for race, mean in self._mean.items()}

    def std_series(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the across-trial (population) std series."""
        if self._count == 0:
            raise ValueError("no trials have been accumulated")
        return {
            race: np.sqrt(m2 / self._count) for race, m2 in self._m2.items()
        }


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate of several trials.

    Attributes
    ----------
    config:
        The configuration the trials were run with.
    trials:
        The individual trial results, in trial order.  Empty when the
        experiment ran with ``keep_trials=False``; the across-trial group
        statistics then come from ``group_moments``.
    group_moments:
        Online across-trial moments of the per-race series, accumulated as
        the trials completed (always populated by :func:`run_experiment`).
    """

    config: CaseStudyConfig
    trials: Tuple[TrialResult, ...]
    group_moments: GroupSeriesMoments | None = None

    @property
    def years(self) -> Tuple[int, ...]:
        """Return the calendar years of the simulation."""
        return self.config.years

    @property
    def history_mode(self) -> str:
        """Return the recording mode the trials ran with."""
        return self.config.history_mode

    def group_mean_series(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the across-trial mean of ``ADR_s(k)``.

        With retained trials this is the batch ``np.mean`` over the
        stacked per-trial series (bit-stable for the golden suites); a
        trial-free result answers from the online moments instead.
        """
        if not self.trials:
            return self._require_moments().mean_series()
        return {
            race: np.mean(
                [trial.group_default_rates[race] for trial in self.trials], axis=0
            )
            for race in Race
        }

    def group_std_series(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the across-trial standard deviation of ``ADR_s(k)``."""
        if not self.trials:
            return self._require_moments().std_series()
        return {
            race: np.std(
                [trial.group_default_rates[race] for trial in self.trials], axis=0
            )
            for race in Race
        }

    def _require_moments(self) -> GroupSeriesMoments:
        if self.group_moments is None or self.group_moments.num_trials == 0:
            raise ValueError(
                "this ExperimentResult retains neither per-trial series nor "
                "accumulated group moments"
            )
        return self.group_moments

    def stacked_user_series(self) -> np.ndarray:
        """Return all user-wise ADR series stacked as ``(trials * users, steps)``.

        This is the collection of ``5 x 1000`` curves shown in the paper's
        Figure 4.  Requires full-history trials; aggregate-mode runs raise
        :class:`~repro.core.history.FullHistoryRequiredError`.
        """
        return np.vstack(
            [trial.require_user_default_rates().T for trial in self.trials]
        )

    def stacked_user_races(self) -> np.ndarray:
        """Return the race label of every stacked user series."""
        return np.concatenate([trial.races for trial in self.trials])


def _trial_stem(trial_index: int) -> str:
    """Return the checkpoint-file stem of one trial."""
    return f"trial-{trial_index:04d}"


def trajectory_fingerprint_fields(config: CaseStudyConfig) -> Tuple[object, ...]:
    """Return the config fields that steer a trial's trajectory, in order.

    The single source of truth for "what defines the result": population
    shape and race mix, the calendar window, mortgage and model knobs, the
    master seed, and the recording mode.  Execution layout (pools,
    batching, kernel threads, worker caps, checkpoint plumbing) is
    deliberately excluded — every layout is bit-identical by construction —
    so both the per-trial checkpoint fingerprints and the campaign result
    cache (:mod:`repro.campaign.cache`) key on exactly these fields, and an
    entry written under one layout is valid under every other.

    The field order is frozen: reordering or renaming would silently
    invalidate every persisted trial result and campaign cache entry.
    """
    race_mix = tuple(
        sorted((race.name, float(share)) for race, share in config.race_mix.items())
    )
    return (
        config.history_mode,
        config.num_users,
        config.start_year,
        config.end_year,
        race_mix,
        config.income_multiple,
        config.annual_rate,
        config.living_cost,
        config.repayment_sensitivity,
        config.cutoff,
        config.warm_up_rounds,
        config.seed,
    )


def _trial_fingerprint(config: CaseStudyConfig, trial_index: int) -> str:
    """Fingerprint the parameters that define one trial's trajectory.

    The trial index joins :func:`trajectory_fingerprint_fields` so each
    trial's checkpoints are distinct.  The fields lost the retired refit
    knobs (``retrain_mode``, ``warm_start``) when the count-table fit
    became the loop's one refit, so a checkpoint directory written before
    then carries other fingerprints: its snapshots and results are refused
    as another configuration's, never served.
    """
    return config_fingerprint(
        "trial", trial_index, *trajectory_fingerprint_fields(config)
    )


def _plan(config: CaseStudyConfig, trials: int) -> ExecutionPlan:
    """Resolve ``config.execution`` for ``trials`` trials on this host.

    ``config.max_workers`` caps the trial pool and, under a ``batch``
    plan, the lockstep kernel's threads.
    """
    return plan_execution(
        config.execution,
        trials=trials,
        users=config.num_users,
        steps=config.num_steps,
        history_mode=config.history_mode,
        checkpoint_every=config.checkpoint_every,
        resume=config.resume,
        max_workers=config.max_workers,
    )


def run_trial(
    config: CaseStudyConfig,
    trial_index: int = 0,
    policy_factory: PolicyFactory | None = None,
    terms: MortgageTerms | None = None,
    income_table: IncomeTable | None = None,
) -> TrialResult:
    """Run one trial of the case study on the serial loop.

    Parameters
    ----------
    config:
        The case-study configuration.  Its ``execution`` does not change
        how one trial runs: every value runs it in process on the serial
        loop, which computes the same bits as the lockstep kernel at
        ``T = 1`` (``"pool"`` has nothing to pool over one trial).  With
        ``checkpoint_every > 0`` the trial's loop state is snapshotted
        crash-consistently into ``checkpoint_dir`` every that many steps;
        with ``resume`` the trial restores from its latest intact snapshot
        (fingerprint-checked against this configuration) and continues —
        bit-identically, because the random streams are stateless per
        ``(trial, shard, step)``.  The layout is excluded from the
        fingerprint, so a snapshot written by any layout resumes here.
    trial_index:
        Index of the trial; it seeds the trial's independent random stream.
    policy_factory:
        Builder of the AI system (defaults to the paper's retraining
        scorecard lender).
    terms:
        Mortgage terms override (defaults to the configuration's terms).
    income_table:
        Income-table override (defaults to the embedded synthetic table).
    """
    factory = policy_factory or default_policy_factory
    trial_seed = derive_seed(config.seed, "trial", trial_index)
    rng = np.random.default_rng(trial_seed)
    spec = PopulationSpec(size=config.num_users, race_mix=dict(config.race_mix))
    synthetic = generate_population(spec, rng)
    mortgage_terms = terms or MortgageTerms(
        income_multiple=config.income_multiple,
        annual_rate=config.annual_rate,
        living_cost=config.living_cost,
    )
    population = CreditPopulation(
        population=synthetic,
        income_table=income_table or default_income_table(),
        terms=mortgage_terms,
        repayment_model=GaussianRepaymentModel(sensitivity=config.repayment_sensitivity),
        start_year=config.start_year,
    )
    ai_system = factory(config, population)
    loop = ClosedLoop(
        ai_system=ai_system,
        population=population,
        loop_filter=DefaultRateFilter(num_users=config.num_users),
    )
    ckpt_dir = config.checkpoint_dir
    fingerprint = _trial_fingerprint(config, trial_index)
    checkpoint = (
        CheckpointSpec(
            directory=ckpt_dir,
            stem=_trial_stem(trial_index),
            every=config.checkpoint_every,
            fingerprint=fingerprint,
        )
        if ckpt_dir is not None and config.checkpoint_every > 0
        else None
    )
    history: SimulationHistory | AggregateHistory | None = None
    if config.resume:
        payload = load_latest_checkpoint(
            ckpt_dir, _trial_stem(trial_index), expected_fingerprint=fingerprint
        )
        if payload is not None:
            history = loop.restore_snapshot(payload)
    remaining = config.num_steps - (0 if history is None else history.num_steps)
    # The trial seed itself is the base of the shard streams (the
    # population generation above consumed an unrelated generator), the
    # same base the lockstep kernel derives every shard's stream from.  A
    # resumed trial passes rng=None instead: the loop then reuses the
    # restored base, replaying the uninterrupted schedule exactly.
    if remaining > 0:
        mode = config.history_mode
        history = loop.run(
            remaining,
            rng=None if history is not None else trial_seed,
            history=history,
            history_mode=mode,
            groups=population.groups if mode == "aggregate" else None,
            checkpoint=checkpoint,
        )
    return _trial_result_from_history(config, history, population)


def _trial_result_from_history(
    config: CaseStudyConfig,
    history: SimulationHistory | AggregateHistory,
    population: CreditPopulation,
) -> TrialResult:
    """Assemble a :class:`TrialResult` from a recorded trial history.

    Shared by the serial trial loop and the trial-batched engine, so both
    derive the group series through the identical calls.  A full history
    already holds ``ADR_i(k)``: the default-rate filter's observation,
    whose prior is 0, equals its ``running_default_rates()`` bit for bit.
    """
    if isinstance(history, AggregateHistory):
        user_rates = None
        group_rates = history.group_default_rate_series()
    else:
        user_rates = history.observation_series("user_default_rates")
        group_rates = group_average_series(user_rates, population.groups)
    return TrialResult(
        history=history,
        user_default_rates=user_rates,
        group_default_rates={race: group_rates[race] for race in Race},
        races=population.races,
        years=config.years,
    )


def _run_trial_task(
    payload: Tuple[
        CaseStudyConfig,
        int,
        PolicyFactory | None,
        MortgageTerms | None,
        IncomeTable | None,
    ]
) -> TrialResult:
    """Executor entry point: run one trial from a pickled argument tuple."""
    config, trial_index, policy_factory, terms, income_table = payload
    # Chaos-suite hook: lets a test deterministically kill/hang/fail this
    # trial's worker to exercise the supervised trial pool.
    _fire_fault("trial_worker", trial=trial_index)
    return run_trial(config, trial_index, policy_factory, terms, income_table)


def _trial_result_path(directory: str, trial_index: int) -> Path:
    """Return the completed-trial result file of one trial."""
    return Path(directory) / f"{_trial_stem(trial_index)}.result"


@dataclass(frozen=True)
class _SeriesOnlyTrial:
    """Group-series stub for persisted trials folded with ``keep_trials=False``.

    Resume only needs ``group_default_rates`` to fold a persisted trial
    into the experiment moments; materialising the full pickled
    :class:`TrialResult` — histories, per-user matrices — just to read one
    small dict and drop it would defeat the bounded-memory contract of
    ``keep_trials=False``.
    """

    group_default_rates: Dict[Race, np.ndarray]


def _write_trial_result(
    directory: str, trial_index: int, fingerprint: str, result: TrialResult
) -> None:
    """Persist a completed trial crash-consistently; drop its step snapshots.

    The result file is what experiment-level ``resume`` skips on: once it
    exists, the trial never reruns, so the intermediate step snapshots are
    dead weight and are pruned away.  A write that fails (a full disk) is
    reported with a :class:`RuntimeWarning` and leaves the snapshots in
    place, so the trial reruns — or resumes from its last snapshot — on
    the next resume.

    The group series travel beside the full result (which is pickled into
    an opaque ``result_bytes`` blob) so a ``keep_trials=False`` resume can
    fold the moments without reconstructing the trial's histories and
    per-user matrices.
    """
    path = _trial_result_path(directory, trial_index)
    payload = {
        "kind": "trial_result",
        "fingerprint": fingerprint,
        "group_rates": dict(result.group_default_rates),
        "result_bytes": pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
    }
    try:
        write_checkpoint(path, payload)
    except OSError as error:
        # The trial itself succeeded; losing its result file only costs a
        # rerun on resume, so keep the step snapshots and carry on.
        warnings.warn(
            f"could not persist trial {trial_index}'s result to {path} "
            f"({error}); the trial reruns on resume",
            RuntimeWarning,
            stacklevel=3,
        )
        return
    prune_checkpoints(directory, _trial_stem(trial_index), keep=0)


def _load_trial_result(
    directory: str, trial_index: int, fingerprint: str, need_full: bool = True
) -> TrialResult | _SeriesOnlyTrial | None:
    """Load a completed trial's persisted result, or ``None`` to rerun it.

    An unreadable/torn file degrades to a rerun with a warning (re-running
    is always safe); an intact file written by a *different* configuration
    raises — silently mixing two experiments' trials is the one outcome
    resume must never produce.

    With ``need_full=False`` (the ``keep_trials=False`` resume path) only
    the persisted group series are materialised, as a
    :class:`_SeriesOnlyTrial`; the pickled full result stays opaque bytes.
    """
    path = _trial_result_path(directory, trial_index)
    if not path.exists():
        return None
    try:
        payload = read_checkpoint(path)
    except CheckpointError as error:
        warnings.warn(
            f"re-running trial {trial_index}: its persisted result is "
            f"unreadable ({error})",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    if payload.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"persisted result {path.name} was written by a different "
            "configuration; point checkpoint_dir at a fresh directory, or "
            "rerun with the original configuration"
        )
    if not need_full:
        return _SeriesOnlyTrial(group_default_rates=payload["group_rates"])
    return pickle.loads(payload["result_bytes"])


class _OrderedTrialFolder:
    """Fold trial results into the moments in trial order, arrival-agnostic.

    The Welford accumulator is order-sensitive in floats, so results — which
    may arrive out of order from the supervised pool, or partially from disk
    on resume — are buffered just long enough to fold consecutively from
    trial 0.  With ``keep_trials=False`` each trial is dropped as soon as it
    folds, preserving the bounded-memory contract.
    """

    def __init__(self, moments: GroupSeriesMoments, keep_trials: bool) -> None:
        self._moments = moments
        self._keep = keep_trials
        self._buffer: Dict[int, TrialResult] = {}
        self._next = 0
        self.trials: List[TrialResult] = []

    def add(self, trial_index: int, trial: TrialResult) -> None:
        self._buffer[trial_index] = trial
        while self._next in self._buffer:
            folded = self._buffer.pop(self._next)
            self._moments.update(folded.group_default_rates)
            if self._keep:
                self.trials.append(folded)
            self._next += 1


def run_experiment(
    config: CaseStudyConfig,
    policy_factory: PolicyFactory | None = None,
    terms: MortgageTerms | None = None,
    income_table: IncomeTable | None = None,
    keep_trials: bool = True,
    supervisor: SupervisorPolicy | None = None,
) -> ExperimentResult:
    """Run all trials of the case study and return the aggregate result.

    Parameters
    ----------
    config:
        The case-study configuration.  Its ``execution`` is resolved by
        :func:`~repro.core.planner.plan_execution` from (``cpu_count``,
        trials, users, steps, history mode, checkpoint knobs), with
        ``max_workers`` as a cap.  ``"auto"`` pools several trials on
        several cores when the cap allows two workers; when it runs the
        trials in process without checkpointing (one trial on any host,
        several on one core or one worker) it picks the lockstep kernel.  Every plan is bit-identical to serial,
        so the plan can never change a result — only its wall clock; every
        plan requires 0/1 decisions and refuses a policy with others with
        the same error.  With ``checkpoint_dir`` set, each *completed* trial
        persists its result there under every plan; with checkpointing
        on, each running trial also snapshots its loop state every
        ``checkpoint_every`` steps; with ``resume`` the experiment skips
        trials whose results are already on disk and continues interrupted
        trials from their latest intact snapshot — all bit-identical to
        the uninterrupted experiment.  See :func:`run_trial`.
    policy_factory, terms, income_table:
        Per-trial inputs, as in :func:`run_trial`.  A non-picklable
        ``policy_factory`` (e.g. a lambda) runs the trials of a pooled
        plan on the serial loop.
    keep_trials:
        Retain the per-trial results on the returned
        :class:`ExperimentResult` (default).  ``False`` drops each trial
        after folding its group series into the online
        :class:`GroupSeriesMoments`, so experiments with very large trial
        counts keep ``O(steps * groups)`` memory; per-trial accessors
        (``trials``, ``stacked_user_series``) are then unavailable.
    supervisor:
        :class:`~repro.core.supervision.SupervisorPolicy` governing the
        trial pool: worker death, hangs (with ``supervisor.timeout``) and
        raises are detected, lost trials are re-run on a rebuilt pool with
        exponential backoff, and trials past the retry budget degrade to
        the bit-identical serial path with a :class:`RuntimeWarning`
        instead of crashing the experiment.
    """
    return _run_planned_experiment(
        config,
        _plan(config, trials=config.num_trials),
        policy_factory,
        terms,
        income_table,
        keep_trials,
        supervisor,
    )


def _run_planned_experiment(
    config: CaseStudyConfig,
    plan: ExecutionPlan,
    policy_factory: PolicyFactory | None = None,
    terms: MortgageTerms | None = None,
    income_table: IncomeTable | None = None,
    keep_trials: bool = True,
    supervisor: SupervisorPolicy | None = None,
) -> ExperimentResult:
    """Execute a resolved plan over every trial of ``config``.

    :func:`run_experiment` plans against this host's cores; a campaign job
    hands in the plan for its own share of them.  The plan is executed as
    given, never re-planned.  Every layout hands each trial to the same
    ``finish`` as soon as it completes (the trial pool too, while its other
    workers run), so with ``checkpoint_dir`` set each one's result is saved
    whichever layout computed it, and a parent killed mid-run keeps every
    trial finished before the kill.
    """
    moments = GroupSeriesMoments()
    folder = _OrderedTrialFolder(moments, keep_trials)
    ckpt_dir = config.checkpoint_dir

    def finish(trial_index: int, trial: TrialResult) -> None:
        if ckpt_dir is not None:
            _write_trial_result(
                ckpt_dir, trial_index, _trial_fingerprint(config, trial_index), trial
            )
        folder.add(trial_index, trial)

    if plan.layout == "batch":
        runner = BatchedTrialRunner(
            config,
            policy_factory or default_policy_factory,
            terms=terms,
            income_table=income_table,
            threads=plan.max_workers or 1,
        )
        for trial_index, (history, population) in enumerate(runner.run()):
            finish(
                trial_index, _trial_result_from_history(config, history, population)
            )
        return ExperimentResult(
            config=config, trials=tuple(folder.trials), group_moments=moments
        )
    pending: List[int] = []
    for trial_index in range(config.num_trials):
        loaded = None
        if config.resume:
            # keep_trials=False folds only the group series, so skip
            # materialising the persisted full result.
            loaded = _load_trial_result(
                ckpt_dir,
                trial_index,
                _trial_fingerprint(config, trial_index),
                need_full=keep_trials,
            )
        if loaded is not None:
            folder.add(trial_index, loaded)
        else:
            pending.append(trial_index)

    pooled = False
    if plan.layout == "pool":
        # A retry resumes from the failed attempt's last step snapshot.
        retry_config = (
            replace(config, resume=True) if config.checkpoint_every > 0 else config
        )
        # Each pooled trial is saved and folded as it arrives, while the
        # pool works on the rest.
        pooled = supervised_map(
            _run_trial_task,
            pending,
            lambda trial_index, failures: (
                retry_config if failures else config,
                trial_index,
                policy_factory,
                terms,
                income_table,
            ),
            lambda trial_index: run_trial(
                retry_config, trial_index, policy_factory, terms, income_table
            ),
            finish,
            workers=plan.max_workers,
            policy=supervisor,
            pool="parallel trial pool",
            label=lambda trial_index: f"trial {trial_index}",
        )
    if not pooled:
        for trial_index in pending:
            finish(
                trial_index,
                run_trial(config, trial_index, policy_factory, terms, income_table),
            )
    return ExperimentResult(
        config=config, trials=tuple(folder.trials), group_moments=moments
    )
