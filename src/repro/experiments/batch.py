"""Trial-batched execution: a whole experiment's trials in lockstep.

The paper's figures are Monte-Carlo sweeps — ``T`` seeded trials of the
same closed loop.  The serial runner executes them one
:meth:`~repro.core.loop.ClosedLoop.run` at a time, paying the fixed
per-step Python/numpy dispatch cost ``T`` times; on a single-CPU host the
process-pool alternative only adds IPC.  The
:class:`BatchedTrialRunner` here amortises that fixed cost across trials
instead of across processes: the ``T`` per-trial populations are stacked
into ``(trials, users)`` columns and every deterministic per-step phase —
the affordability update, the probit repayment probabilities, the
repayment comparisons, the :class:`~repro.core.filters.DefaultRateFilter`
integer counts, the running-statistics rows of the full history and the
streaming group aggregation — runs as single fused calls over the trial
axis.

Chunks and kernel threads
-------------------------

Along the user axis a step works in *chunks*: contiguous runs of whole
canonical shards (:class:`~repro.core.sharding.ShardPlan`), one per kernel
thread.  A chunk owns every ``(trial, shard, step)`` generator of its
shards, so it runs these phases without reading another chunk's users:

* the draws and the income mapping;
* affordability, the fused decision, the probit and the actions;
* the refit's key packing and a count table per trial, which the calling
  thread merges with :func:`~repro.scoring.suffstats.merge_tables` (exact
  integer addition);
* the filter update and the aggregator's elementwise state (through the
  ``map_users`` argument of their methods).

:meth:`BatchedTrialRunner.run` creates a ``ThreadPoolExecutor`` for the
chunks after the first, which the calling thread steps itself, and shuts
it down when the run ends.  numpy and scipy release the GIL in these
kernels, so the threads use separate cores.  With one thread the single
whole-population chunk runs inline, without a pool.  The thread count is
the ``max_workers`` of the ``batch`` plan
(:func:`~repro.core.planner.plan_execution`).  Each chunk writes only its
own columns of preallocated ``(trials, users)`` step buffers.

The calling thread keeps, over whole trial rows, every reduction whose
value depends on the order of its terms (the group folds of rates and
Cesàro averages, the rate and sum-of-squares totals) and the other
per-trial sums and folds, plus the refits, the generic per-trial
``decide``/``update`` path and full-history recording.  A chunk reduces
across users only into integer counts (count tables, the rate histogram),
which are exact under any split.  So neither the chunking nor the thread
count changes any bit of any trial.

Bit-identity contract
---------------------

Every batched trial row is **bit-identical** to its serial
:func:`~repro.experiments.runner.run_trial` twin.  That holds because
nothing about the random schedule or the per-trial arithmetic changes:

* trial ``t`` draws from exactly the serial streams — population
  generation from ``default_rng(derive_seed(seed, "trial", t))``, and each
  step from the canonical per-shard generators
  :func:`~repro.utils.rng.shard_step_generator`.  The engine draws each
  ``(trial, shard, step)`` generator's whole consumption in two calls:
  ``random(2 * shard_size)`` for the bracket and in-bracket uniforms, then
  ``random(shard_size)`` for the repayment uniforms.  numpy generators
  buffer nothing between ``random`` calls, so the blocks equal the serial
  path's separate draws double for double (pinned by the income-sampler
  regression tests and the batch-equivalence suite);
* the fused phases are elementwise, so evaluating them on a stacked
  ``(trials, users)`` block — or on any chunk of its columns — produces
  the identical bits row by row; every per-trial reduction (portfolio
  sums, approval means, group folds) runs over a contiguous trial row —
  the same reduction the serial engine runs over its own arrays;
* the phases that are genuinely per-trial stay per-trial: each trial's AI
  system ``decide``/``update`` (scorecard scoring, the yearly refit — T
  tiny independent IRLS fits per step under
  ``retrain_mode="compressed"``) is invoked exactly as the serial loop
  invokes it, on views of the stacked state.

The engine therefore works with any ``policy_factory`` producing the
credit loop's 0/1 decisions — only the population/filter/recording
machinery is batched, and those are the closed-loop components
:func:`~repro.experiments.runner.run_trial` itself constructs.  (A policy
returning non-binary decisions is rejected loudly: the serial filter
truncates such values to integers before counting offers, a corner whose
implicit semantics the batched counts do not reproduce.  Such a policy
runs with ``execution="serial"``; ``"auto"`` picks this engine whenever it
runs trials in process without checkpointing.)

Trade-off vs. the other execution modes: trial batching wins on few cores
and many trials (it removes per-trial dispatch without spawning
processes), and at ``T = 1`` it is still the fastest way to run one trial
in process (fused draws and decisions, no per-step dict and copy
ceremony, the per-user phases spread over the host's cores).  It is the
only layout that spreads one trial's users over cores: it replaced the
process shard pool, which it beat at every size measured on a 2-CPU host
with identical results (1M users x 20 steps: 3.20 s vs 5.05 s; 100k
users: 0.63 s vs 0.92 s; 20k users: 0.14 s vs 0.57 s).  The trial pool
(``execution="pool"``) wins when real cores exist and trials are few and
heavy.  ``BENCH_core.json`` (entry ``trial-batched-engine``) records
the measured crossover.  The rule is code: ``execution="auto"``
(:func:`repro.core.planner.plan_execution`) selects this engine for
several trials on a single core and for a single trial on any host,
unless checkpointing (the lockstep walk has no per-trial boundary to
snapshot, which is why ``execution="batch"`` with checkpoint knobs is
rejected at config time).
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.ai_system import AISystem, CreditScoringSystem
from repro.core.filters import BatchedDefaultRateFilter
from repro.core.history import SimulationHistory
from repro.core.population import CreditPopulation
from repro.core.streaming import AggregateHistory, BatchedStreamingAggregator
from repro.credit.borrower import affordability_state
from repro.credit.lender import Lender
from repro.credit.mortgage import MortgageTerms
from repro.credit.repayment import GaussianRepaymentModel
from repro.data.census import IncomeTable, Race, default_income_table
from repro.data.synthetic import PopulationSpec, generate_population
from repro.experiments.config import CaseStudyConfig
from repro.scoring.cutoff import CutoffPolicy
from repro.scoring.features import FeatureBuilder, clipped_default_rates
from repro.scoring.suffstats import CompressedDesign, merge_tables, pack_rows
from repro.utils.rng import derive_seed, shard_seed, step_generator

__all__ = ["BatchedTrialRunner"]

#: One trial's outcome: the recorded history plus the trial's population
#: (the runner assembles :class:`~repro.experiments.runner.TrialResult`
#: from these, mirroring ``run_trial``'s tail).
TrialOutcome = Tuple[SimulationHistory | AggregateHistory, CreditPopulation]

#: Name prefix of the kernel's worker threads.
KERNEL_THREAD_PREFIX = "repro-kernel"

_Result = TypeVar("_Result")

#: Per-trial ``(T, 1)`` columns of the fused decision: base score, income
#: code points, rate points and cut-off.
_Scorecards = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class _Chunk:
    """A run of whole canonical shards: the unit of per-user step work.

    ``races`` lists, per race present, where the race's bracket and
    in-bracket uniforms lie in the flat draw buffer and which flat income
    slots they fill, over every trial of the chunk's shards.
    """

    users: slice
    shards: Tuple[int, ...]
    races: Tuple[Tuple[Race, np.ndarray, np.ndarray, np.ndarray], ...]


class _KernelThreads:
    """Runs per-chunk work on kernel threads, or inline for one chunk.

    The calling thread is one of the kernel threads: it runs the first
    chunk itself while a pool of ``len(chunks) - 1`` workers runs the rest.
    """

    def __init__(self, chunks: Sequence[_Chunk]) -> None:
        self.chunks = tuple(chunks)
        self._executor = (
            ThreadPoolExecutor(
                max_workers=len(self.chunks) - 1,
                thread_name_prefix=KERNEL_THREAD_PREFIX,
            )
            if len(self.chunks) > 1
            else None
        )

    def map(self, work: Callable[[_Chunk], _Result]) -> List[_Result]:
        """Run ``work`` on every chunk; return the results in chunk order.

        Each worker runs its chunk in a copy of the caller's context, so
        the caller's numpy error state (``np.errstate``) governs every
        chunk.  A failure re-raises the first failing chunk's exception, as
        one thread stepping the chunks in order would; errors of later
        chunks go unreported, and chunks still running finish when
        :meth:`shutdown` joins their threads.
        """
        first, *rest = self.chunks  # no rest, and no pool, for one chunk
        futures = [
            self._executor.submit(contextvars.copy_context().run, work, chunk)
            for chunk in rest
        ]
        results = [work(first)]
        return results + [future.result() for future in futures]

    def map_users(self, work: Callable[[slice], _Result]) -> List[_Result]:
        """The :data:`~repro.core.sharding.UserChunkMap` over the chunks."""
        return self.map(lambda chunk: work(chunk.users))

    def shutdown(self) -> None:
        """Join the kernel threads."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)


class _StepBuffers:
    """The ``(trials, users)`` arrays one step's phases write in place.

    Several are reused within a step: the affordability states become the
    repayment probabilities and then the clipped rates; the repayment
    uniforms land in ``actions``, which the step's actions overwrite once
    they are compared; ``decisions`` holds the rate term of the scores
    until the cut-off writes the decisions over it.
    """

    def __init__(self, trials: int, users: int, full_mode: bool) -> None:
        shape = (trials, users)
        self.draws = np.empty((trials, 2 * users), dtype=float)
        self.incomes = np.empty(shape, dtype=float)
        self.probabilities = np.empty(shape, dtype=float)
        self.decisions = np.empty(shape, dtype=float)
        self.actions = np.empty(shape, dtype=float)
        self.scores = np.empty(shape, dtype=float)
        self.codes = np.empty(shape, dtype=bool)
        self.offered = np.empty(shape, dtype=bool)
        self.repaid = np.empty(shape, dtype=bool)
        # The observation entering a step is the filter state left by the
        # previous step; the two rate buffers swap roles every step.
        self.rates_before = np.empty(shape, dtype=float)
        self.rates_after = np.empty(shape, dtype=float)
        self.actions_cum = np.zeros(shape, dtype=float) if full_mode else None
        self.running_actions = np.empty(shape, dtype=float) if full_mode else None


class BatchedTrialRunner:
    """Run all trials of a case study in lockstep through stacked tensors.

    Parameters
    ----------
    config:
        The run's configuration; the policy factory reads its
        ``retrain_mode``/``warm_start``, and its ``history_mode`` picks
        the recording: ``"full"`` records per-trial
        :class:`~repro.core.history.SimulationHistory` objects through the
        precomputed-statistics fast ingest, ``"aggregate"`` streams all
        trials through one
        :class:`~repro.core.streaming.BatchedStreamingAggregator`.
    policy_factory:
        Builder of each trial's AI system, called exactly as
        :func:`~repro.experiments.runner.run_trial` calls it.
    terms, income_table:
        Optional overrides, as in ``run_trial``.  Shared across trials —
        the serial path rebuilds identical immutable objects per trial.
    threads:
        Kernel threads, one user chunk each (capped by the canonical shard
        count).  Any count gives bit-identical trials.
    """

    def __init__(
        self,
        config: CaseStudyConfig,
        policy_factory,
        terms: MortgageTerms | None = None,
        income_table: IncomeTable | None = None,
        threads: int = 1,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be positive")
        self._config = config
        self._terms = terms or MortgageTerms(
            income_multiple=config.income_multiple,
            annual_rate=config.annual_rate,
            living_cost=config.living_cost,
        )
        self._table = income_table or default_income_table()
        self._model = GaussianRepaymentModel(
            sensitivity=config.repayment_sensitivity
        )
        spec = PopulationSpec(
            size=config.num_users, race_mix=dict(config.race_mix)
        )
        self._trial_seeds: List[int] = []
        self._populations: List[CreditPopulation] = []
        self._ai_systems: List[AISystem] = []
        for trial_index in range(config.num_trials):
            trial_seed = derive_seed(config.seed, "trial", trial_index)
            rng = np.random.default_rng(trial_seed)
            synthetic = generate_population(spec, rng)
            population = CreditPopulation(
                population=synthetic,
                income_table=self._table,
                terms=self._terms,
                repayment_model=self._model,
                start_year=config.start_year,
            )
            self._trial_seeds.append(trial_seed)
            self._populations.append(population)
            self._ai_systems.append(policy_factory(config, population))
        self._plan = self._populations[0].shard_plan
        # All populations share the income table, so trial 0's sampler
        # (and its per-(year, race) bracket-CDF cache) serves every draw.
        self._sampler = self._populations[0].sampler
        # The shard half of the stream derivation is step-independent;
        # derive each (trial, shard) seed once.
        self._shard_seeds: List[List[int]] = [
            [shard_seed(base, shard) for shard in range(self._plan.num_shards)]
            for base in self._trial_seeds
        ]
        self._chunks = self._build_chunks(threads)
        self._fast_stack = self._resolve_fast_stack()

    def _build_chunks(self, threads: int) -> List[_Chunk]:
        """Split the shards into one chunk per thread, with its draw layout.

        Each ``(trial, shard, step)`` generator's income uniforms form one
        ``random(2 * shard_size)`` block at offset ``2 * lo`` of the trial's
        row in a ``(trials, 2 * users)`` buffer.  Within a block the serial
        draw order is, per race segment (table order, skipping empty ones),
        the bracket uniforms then the in-bracket uniforms.  Per chunk and
        race, flat index arrays record where those uniforms lie and which
        flat income slots they fill, so a chunk maps all its trials' and
        shards' draws with one bracket search and one scatter per race.
        """
        num_users = self._config.num_users
        races = self._table.races
        partitions = [
            population.shard_race_partition() for population in self._populations
        ]
        chunks: List[_Chunk] = []
        for first, stop in self._plan.worker_ranges(threads):
            shards = tuple(range(first, stop))
            brackets: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
            widths: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
            targets: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
            for trial, partition in enumerate(partitions):
                for shard in shards:
                    lo, _ = self._plan.bounds[shard]
                    block = trial * 2 * num_users + 2 * lo
                    offset = 0
                    for race in races:
                        local = partition[shard].get(race)
                        if local is None or not local.size:
                            continue
                        count = local.size
                        positions = np.arange(block + offset, block + offset + count)
                        brackets[race].append(positions)
                        widths[race].append(positions + count)
                        targets[race].append(trial * num_users + lo + local)
                        offset += 2 * count
            lo, hi = self._plan.user_range(first, stop)
            chunks.append(
                _Chunk(
                    users=slice(lo, hi),
                    shards=shards,
                    races=tuple(
                        (
                            race,
                            np.concatenate(brackets[race]),
                            np.concatenate(widths[race]),
                            np.concatenate(targets[race]),
                        )
                        for race in races
                        if brackets[race]
                    ),
                )
            )
        return chunks

    def _resolve_fast_stack(self) -> Dict[str, object] | None:
        """Detect the default decision stack, or ``None`` for the generic path.

        The fused decide/retrain fast path replicates, bit for bit, what
        :class:`~repro.core.ai_system.CreditScoringSystem` wrapping a plain
        :class:`~repro.credit.lender.Lender` does with the default feature
        builder and cut-off policy.  Exact types only — a subclass
        overriding any piece sends the whole run down the generic per-trial
        ``decide``/``update`` calls, which are always correct.
        """
        cutoffs = []
        for system in self._ai_systems:
            if type(system) is not CreditScoringSystem:
                return None
            lender = system.lender
            if type(lender) is not Lender:
                return None
            if type(lender.feature_builder) is not FeatureBuilder:
                return None
            policy = lender._cutoff_policy
            if type(policy) is not CutoffPolicy or policy.approve_on_tie:
                return None
            cutoffs.append(policy.cutoff)
        thresholds = {
            system.lender.feature_builder.income_threshold
            for system in self._ai_systems
        }
        if len(thresholds) != 1:
            return None
        return {
            "lenders": [system.lender for system in self._ai_systems],
            "income_threshold": thresholds.pop(),
            "cutoff_column": np.asarray(cutoffs, dtype=float)[:, None],
            # With every lender in compressed mode each chunk packs its
            # training rows into suffstats keys in one fused pass over its
            # (trials, users) columns and counts them per trial; each trial
            # then refits from its merged count table through the
            # lender's retrain_from_suffstats.
            "compressed_retrain": all(
                system.lender.retrain_mode == "compressed"
                for system in self._ai_systems
            ),
        }

    @property
    def populations(self) -> Sequence[CreditPopulation]:
        """Return the per-trial populations, in trial order."""
        return tuple(self._populations)

    @property
    def ai_systems(self) -> Sequence[AISystem]:
        """Return the per-trial AI systems, in trial order."""
        return tuple(self._ai_systems)

    def _respond(
        self, chunk: _Chunk, k: int, year: int, buffers: _StepBuffers
    ) -> None:
        """Draw one chunk's step and compare its repayment uniforms.

        Two ``random`` calls per ``(trial, shard)`` cover the serial path's
        entire generator consumption for the step — bracket and in-bracket
        uniforms per race segment (``begin_step``), then the repayment
        uniforms (``respond``) — in the identical stream order.  The chunk
        then maps its incomes, computes affordability and the probit, and
        records which users would repay if offered (``u < P(repay)``).
        """
        bounds = self._plan.bounds
        for trial, seeds in enumerate(self._shard_seeds):
            draws = buffers.draws[trial]
            uniforms = buffers.actions[trial]
            for shard in chunk.shards:
                lo, hi = bounds[shard]
                generator = step_generator(seeds[shard], k)
                generator.random(out=draws[2 * lo : 2 * hi])
                generator.random(out=uniforms[lo:hi])
        flat_draws = buffers.draws.reshape(-1)
        flat_incomes = buffers.incomes.reshape(-1)
        for race, bracket_idx, width_idx, target_idx in chunk.races:
            flat_incomes[target_idx] = self._sampler.incomes_from_uniforms(
                year, race, flat_draws[bracket_idx], flat_draws[width_idx]
            )
        users = chunk.users
        states = affordability_state(
            buffers.incomes[:, users],
            self._terms,
            out=buffers.probabilities[:, users],
        )
        probabilities = self._model.repayment_probability(states, out=states)
        np.less(buffers.actions[:, users], probabilities, out=buffers.repaid[:, users])

    def _act(self, chunk: _Chunk, k: int, buffers: _StepBuffers) -> np.ndarray:
        """Write one chunk's actions; return its offered mask.

        A user acts (repays) when offered and ``u < P(repay)``; the full
        history's Cesàro row follows from the running action sums.
        """
        users = chunk.users
        offered = np.not_equal(
            buffers.decisions[:, users], 0.0, out=buffers.offered[:, users]
        )
        repaid = np.logical_and(
            buffers.repaid[:, users], offered, out=buffers.repaid[:, users]
        )
        buffers.actions[:, users] = repaid
        if buffers.actions_cum is not None:
            actions_cum = buffers.actions_cum[:, users]
            actions_cum += buffers.actions[:, users]
            np.divide(
                actions_cum, float(k + 1), out=buffers.running_actions[:, users]
            )
        return offered

    def _fused_round(self) -> Tuple[bool, _Scorecards | None]:
        """Return ``(fused, scorecards)`` for this step's decision round.

        ``fused`` is ``False`` when the step must take the generic
        per-trial path (the lenders' rounds diverged, or a card lacks the
        two plain factors the fused decide evaluates).  ``scorecards`` is
        ``None`` during warm-up, when everyone is approved.
        """
        lenders: List[Lender] = self._fast_stack["lenders"]
        warm_flags = {lender.in_warm_up for lender in lenders}
        if len(warm_flags) != 1:
            return False, None  # rounds diverged (custom factory): generic path
        if warm_flags.pop():
            return True, None
        num_trials = len(lenders)
        bases = np.empty(num_trials)
        income_points = np.empty(num_trials)
        rate_points = np.empty(num_trials)
        for trial, lender in enumerate(lenders):
            card = lender.scorecard
            if card is None:
                return False, None  # serial decide raises; let it
            factors = card.factors
            if (
                len(factors) != 2
                or factors[0].name != "income_code"
                or factors[1].name != "average_default_rate"
                or factors[0].transform is not None
                or factors[1].transform is not None
            ):
                return False, None
            bases[trial] = card.base_score
            income_points[trial] = factors[0].points
            rate_points[trial] = factors[1].points
        return True, (
            bases[:, None],
            income_points[:, None],
            rate_points[:, None],
            self._fast_stack["cutoff_column"],
        )

    def _fused_step(
        self,
        chunk: _Chunk,
        k: int,
        year: int,
        scorecards: _Scorecards | None,
        buffers: _StepBuffers,
    ) -> List[CompressedDesign]:
        """Run one chunk's whole step on the default decision stack.

        The decision replicates ``T`` :meth:`~repro.credit.lender.Lender.decide`
        calls: during warm-up everyone is approved and scores are ``nan``;
        afterwards each trial's two-factor scorecard is an affine map of
        the (income code, clipped previous rate) columns, evaluated with
        per-trial coefficients broadcast down the trial axis — the
        identical ``base + points * code``, then ``+= points * rate``
        operation order of
        :meth:`~repro.scoring.scorecard.Scorecard.score_matrix`.  Under
        ``retrain_mode="compressed"`` the chunk also packs every trial's
        ``(code, rate, label)`` rows — the key layout the per-trial
        ``Lender._retrain_compressed`` builds — and returns one count table
        per trial of its offered rows.
        """
        self._respond(chunk, k, year, buffers)
        stack = self._fast_stack
        compressed = stack["compressed_retrain"]
        users = chunk.users
        decisions = buffers.decisions[:, users]
        scores = buffers.scores[:, users]
        if scorecards is not None or compressed:
            codes = np.greater_equal(
                buffers.incomes[:, users],
                stack["income_threshold"],
                out=buffers.codes[:, users],
            )
            # The probabilities are compared already; their columns now
            # hold the clipped rates.
            clipped_rates = clipped_default_rates(
                buffers.rates_before[:, users], out=buffers.probabilities[:, users]
            )
        if scorecards is None:
            decisions.fill(1.0)
            scores.fill(np.nan)
        else:
            bases, income_points, rate_points, cutoffs = scorecards
            np.multiply(rate_points, clipped_rates, out=decisions)
            np.multiply(income_points, codes, out=scores)
            np.add(bases, scores, out=scores)
            scores += decisions
            np.greater(scores, cutoffs, out=decisions)
        offered = self._act(chunk, k, buffers)
        if not compressed:
            return []
        keys = pack_rows(codes, clipped_rates, buffers.repaid[:, users])
        return [
            CompressedDesign.from_key_array(trial_keys[trial_offered])
            for trial_keys, trial_offered in zip(keys, offered)
        ]

    def _generic_decisions(
        self, k: int, buffers: _StepBuffers, portfolio: np.ndarray
    ) -> Tuple[List[Dict[str, np.ndarray]], List[Dict[str, np.ndarray | float]]]:
        """Call every trial's AI system ``decide``; return its inputs."""
        num_users = self._config.num_users
        step_features: List[Dict[str, np.ndarray]] = []
        step_observations: List[Dict[str, np.ndarray | float]] = []
        for trial, system in enumerate(self._ai_systems):
            # Fresh per-trial dicts with private copies, exactly the
            # objects the serial loop hands its AI system (begin_step
            # copies the incomes; the filter copies its rates).
            features = {"income": buffers.incomes[trial].copy()}
            observation: Dict[str, np.ndarray | float] = {
                "user_default_rates": buffers.rates_before[trial].copy(),
                "portfolio_rate": float(portfolio[trial]),
            }
            decisions_row = np.asarray(
                system.decide(features, observation, k), dtype=float
            ).ravel()
            if decisions_row.shape[0] != num_users:
                raise ValueError(
                    "the AI system must return one decision per user "
                    f"({decisions_row.shape[0]} != {num_users})"
                )
            if np.any((decisions_row != 0.0) & (decisions_row != 1.0)):
                # The serial filter truncates fractional decisions to
                # integers before counting offers, giving them quirky
                # implicit semantics; rather than silently diverging from
                # that corner, the batched engine insists on the credit
                # loop's 0/1 contract.
                raise ValueError(
                    "the lockstep kernel (execution='batch', which "
                    "'auto' plans for in-process runs) requires 0/1 "
                    "decisions, but the AI system returned other "
                    "values; run with execution='serial', whose "
                    "filter truncates decisions to integers before "
                    "counting offers"
                )
            buffers.decisions[trial] = decisions_row
            step_features.append(features)
            step_observations.append(observation)
        return step_features, step_observations

    def run(self) -> List[TrialOutcome]:
        """Execute every trial in lockstep and return the per-trial outcomes."""
        threads = _KernelThreads(self._chunks)
        try:
            return self._run(threads)
        finally:
            threads.shutdown()

    def _run(self, threads: _KernelThreads) -> List[TrialOutcome]:
        config = self._config
        num_trials = config.num_trials
        num_steps = config.num_steps
        full_mode = config.history_mode == "full"
        histories: List[SimulationHistory] = []
        aggregate: BatchedStreamingAggregator | None = None
        if full_mode:
            histories = [SimulationHistory() for _ in range(num_trials)]
        else:
            aggregate = BatchedStreamingAggregator(
                num_trials,
                config.num_users,
                [population.groups for population in self._populations],
            )
        batched_filter = BatchedDefaultRateFilter(num_trials, config.num_users)
        buffers = _StepBuffers(num_trials, config.num_users, full_mode)
        batched_filter.user_rates(out=buffers.rates_before)
        portfolio_before = batched_filter.portfolio_rates()
        for k in range(num_steps):
            year = config.start_year + k
            fused, scorecards = (
                self._fused_round() if self._fast_stack is not None else (False, None)
            )
            step_features: List[Dict[str, np.ndarray]] = []
            if fused:
                tables = threads.map(
                    lambda chunk: self._fused_step(chunk, k, year, scorecards, buffers)
                )
                self._fused_update(tables, buffers)
            else:
                threads.map(lambda chunk: self._respond(chunk, k, year, buffers))
                step_features, step_observations = self._generic_decisions(
                    k, buffers, portfolio_before
                )
                threads.map(lambda chunk: self._act(chunk, k, buffers))
                for trial, system in enumerate(self._ai_systems):
                    # The delayed-feedback retrain, exactly the serial call;
                    # the decision and action rows are views of step
                    # buffers that the next step rewrites.
                    system.update(
                        step_features[trial],
                        buffers.decisions[trial],
                        buffers.actions[trial],
                        step_observations[trial],
                        k,
                    )
            batched_filter.update(buffers.decisions, buffers.actions, threads.map_users)
            rates_after = batched_filter.user_rates(
                out=buffers.rates_after, map_users=threads.map_users
            )
            portfolio_after = batched_filter.portfolio_rates()
            if full_mode:
                for trial in range(num_trials):
                    histories[trial].record_step_precomputed(
                        k,
                        # The history copies rows into its columns, so the
                        # fast path hands it bare views; the generic path
                        # reuses the dicts the AI systems saw (as the
                        # serial loop does).
                        step_features[trial]
                        if step_features
                        else {"income": buffers.incomes[trial]},
                        buffers.decisions[trial],
                        buffers.actions[trial],
                        {
                            "user_default_rates": rates_after[trial],
                            "portfolio_rate": float(portfolio_after[trial]),
                        },
                        running_rates=rates_after[trial],
                        running_actions=buffers.running_actions[trial],
                        approval=float(np.mean(buffers.decisions[trial])),
                    )
            else:
                assert aggregate is not None
                aggregate.update(buffers.decisions, buffers.actions, threads.map_users)
            buffers.rates_before, buffers.rates_after = (
                rates_after,
                buffers.rates_before,
            )
            portfolio_before = portfolio_after
        outcomes: List[TrialOutcome] = []
        for trial in range(num_trials):
            population = self._populations[trial]
            if num_steps > 0:
                # Leave the population holding its final step state, as a
                # serial trial would.
                incomes = buffers.incomes[trial]
                population.import_shard_state(
                    0,
                    {
                        "incomes": incomes,
                        "affordability": affordability_state(incomes, self._terms),
                    },
                )
            if full_mode:
                history: SimulationHistory | AggregateHistory = histories[trial]
            else:
                assert aggregate is not None
                history = AggregateHistory.from_aggregator(
                    aggregate.aggregator(trial)
                )
            outcomes.append((history, population))
        return outcomes

    def _fused_update(
        self, tables: List[List[CompressedDesign]], buffers: _StepBuffers
    ) -> None:
        """Finish a fused round: lender bookkeeping and the refits.

        Every lender's round counter and last-scores cache advance exactly
        as in the serial ``decide``.  The delayed-feedback retrain is what
        ``CreditScoringSystem.update`` does, minus the dict and copy
        ceremony (the lender never mutates its inputs): under
        ``retrain_mode="compressed"`` each trial merges its chunks' count
        tables and refits through ``retrain_from_suffstats`` (identical
        degenerate-mask handling included) — T tiny independent
        O(unique rows) refits per step.
        """
        lenders: List[Lender] = self._fast_stack["lenders"]
        for trial, lender in enumerate(lenders):
            lender._rounds_seen += 1
            self._ai_systems[trial]._last_scores = buffers.scores[trial]
        if self._fast_stack["compressed_retrain"]:
            for trial, lender in enumerate(lenders):
                lender.retrain_from_suffstats(
                    merge_tables(chunk_tables[trial] for chunk_tables in tables)
                )
        else:
            for trial, lender in enumerate(lenders):
                lender.retrain(
                    buffers.incomes[trial],
                    buffers.rates_before[trial],
                    buffers.actions[trial],
                    offered=buffers.decisions[trial],
                )
