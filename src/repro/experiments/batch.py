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

Lanes and blocks
----------------

Along the user axis each kernel thread steps a *lane*: a contiguous run of
whole canonical shards (:meth:`~repro.core.sharding.ShardPlan.worker_ranges`).
A lane steps its shards as a sequence of *blocks*, each the longest run of
its consecutive shards whose user-trials (trials times users) stay within
:data:`KERNEL_BLOCK_USER_TRIALS`, widened shard by shard to at least
:data:`KERNEL_BLOCK_MIN_USERS` users where the lane allows, so every
per-user temporary of a step is the size of a block, not of a lane.  A
block owns every ``(trial, shard, step)`` generator of its shards, so a
step is one pass over the lanes, each block running, without reading
another block's users:

* the draws, into its lane's draw scratch, and the income mapping;
* affordability, the fused decision, the probit and the actions;
* a refit count table per trial, which the calling thread merges with
  :func:`~repro.scoring.suffstats.merge_tables` (exact integer addition);
* the filter fold (:meth:`~repro.core.filters.BatchedDefaultRateFilter.fold`):
  the block's cells, its ``ADR_i(k)`` columns and its per-trial offer and
  repayment counts;
* the recorder's share: in aggregate mode
  :meth:`~repro.core.streaming.BatchedStreamingAggregator.fold` (the
  Cesàro columns, ``ADR_i`` min and max, the rate histogram and low-rate
  count, per-group decision counts), in full mode the Cesàro columns.

Every reduction a block makes is exact under any split (integer counts,
min and max), so the calling thread merges the blocks' results by integer
addition and min/max.  The per-trial offer and repayment counts give the
approvals, the decision sums, the running offer/repayment totals and the
portfolio rates, so no count row is ever summed again.

:meth:`BatchedTrialRunner.run` creates a ``ThreadPoolExecutor`` for the
lanes after the first, which the calling thread steps itself, and shuts
it down when the steps end.  numpy and scipy release the GIL in these
kernels, so the threads use separate cores.  With one thread the single
lane runs inline, without a pool.  The thread count is the
``max_workers`` of the ``batch`` plan
(:func:`~repro.core.planner.plan_execution`).  Each block writes only its
own columns of preallocated ``(trials, users)`` step buffers, and draws
its income uniforms into the first ``trials * 2 * users`` doubles of its
lane's scratch, which is sized for the lane's widest block.  Its maps
from those draws to the income slots hold block-local positions.

Four reductions have bits that depend on the order of their terms: the
``ADR_i`` and Cesàro group folds, and the ``ADR_i`` sum and sum of
squares.  In aggregate mode the calling thread runs them once the pass
over the lanes is done, one after another over whole trial rows and
unchanged
(:meth:`~repro.core.streaming.BatchedStreamingAggregator.finish_step`).
They are the only per-user work outside that pass.  The calling thread
also keeps the refits, the generic per-trial ``decide``/``update`` path
and full-history recording.  So neither the lanes, the blocks nor the
thread count change any bit of any trial.

Cells and tables
----------------

A user's filter state is its offer and repayment counts ``o`` and ``r``,
which the stacked filter keeps as one unsigned integer cell
``o * (S + 1) + r`` (``uint16`` up to 255 steps, ``uint32`` beyond).
Every per-user map of that state is a function of the cell, so the run
builds each once, as a table over the ``(S + 1) ** 2`` cells, with the
same functions the serial engine applies per user; a step then reads it at
each user's cell (``np.take``) and computes no per-user ``ADR_i``,
clipping, key packing or histogram bin:

* the decision reads the clipped previous ``ADR_i``
  (:func:`~repro.scoring.features.clipped_default_rates` of the filter's
  ``ADR_i`` table) into its score arithmetic, before the block's fold;
* the refit counts each trial's offered rows from the cells' ranked key
  bits plus the code and label bits, with one ``bincount`` (``np.unique``
  when the key indices outnumber the users)
  (:class:`~repro.scoring.suffstats.CellKeys`);
* the fold adds ``offered * (S + 1) + repaid`` to the cells and writes
  ``ADR_i`` from the filter's table;
* the Cesàro row is ``r / (k + 1)``, ``r`` read from the repayment table;
* the rate histogram and the low-rate count come from one ``bincount`` of
  each cell's bin code (:func:`~repro.core.streaming.rate_bin_codes`).

The tables cost each run O(S ** 2), whatever its population: about 48
bytes a cell kept and 85 while they are built, and 0.12-0.18 us a cell
to build on a 2-CPU host; so 36 KB at 20 steps (441 cells), 4 MiB and 11
ms at 300 steps (90,601 cells).  The planner bounds the kernel at
:data:`~repro.core.planner.KERNEL_MAX_STEPS` steps (48 MiB kept, 84 MiB
at the peak): ``"auto"`` runs a longer horizon on the serial loop and
``"batch"`` rejects it at configuration time.  A step's work is in
proportion to its users, not to the grid: each table read is a gather,
and the refit counts with a ``bincount`` only while its bins (four per
distinct rate) do not outnumber a row's users.  Every table entry is the
serial engine's function of the same integers, so each trial keeps its
bits.  After the last step the runner drops its lanes (their block maps
and draw scratch) and every step row but the three the lenders and
populations copy, then builds each trial's standalone rows once, straight
from the cells.  A runner therefore runs once.

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
  ``(trials, users)`` matrix — or on any block of its columns — produces
  the identical bits row by row; the reductions of 0/1 values (offer and
  repayment totals, approvals, group decision counts) are integer counts,
  equal under any split to the serial engine's sums; every other
  order-dependent reduction (rate sums, group folds) runs over a
  contiguous trial row — the same reduction the serial engine runs over
  its own arrays;
* the phases that are genuinely per-trial stay per-trial: each trial's AI
  system ``decide``/``update`` (scorecard scoring, the yearly refit — T
  tiny independent count-table fits per step) is invoked exactly as the
  serial loop invokes it, on views of the stacked state.

The engine therefore works with any ``policy_factory`` producing the
credit loop's 0/1 decisions — only the population/filter/recording
machinery is batched, and those are the closed-loop components
:func:`~repro.experiments.runner.run_trial` itself constructs.  A policy
returning other decisions than 0 and 1 is rejected, by the same check and
with the same message as the serial filter's
(:func:`~repro.core.filters.require_binary_decisions`), so every layout
takes the same policies.

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
from repro.core.filters import BatchedDefaultRateFilter, require_binary_decisions
from repro.core.history import SimulationHistory
from repro.core.planner import validate_execution_settings
from repro.core.population import CreditPopulation
from repro.core.sharding import ShardPlan
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
from repro.scoring.suffstats import CellKeys, CompressedDesign, merge_tables
from repro.utils.rng import derive_seed, shard_seed, step_generator

__all__ = ["BatchedTrialRunner"]

#: One trial's outcome: the recorded history plus the trial's population
#: (the runner assembles :class:`~repro.experiments.runner.TrialResult`
#: from these, mirroring ``run_trial``'s tail).
TrialOutcome = Tuple[SimulationHistory | AggregateHistory, CreditPopulation]

#: Name prefix of the kernel's worker threads.
KERNEL_THREAD_PREFIX = "repro-kernel"

#: Most user-trials (trials x users) in a kernel block, unless one shard
#: holds more.  A step's per-user temporaries and a lane's draw scratch
#: scale with it, not with the population.  Smaller blocks cost time for
#: little memory.  On a 2-CPU host (numpy 2.4; one trial, 20 steps,
#: aggregate history, compressed refit; medians of 5 interleaved runs,
#: traced peak bytes a user):
#:
#: * 100,000 users, one thread: one block, 0.266 s and 165 B; blocks of
#:   50,000, 25,000 and 12,500 users took 1.03x, 1.08x and 1.21x as long
#:   for 146, 129 and 125 B;
#: * 400,000 users, one thread: blocks of 100,000 (this bound), 1.03 s and
#:   127 B; one block 1.14 s and 164 B; blocks of 200,000 1.19 s and 145 B;
#: * 1,000,000 users, two threads: one-shard blocks of 125,000, 1.76-1.84 s
#:   and 127 B; one block a lane 1.78 s and 164 B.
KERNEL_BLOCK_USER_TRIALS = 2**17

#: Fewest users in a kernel block before it may close (a lane's last block
#: may hold fewer).  A block's step makes a few calls per trial row (the
#: refit count tables, the fold's bincounts, the group counts), and the
#: calling thread merges a count table per block and trial, so many
#: narrow blocks cost time in proportion to the trials.  On a 2-CPU host
#: (numpy 2.4; 19 steps, aggregate history, compressed refit; medians of
#: 5-7 interleaved runs; the time against one block a lane):
#:
#: * one thread: blocks of 312 users (256 trials x 2,500) 1.39x; of 625
#:   (128 x 5,000) 1.21x; of 1,250 1.12x, 1.16x and 1.06x (256 x 2,500,
#:   128 x 5,000, 64 x 10,000); of 2,500 1.09x, 0.98x and 0.95x (128 x
#:   5,000, 64 x 10,000, 32 x 20,000); of 5,000 0.98x, 0.91x and 0.97x
#:   (64 x 10,000, 32 x 20,000, 16 x 40,000);
#: * two threads: blocks of 625 and 1,250 users (128 x 5,000) 1.10x and
#:   1.04x; of 2,500 and 5,000 (32 x 20,000) 0.99x and 0.92x;
#: * against stepping each lane in one piece (one process a run, medians
#:   of 10 interleaved pairs), 32 trials x 20,000 users in blocks of 5,000
#:   took 2.33 -> 2.21 s on one thread and 1.96 -> 1.94 s on two.
KERNEL_BLOCK_MIN_USERS = 5_000

_Result = TypeVar("_Result")

#: Per-trial ``(T, 1)`` columns of the fused decision: base score, income
#: code points, rate points and cut-off.
_Scorecards = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _lane_blocks(
    plan: ShardPlan, trials: int, threads: int
) -> List[List[Tuple[int, int]]]:
    """Return each lane's blocks as ``(shard_start, shard_stop)`` ranges.

    The lanes are ``plan.worker_ranges(threads)``.  A block is the longest
    run of a lane's consecutive shards whose user-trials (``trials`` times
    its users) stay within :data:`KERNEL_BLOCK_USER_TRIALS`, except that a
    block takes the next shard while it holds fewer than
    :data:`KERNEL_BLOCK_MIN_USERS` users; a shard larger than the bound is
    a block on its own.
    """
    lanes = []
    for first, stop in plan.worker_ranges(threads):
        blocks = []
        start = first
        for shard in range(first + 1, stop):
            lo, mid = plan.user_range(start, shard)
            hi = plan.bounds[shard][1]
            if (
                mid - lo >= KERNEL_BLOCK_MIN_USERS
                and trials * (hi - lo) > KERNEL_BLOCK_USER_TRIALS
            ):
                blocks.append((start, shard))
                start = shard
        blocks.append((start, stop))
        lanes.append(blocks)
    return lanes


def _positions(runs: List[np.ndarray], bound: int) -> np.ndarray:
    """Concatenate index runs below ``bound``, as ``int32`` where that holds them."""
    dtype = np.int32 if bound <= np.iinfo(np.int32).max else np.intp
    return np.concatenate(runs, dtype=dtype)


@dataclass(frozen=True)
class _Block:
    """A run of a lane's consecutive whole shards: the unit of per-user step work.

    ``draws`` is the block's ``(trials, 2 * users)`` view of its lane's
    draw scratch.  ``races`` lists, per race present, where the race's
    bracket and in-bracket uniforms lie in the flattened ``draws`` and
    which income slots they fill (flat positions in the ``(trials,
    users)`` rows, counted from the block's first user), over every trial
    of the block's shards.
    """

    users: slice
    shards: Tuple[int, ...]
    draws: np.ndarray
    races: Tuple[Tuple[Race, np.ndarray, np.ndarray, np.ndarray], ...]


class _KernelThreads:
    """Runs per-block work on the kernel's lanes, one thread a lane.

    A lane is one thread's blocks, stepped in order.  The calling thread is
    one of the kernel threads: it runs lane 0 itself while a pool of
    ``len(lanes) - 1`` workers runs the rest; one lane runs inline.
    """

    def __init__(self, lanes: Sequence[Sequence[_Block]]) -> None:
        self.lanes = tuple(tuple(lane) for lane in lanes)
        self._executor = (
            ThreadPoolExecutor(
                max_workers=len(self.lanes) - 1,
                thread_name_prefix=KERNEL_THREAD_PREFIX,
            )
            if len(self.lanes) > 1
            else None
        )

    def map(self, work: Callable[[_Block], _Result]) -> List[_Result]:
        """Run ``work`` on every block; return the results in block order.

        Each lane runs its blocks in order, and each worker runs its lane
        in a copy of the caller's context, so the caller's numpy error
        state (``np.errstate``) governs every block.  A lane stops at its
        first failing block, and the lanes are read in order, so a failure
        re-raises the first failing block's exception, as one thread
        stepping the blocks in order would; errors of later lanes go
        unreported, and lanes still running finish when :meth:`shutdown`
        joins their threads.
        """

        def run(lane: Tuple[_Block, ...]) -> List[_Result]:
            return [work(block) for block in lane]

        first, *rest = self.lanes  # no rest, and no pool, for one lane
        futures = [
            self._executor.submit(contextvars.copy_context().run, run, lane)
            for lane in rest
        ]
        results = run(first)
        for future in futures:
            results.extend(future.result())
        return results

    def shutdown(self) -> None:
        """Join the kernel threads and drop the lanes: maps and draw scratch."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self.lanes = ()


class _StepBuffers:
    """The ``(trials, users)`` arrays one step's phases write in place.

    Several are reused within a step: the affordability states become the
    repayment probabilities and then the clipped previous rates, read from
    the clipped-rate table at each user's cell before the block's filter
    fold (the fused decision reads them there); the repayment uniforms
    land in ``actions``, which the step's actions overwrite once they are
    compared; ``decisions`` holds the rate term of the scores until the
    cut-off writes the decisions over it.  ``rates`` is the one ``ADR_i``
    row: the filter fold writes each block's rates from the cells, so until
    a block folds, its columns still hold the previous step's rates, which
    the generic decide reads.  The income uniforms are not here: each lane
    draws them into its own scratch, a block at a time.  After the last
    step, :meth:`release` drops every row the hand-over does not read.
    """

    def __init__(self, trials: int, users: int, full_mode: bool) -> None:
        shape = (trials, users)
        self.incomes = np.empty(shape, dtype=float)
        self.probabilities = np.empty(shape, dtype=float)
        self.decisions = np.empty(shape, dtype=float)
        self.actions = np.empty(shape, dtype=float)
        self.scores = np.empty(shape, dtype=float)
        self.codes = np.empty(shape, dtype=bool)
        self.offered = np.empty(shape, dtype=bool)
        self.repaid = np.empty(shape, dtype=bool)
        self.rates = np.empty(shape, dtype=float)
        self.running_actions = np.empty(shape, dtype=float) if full_mode else None

    def release(self) -> None:
        """Drop every row but the incomes, probabilities and scores."""
        self.decisions = self.actions = self.rates = self.running_actions = None
        self.codes = self.offered = self.repaid = None


class _CellTables:
    """What a fused step reads of the filter state: its cells and tables.

    Built once per run from the stacked filter: the clipped ``ADR_i`` of
    each cell (:func:`~repro.scoring.features.clipped_default_rates`,
    validated once) and the cells' refit keys
    (:class:`~repro.scoring.suffstats.CellKeys`).
    """

    def __init__(self, rate_filter: BatchedDefaultRateFilter) -> None:
        self.rate_filter = rate_filter
        self.clipped_rates = clipped_default_rates(rate_filter.cell_rates)
        self.refit_keys = CellKeys(self.clipped_rates)


class BatchedTrialRunner:
    """Run all trials of a case study in lockstep through stacked tensors.

    Parameters
    ----------
    config:
        The run's configuration; its ``history_mode`` picks the
        recording: ``"full"`` records per-trial
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
        Kernel threads, one lane of user blocks each (capped by the
        canonical shard count).  Any count gives bit-identical trials.
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
        validate_execution_settings("batch", steps=config.num_steps)
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
        self._lanes = self._build_lanes(threads)
        self._fast_stack = self._resolve_fast_stack()

    def _build_lanes(self, threads: int) -> List[List[_Block]]:
        """Split the shards into lanes of blocks, each lane with one scratch.

        A lane's draw scratch is sized for its widest block; each of its
        blocks draws into the scratch's first ``trials * 2 * users``
        doubles (:meth:`_block`).
        """
        num_trials = self._config.num_trials
        lanes: List[List[_Block]] = []
        for shard_ranges in _lane_blocks(self._plan, num_trials, threads):
            widest = max(
                hi - lo for lo, hi in (self._plan.user_range(*r) for r in shard_ranges)
            )
            scratch = np.empty(num_trials * 2 * widest, dtype=float)
            lanes.append([self._block(*r, scratch) for r in shard_ranges])
        return lanes

    def _block(self, first: int, stop: int, scratch: np.ndarray) -> _Block:
        """Lay out the draws of shards ``[first, stop)`` in ``scratch``.

        The block's draws are a ``(trials, 2 * users)`` view of the
        scratch.  Each ``(trial, shard, step)`` generator's income uniforms
        form one ``random(2 * shard_size)`` run at offset
        ``2 * (lo - start)`` of the trial's row, ``start`` being the
        block's first user.  Within a run the serial draw order is, per
        race segment (table order, skipping empty ones), the bracket
        uniforms then the in-bracket uniforms.  Per race, flat index
        arrays record where those uniforms lie and which income slots they
        fill, so the block maps all its trials' and shards' draws with one
        bracket search and one scatter per race.
        """
        num_trials = self._config.num_trials
        num_users = self._config.num_users
        races = self._table.races
        start, end = self._plan.user_range(first, stop)
        width = end - start
        brackets: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
        widths: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
        targets: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
        for trial, population in enumerate(self._populations):
            partition = population.shard_race_partition()
            for shard in range(first, stop):
                lo, _ = self._plan.bounds[shard]
                run = trial * 2 * width + 2 * (lo - start)
                offset = 0
                for race in races:
                    local = partition[shard].get(race)
                    if local is None or not local.size:
                        continue
                    count = local.size
                    positions = np.arange(run + offset, run + offset + count)
                    brackets[race].append(positions)
                    widths[race].append(positions + count)
                    targets[race].append(trial * num_users + lo - start + local)
                    offset += 2 * count
        draws_size = num_trials * 2 * width
        incomes_size = (num_trials - 1) * num_users + width
        return _Block(
            users=slice(start, end),
            shards=tuple(range(first, stop)),
            draws=scratch[:draws_size].reshape(num_trials, 2 * width),
            races=tuple(
                (
                    race,
                    _positions(brackets[race], draws_size),
                    _positions(widths[race], draws_size),
                    _positions(targets[race], incomes_size),
                )
                for race in races
                if brackets[race]
            ),
        )

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
        self, block: _Block, k: int, year: int, buffers: _StepBuffers
    ) -> None:
        """Draw one block's step and compare its repayment uniforms.

        Two ``random`` calls per ``(trial, shard)`` cover the serial path's
        entire generator consumption for the step — bracket and in-bracket
        uniforms per race segment (``begin_step``), into the lane's scratch,
        then the repayment uniforms (``respond``), into ``actions`` — in the
        identical stream order.  The block then maps its incomes, computes
        affordability and the probit, and records which users would repay
        if offered (``u < P(repay)``).
        """
        bounds = self._plan.bounds
        start = block.users.start
        for trial, seeds in enumerate(self._shard_seeds):
            draws = block.draws[trial]
            uniforms = buffers.actions[trial]
            for shard in block.shards:
                lo, hi = bounds[shard]
                generator = step_generator(seeds[shard], k)
                generator.random(out=draws[2 * (lo - start) : 2 * (hi - start)])
                generator.random(out=uniforms[lo:hi])
        flat_draws = block.draws.reshape(-1)
        flat_incomes = buffers.incomes.reshape(-1)[start:]
        for race, bracket_idx, width_idx, target_idx in block.races:
            flat_incomes[target_idx] = self._sampler.incomes_from_uniforms(
                year, race, flat_draws[bracket_idx], flat_draws[width_idx]
            )
        users = block.users
        states = affordability_state(
            buffers.incomes[:, users],
            self._terms,
            out=buffers.probabilities[:, users],
        )
        probabilities = self._model.repayment_probability(states, out=states)
        np.less(buffers.actions[:, users], probabilities, out=buffers.repaid[:, users])

    def _act(self, block: _Block, buffers: _StepBuffers) -> np.ndarray:
        """Write one block's actions; return its offered mask.

        A user acts (repays) when offered and ``u < P(repay)``.
        """
        users = block.users
        offered = np.not_equal(
            buffers.decisions[:, users], 0.0, out=buffers.offered[:, users]
        )
        repaid = np.logical_and(
            buffers.repaid[:, users], offered, out=buffers.repaid[:, users]
        )
        buffers.actions[:, users] = repaid
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
        block: _Block,
        k: int,
        year: int,
        scorecards: _Scorecards | None,
        tables: _CellTables,
        buffers: _StepBuffers,
    ) -> List[CompressedDesign]:
        """Run one block's whole step on the default decision stack.

        The decision replicates ``T`` :meth:`~repro.credit.lender.Lender.decide`
        calls: during warm-up everyone is approved and scores are ``nan``;
        afterwards each trial's two-factor scorecard is an affine map of
        the (income code, clipped previous rate) columns, evaluated with
        per-trial coefficients broadcast down the trial axis — the
        identical ``base + points * code``, then ``+= points * rate``
        operation order of
        :meth:`~repro.scoring.scorecard.Scorecard.score_matrix`.  The
        clipped rates are a table read of the cells the block's filter fold
        has not moved yet.  The block also counts every trial's offered
        ``(code, rate, label)`` rows — the key layout the per-trial
        :meth:`~repro.credit.lender.Lender.retrain` builds — into one count
        table per trial, from the cells' refit keys.
        """
        self._respond(block, k, year, buffers)
        stack = self._fast_stack
        users = block.users
        decisions = buffers.decisions[:, users]
        scores = buffers.scores[:, users]
        codes = np.greater_equal(
            buffers.incomes[:, users],
            stack["income_threshold"],
            out=buffers.codes[:, users],
        )
        cells = tables.rate_filter.cells[:, users]
        # The probabilities are compared already; their columns now hold
        # the clipped previous rates.
        clipped_rates = tables.rate_filter.read(
            tables.clipped_rates, cells, out=buffers.probabilities[:, users]
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
        offered = self._act(block, buffers)
        return tables.refit_keys.tables(
            cells, codes, buffers.repaid[:, users], offered
        )

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
                "user_default_rates": buffers.rates[trial].copy(),
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
            require_binary_decisions(decisions_row)
            buffers.decisions[trial] = decisions_row
            step_features.append(features)
            step_observations.append(observation)
        return step_features, step_observations

    def run(self) -> List[TrialOutcome]:
        """Execute every trial in lockstep and return the per-trial outcomes.

        A runner runs once: the run trains its lenders and releases its
        lanes, so a second call raises :class:`RuntimeError`.
        """
        if self._lanes is None:
            raise RuntimeError(
                "BatchedTrialRunner.run() runs once: the first call trained "
                "this runner's lenders and released its lanes, so a "
                "second call would run a different experiment; build a new "
                "runner to run the trials again"
            )
        threads = _KernelThreads(self._lanes)
        self._lanes = None
        try:
            aggregate, histories = self._step_all(threads)
        finally:
            threads.shutdown()
        # The lanes and the step buffers died in _step_all: each trial's
        # result rows are built after them.
        outcomes: List[TrialOutcome] = []
        for trial, population in enumerate(self._populations):
            if aggregate is None:
                history: SimulationHistory | AggregateHistory = histories[trial]
            else:
                history = AggregateHistory.from_aggregator(aggregate.aggregator(trial))
            outcomes.append((history, population))
        return outcomes

    def _step_all(
        self, threads: _KernelThreads
    ) -> Tuple[BatchedStreamingAggregator | None, List[SimulationHistory]]:
        """Run every step; return the aggregate recorder or the histories.

        Leaves each population holding its final step state, as a serial
        trial would.  Before the lenders and populations copy their final
        rows, it shuts the threads down, which drops the lanes' block maps
        and draw scratch, and releases every step row the copies do not
        read.
        """
        config = self._config
        num_trials = config.num_trials
        num_steps = config.num_steps
        full_mode = config.history_mode == "full"
        batched_filter = BatchedDefaultRateFilter(
            num_trials, config.num_users, num_steps
        )
        tables = None if self._fast_stack is None else _CellTables(batched_filter)
        histories: List[SimulationHistory] = []
        aggregate: BatchedStreamingAggregator | None = None
        if full_mode:
            histories = [SimulationHistory() for _ in range(num_trials)]
        else:
            aggregate = BatchedStreamingAggregator(
                batched_filter,
                [population.groups for population in self._populations],
            )
        buffers = _StepBuffers(num_trials, config.num_users, full_mode)
        batched_filter.user_rates(out=buffers.rates)
        portfolio = batched_filter.portfolio_rates()

        def record(users: slice, k: int) -> Tuple[np.ndarray, object]:
            """Fold one block's step into the filter, then the recorder.

            Returns the filter's ``(2, trials)`` offer and repayment counts
            and the aggregator's block reductions (``None`` in full mode).
            """
            counts = batched_filter.fold(
                users, buffers.offered, buffers.repaid, buffers.rates
            )
            if aggregate is not None:
                return counts, aggregate.fold(users, buffers.decisions, buffers.rates)
            # Full history's Cesàro row: a user repays only when offered,
            # so the running action sums are the repayment counts.
            running_actions = batched_filter.read(
                batched_filter.cell_repayments,
                batched_filter.cells[:, users],
                out=buffers.running_actions[:, users],
            )
            np.divide(running_actions, float(k + 1), out=running_actions)
            return counts, None

        for k in range(num_steps):
            year = config.start_year + k
            fused, scorecards = (
                self._fused_round() if self._fast_stack is not None else (False, None)
            )
            step_features: List[Dict[str, np.ndarray]] = []
            if fused:
                results = threads.map(
                    lambda block: (
                        self._fused_step(block, k, year, scorecards, tables, buffers),
                        record(block.users, k),
                    )
                )
                self._fused_update([block_tables for block_tables, _ in results], buffers)
            else:
                threads.map(lambda block: self._respond(block, k, year, buffers))
                step_features, step_observations = self._generic_decisions(
                    k, buffers, portfolio
                )
                results = threads.map(
                    lambda block: (self._act(block, buffers), record(block.users, k))
                )
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
            records = [block_record for _, block_record in results]
            batched_filter.finish_step([counts for counts, _ in records])
            portfolio = batched_filter.portfolio_rates()
            if full_mode:
                # np.mean of a 0/1 row is its exact count over the user count.
                approvals = batched_filter.step_counts[0] / config.num_users
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
                            "user_default_rates": buffers.rates[trial],
                            "portfolio_rate": float(portfolio[trial]),
                        },
                        running_rates=buffers.rates[trial],
                        running_actions=buffers.running_actions[trial],
                        approval=float(approvals[trial]),
                    )
            else:
                assert aggregate is not None
                aggregate.finish_step(
                    buffers.decisions, buffers.rates, [block for _, block in records]
                )
        if num_steps == 0:
            return aggregate, histories
        # The probabilities are spent: their rows take the final
        # affordability, a block at a time, which the populations copy.
        threads.map(
            lambda block: affordability_state(
                buffers.incomes[:, block.users],
                self._terms,
                out=buffers.probabilities[:, block.users],
            )
        )
        threads.shutdown()
        buffers.release()
        if fused:
            # The lenders' last-scores caches are rows of the scores
            # buffer; give each its own copy so the buffer can go.
            for trial, system in enumerate(self._ai_systems):
                system._last_scores = buffers.scores[trial].copy()
        for trial, population in enumerate(self._populations):
            population.import_shard_state(
                0,
                {
                    "incomes": buffers.incomes[trial],
                    "affordability": buffers.probabilities[trial],
                },
            )
        return aggregate, histories

    def _fused_update(
        self, tables: List[List[CompressedDesign]], buffers: _StepBuffers
    ) -> None:
        """Finish a fused round: lender bookkeeping and the refits.

        Every lender's round counter and last-scores cache advance exactly
        as in the serial ``decide``.  The delayed-feedback retrain is what
        ``CreditScoringSystem.update`` does, minus the dict and copy
        ceremony: each trial merges its blocks' count tables and refits
        through ``retrain_from_suffstats`` (identical degenerate-mask
        handling included) — T tiny independent O(unique rows) refits per
        step.
        """
        lenders: List[Lender] = self._fast_stack["lenders"]
        for trial, lender in enumerate(lenders):
            lender._rounds_seen += 1
            self._ai_systems[trial]._last_scores = buffers.scores[trial]
            lender.retrain_from_suffstats(
                merge_tables(block_tables[trial] for block_tables in tables)
            )
