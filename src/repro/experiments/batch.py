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

Bit-identity contract
---------------------

Every batched trial row is **bit-identical** to its serial
:func:`~repro.experiments.runner.run_trial` twin.  That holds because
nothing about the random schedule or the per-trial arithmetic changes:

* trial ``t`` draws from exactly the serial streams — population
  generation from ``default_rng(derive_seed(seed, "trial", t))``, and each
  step from the canonical per-shard generators
  :func:`~repro.utils.rng.shard_step_generator`.  The engine draws each
  ``(trial, shard, step)`` generator's whole consumption (bracket
  uniforms, in-bracket uniforms, repayment uniforms) in **one**
  ``random(3 * shard_size)`` call; numpy generators buffer nothing between
  ``random`` calls, so the split block equals the serial path's separate
  draws double for double (pinned by the income-sampler regression tests
  and the batch-equivalence suite);
* the fused phases are elementwise, so evaluating them on a stacked
  ``(trials, users)`` block produces the identical bits row by row; every
  per-trial reduction (portfolio sums, approval means, group folds) runs
  over a contiguous trial row — the same reduction the serial engine runs
  over its own arrays;
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
ceremony); the trial pool (``execution="pool"``) wins when real cores
exist and trials are few and heavy.  ``BENCH_core.json`` (entry
``trial-batched-engine``) records the measured crossover.  The rule is
code: ``execution="auto"`` (:func:`repro.core.planner.plan_execution`)
selects this engine for several trials on a single core and for a single
trial on any host, unless checkpointing (the lockstep walk has no
per-trial boundary to snapshot, which is why ``execution="batch"`` with
checkpoint knobs is rejected at config time).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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
from repro.scoring.suffstats import CompressedDesign, pack_rows
from repro.utils.rng import derive_seed, shard_seed, step_generator

__all__ = ["BatchedTrialRunner"]

#: One trial's outcome: the recorded history plus the trial's population
#: (the runner assembles :class:`~repro.experiments.runner.TrialResult`
#: from these, mirroring ``run_trial``'s tail).
TrialOutcome = Tuple[SimulationHistory | AggregateHistory, CreditPopulation]


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
    """

    def __init__(
        self,
        config: CaseStudyConfig,
        policy_factory,
        terms: MortgageTerms | None = None,
        income_table: IncomeTable | None = None,
    ) -> None:
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
        self._build_draw_layout()
        self._fast_stack = self._resolve_fast_stack()

    def _build_draw_layout(self) -> None:
        """Precompute the flat gather/scatter layout of the step draws.

        Each ``(trial, shard, step)`` generator's whole consumption is one
        ``random(3 * shard_size)`` block written at offset ``3 * lo`` of
        the trial's row in a ``(trials, 3 * users)`` buffer.  Within a
        block the serial draw order is: per race segment (table order,
        skipping empty ones) the bracket uniforms then the in-bracket
        uniforms, and finally the repayment uniforms.  This method turns
        that layout into, per race, flat index arrays — where the race's
        bracket/width uniforms live in the buffer and which flat income
        slots they fill — so each step maps every trial's and shard's
        draws with one ``searchsorted`` and one scatter per race, plus one
        gather for the repayment uniforms.
        """
        config = self._config
        num_users = config.num_users
        buffer_width = 3 * num_users
        races = self._table.races
        bracket_positions: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
        width_positions: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
        income_targets: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
        repayment_positions: List[np.ndarray] = []
        for trial, population in enumerate(self._populations):
            row_base = trial * buffer_width
            for (lo, hi), local in zip(
                self._plan.bounds, population.shard_race_partition()
            ):
                block_base = row_base + 3 * lo
                size = hi - lo
                offset = 0
                for race in races:
                    indices = local.get(race)
                    if indices is None or not indices.size:
                        continue
                    count = indices.size
                    positions = np.arange(
                        block_base + offset, block_base + offset + count
                    )
                    bracket_positions[race].append(positions)
                    width_positions[race].append(positions + count)
                    offset += 2 * count
                    income_targets[race].append(trial * num_users + lo + indices)
                repayment_positions.append(
                    np.arange(block_base + 2 * size, block_base + 3 * size)
                )
        self._race_layout: List[Tuple[Race, np.ndarray, np.ndarray, np.ndarray]] = [
            (
                race,
                np.concatenate(bracket_positions[race]),
                np.concatenate(width_positions[race]),
                np.concatenate(income_targets[race]),
            )
            for race in races
            if bracket_positions[race]
        ]
        self._repayment_positions = np.concatenate(repayment_positions)

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
            # With every lender in compressed mode the step's training rows
            # pack into suffstats keys in one fused pass over the whole
            # (trials, users) block; each trial then refits from its own
            # count table through the public sharded-retraining entry point.
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

    def _draw_step(
        self,
        k: int,
        year: int,
        buffer: np.ndarray,
        incomes: np.ndarray,
        repayment_uniforms: np.ndarray,
    ) -> None:
        """Draw every trial's incomes and repayment uniforms for step ``k``.

        One bulk ``random(3 * shard_size)`` call per ``(trial, shard)``
        covers the serial path's entire generator consumption for the step
        — bracket uniforms and in-bracket uniforms per race segment
        (``begin_step``), then the repayment uniforms (``respond``) — in
        the identical stream order.  The blocks land in the flat draw
        buffer, from which the precomputed layout maps all trials' and
        shards' draws with one bracket search and scatter per race.
        """
        sampler = self._sampler
        bounds = self._plan.bounds
        for trial in range(len(self._trial_seeds)):
            row = buffer[trial]
            seeds = self._shard_seeds[trial]
            for shard, (lo, hi) in enumerate(bounds):
                step_generator(seeds[shard], k).random(out=row[3 * lo : 3 * hi])
        flat = buffer.reshape(-1)
        income_slots = incomes.reshape(-1)
        for race, bracket_idx, width_idx, target_idx in self._race_layout:
            income_slots[target_idx] = sampler.incomes_from_uniforms(
                year, race, flat[bracket_idx], flat[width_idx]
            )
        np.take(flat, self._repayment_positions, out=repayment_uniforms.reshape(-1))

    def _decide_batch(
        self,
        k: int,
        incomes: np.ndarray,
        rates_before: np.ndarray,
        decisions: np.ndarray,
    ) -> bool:
        """Fused decision round for the default stack; ``False`` to fall back.

        Replicates ``T`` :meth:`~repro.credit.lender.Lender.decide` calls
        in one broadcastful pass: during warm-up everyone is approved and
        scores are ``nan``; afterwards each trial's two-factor scorecard is
        an affine map of the (income code, clipped previous rate) columns,
        evaluated with per-trial coefficients broadcast down the trial
        axis — the identical ``full → += points * column`` operation order
        of :meth:`~repro.scoring.scorecard.Scorecard.score_matrix`.  Every
        lender's round counter and last-scores cache advance exactly as in
        the serial call.
        """
        stack = self._fast_stack
        lenders: List[Lender] = stack["lenders"]
        warm_flags = {lender.in_warm_up for lender in lenders}
        if len(warm_flags) != 1:
            return False  # rounds diverged (custom factory): generic path
        num_trials = len(lenders)
        if warm_flags.pop():
            decisions[:] = 1.0
            scores = None
        else:
            bases = np.empty(num_trials)
            income_points = np.empty(num_trials)
            rate_points = np.empty(num_trials)
            for trial, lender in enumerate(lenders):
                card = lender.scorecard
                if card is None:
                    return False  # serial decide raises; let it
                factors = card.factors
                if (
                    len(factors) != 2
                    or factors[0].name != "income_code"
                    or factors[1].name != "average_default_rate"
                    or factors[0].transform is not None
                    or factors[1].transform is not None
                ):
                    return False
                bases[trial] = card.base_score
                income_points[trial] = factors[0].points
                rate_points[trial] = factors[1].points
            codes = (incomes >= stack["income_threshold"]).astype(float)
            clipped_rates = clipped_default_rates(rates_before)
            scores = bases[:, None] + income_points[:, None] * codes
            scores += rate_points[:, None] * clipped_rates
            decisions[:] = (scores > stack["cutoff_column"]).astype(float)
        for trial, lender in enumerate(lenders):
            lender._rounds_seen += 1
            self._ai_systems[trial]._last_scores = (
                np.full(self._config.num_users, np.nan)
                if scores is None
                else scores[trial]
            )
        return True

    def run(self) -> List[TrialOutcome]:
        """Execute every trial in lockstep and return the per-trial outcomes."""
        config = self._config
        num_trials = config.num_trials
        num_users = config.num_users
        num_steps = config.num_steps
        full_mode = config.history_mode == "full"
        histories: List[SimulationHistory] = []
        aggregate: BatchedStreamingAggregator | None = None
        if full_mode:
            histories = [SimulationHistory() for _ in range(num_trials)]
        else:
            aggregate = BatchedStreamingAggregator(
                num_trials,
                num_users,
                [population.groups for population in self._populations],
            )
        batched_filter = BatchedDefaultRateFilter(num_trials, num_users)
        draw_buffer = np.empty((num_trials, 3 * num_users), dtype=float)
        incomes = np.empty((num_trials, num_users), dtype=float)
        repayment_uniforms = np.empty((num_trials, num_users), dtype=float)
        decisions = np.empty((num_trials, num_users), dtype=float)
        actions_cum = np.zeros((num_trials, num_users), dtype=float)
        # The observation entering a step is the filter state left by the
        # previous step; the serial path recomputes it from the unchanged
        # tracker, so carrying the arrays forward changes no bits.
        rates_before = batched_filter.user_rates()
        portfolio_before = batched_filter.portfolio_rates()
        affordability = incomes  # placeholder for the num_steps == 0 edge
        for k in range(num_steps):
            year = config.start_year + k
            self._draw_step(k, year, draw_buffer, incomes, repayment_uniforms)
            affordability = affordability_state(incomes, self._terms)
            fast = self._fast_stack is not None and self._decide_batch(
                k, incomes, rates_before, decisions
            )
            step_features: List[Dict[str, np.ndarray]] = []
            step_observations: List[Dict[str, np.ndarray | float]] = []
            if not fast:
                for trial in range(num_trials):
                    # Fresh per-trial dicts with private copies, exactly
                    # the objects the serial loop hands its AI system
                    # (begin_step copies the incomes; the filter copies
                    # its rates).
                    features = {"income": incomes[trial].copy()}
                    observation: Dict[str, np.ndarray | float] = {
                        "user_default_rates": rates_before[trial].copy(),
                        "portfolio_rate": float(portfolio_before[trial]),
                    }
                    decisions_row = np.asarray(
                        self._ai_systems[trial].decide(features, observation, k),
                        dtype=float,
                    ).ravel()
                    if decisions_row.shape[0] != num_users:
                        raise ValueError(
                            "the AI system must return one decision per user "
                            f"({decisions_row.shape[0]} != {num_users})"
                        )
                    if np.any((decisions_row != 0.0) & (decisions_row != 1.0)):
                        # The serial filter truncates fractional decisions
                        # to integers before counting offers, giving them
                        # quirky implicit semantics; rather than silently
                        # diverging from that corner, the batched engine
                        # insists on the credit loop's 0/1 contract.
                        raise ValueError(
                            "the lockstep kernel (execution='batch', which "
                            "'auto' plans for in-process runs) requires 0/1 "
                            "decisions, but the AI system returned other "
                            "values; run with execution='serial', whose "
                            "filter truncates decisions to integers before "
                            "counting offers"
                        )
                    decisions[trial] = decisions_row
                    step_features.append(features)
                    step_observations.append(observation)
            probabilities = self._model.repayment_probability(affordability)
            actions = (
                (repayment_uniforms < probabilities) & (decisions != 0.0)
            ).astype(float)
            if fast:
                # The delayed-feedback retrain on the stacked rows — what
                # CreditScoringSystem.update does, minus the dict and copy
                # ceremony (the lender never mutates its inputs).  Under
                # retrain_mode="compressed" these are T tiny independent
                # O(unique rows) refits per step.
                lenders: List[Lender] = self._fast_stack["lenders"]
                if self._fast_stack["compressed_retrain"]:
                    # One fused pass packs every trial's (code, rate,
                    # label) rows — the same key layout the per-trial
                    # Lender._retrain_compressed builds — then each trial
                    # deduplicates its offered rows and refits through
                    # retrain_from_suffstats (identical degenerate-mask
                    # handling included).
                    keys = pack_rows(
                        incomes >= self._fast_stack["income_threshold"],
                        clipped_default_rates(rates_before),
                        actions,
                    )
                    offered_mask = decisions == 1.0
                    for trial in range(num_trials):
                        lenders[trial].retrain_from_suffstats(
                            CompressedDesign.from_key_array(
                                keys[trial][offered_mask[trial]]
                            )
                        )
                else:
                    for trial in range(num_trials):
                        lenders[trial].retrain(
                            incomes[trial],
                            rates_before[trial],
                            actions[trial],
                            offered=decisions[trial],
                        )
            else:
                for trial in range(num_trials):
                    # The delayed-feedback retrain, exactly the serial call.
                    self._ai_systems[trial].update(
                        step_features[trial],
                        decisions[trial],
                        actions[trial],
                        step_observations[trial],
                        k,
                    )
            batched_filter.update(decisions, actions)
            rates_after = batched_filter.user_rates()
            portfolio_after = batched_filter.portfolio_rates()
            if full_mode:
                actions_cum += actions
                running_actions = actions_cum / float(k + 1)
                for trial in range(num_trials):
                    histories[trial].record_step_precomputed(
                        k,
                        # The history copies rows into its columns, so the
                        # fast path hands it bare views; the generic path
                        # reuses the dicts the AI systems saw (as the
                        # serial loop does).
                        step_features[trial]
                        if step_features
                        else {"income": incomes[trial]},
                        decisions[trial],
                        actions[trial],
                        {
                            "user_default_rates": rates_after[trial],
                            "portfolio_rate": float(portfolio_after[trial]),
                        },
                        running_rates=rates_after[trial],
                        running_actions=running_actions[trial],
                        approval=float(np.mean(decisions[trial])),
                    )
            else:
                assert aggregate is not None
                aggregate.update(decisions, actions)
            rates_before = rates_after
            portfolio_before = portfolio_after
        outcomes: List[TrialOutcome] = []
        for trial in range(num_trials):
            population = self._populations[trial]
            if num_steps > 0:
                # Leave the population holding its final step state, as a
                # serial trial would.
                population.import_shard_state(
                    0,
                    {
                        "incomes": incomes[trial],
                        "affordability": affordability[trial],
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

