"""The closed-loop orchestrator (Figure 1 of the paper).

One pass through the loop at time ``k``:

1. the population reveals its public features (e.g. this year's incomes);
2. the AI system decides ``pi(k)`` from those features and the *previous*
   filtered observation;
3. the users respond stochastically with actions ``y_i(k)``;
4. the AI system is retrained on the delayed feedback — the features and
   observation that were available when it decided, paired with the actions
   it has just provoked (this is the paper's "delay" box);
5. the filter folds the new actions into the aggregate observation used at
   the next step.

:class:`ClosedLoop` implements exactly that ordering and records every step
in a :class:`~repro.core.history.SimulationHistory` (or, with
``history_mode="aggregate"``, a memory-bounded
:class:`~repro.core.streaming.AggregateHistory`).

Per-shard random streams
------------------------

Within a step, every stochastic population quantity is independent across
users, so the loop executes the population *shard by shard*: a shard-aware
population (one exposing ``shard_plan``, see
:class:`~repro.core.sharding.ShardPlan`) is driven with one derived
generator per canonical shard and step
(:func:`~repro.utils.rng.shard_step_generator`) instead of one trial-wide
generator.  The random schedule is a pure function of ``(base seed, shard,
step)``, so a run in one call, a chunked run (``run`` called repeatedly
with the growing history) and a run resumed from a step snapshot produce
**bit-identical** trajectories.  The lockstep kernel
(:class:`~repro.experiments.batch.BatchedTrialRunner`) draws from the same
streams, which is what lets it spread runs of whole canonical shards over
threads and still reproduce this loop bit for bit.

The per-shard streams are a deliberate, pinned break from the pre-sharding
engine's single trial-wide generator; the equivalence suites were
re-goldened when it landed (see ``tests/experiments/test_engine_equivalence.py``).

Populations without a ``shard_plan`` (e.g. hand-written test doubles) run
as a single shard and keep the legacy one-generator ``begin_step``/
``respond`` signature; their stream is then ``shard_step_generator(base,
0, k)``.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.ai_system import AISystem
from repro.core.checkpoint import CheckpointError, CheckpointSpec, checkpoint_path
from repro.core.filters import LoopFilter
from repro.core.history import SimulationHistory
from repro.core.population import Population
from repro.core.sharding import ShardPlan
from repro.core.streaming import AggregateHistory
from repro.testing.faults import fire as _fire_fault
from repro.utils.rng import shard_seed, spawn_generator, step_states

__all__ = ["ClosedLoop"]

_MAX_SEED = 2**63 - 1


def _resolve_population_plan(population) -> Tuple[ShardPlan, bool]:
    """Return ``(plan, shard_aware)`` for any population object."""
    plan = getattr(population, "shard_plan", None)
    if isinstance(plan, ShardPlan):
        return plan, True
    return ShardPlan.single(population.num_users), False


class ClosedLoop:
    """Wires an AI system, a population, and a filter into the closed loop.

    Parameters
    ----------
    ai_system:
        The decision maker (implements :class:`~repro.core.ai_system.AISystem`).
    population:
        The users (implements :class:`~repro.core.population.Population`).
    loop_filter:
        The aggregation filter (implements
        :class:`~repro.core.filters.LoopFilter`).
    retrain:
        Whether to call the AI system's ``update`` hook each step.  Setting
        this to ``False`` turns the loop into the open-loop baseline where
        the model never adapts to the feedback it creates.
    """

    def __init__(
        self,
        ai_system: AISystem,
        population: Population,
        loop_filter: LoopFilter,
        retrain: bool = True,
    ) -> None:
        self._ai_system = ai_system
        self._population = population
        self._filter = loop_filter
        self._retrain = retrain
        self._plan, self._shard_aware = _resolve_population_plan(population)
        # Base seed of the shard streams; fixed at the first run/step call
        # so chunked runs continue the exact single-run schedule.
        self._stream_base: int | None = None
        # Per-shard seeds derived from the current base (cached: the shard
        # half of the hash chain is base-dependent only, so deriving it per
        # step would hash the same labels every step).
        self._shard_seeds: List[int] | None = None
        # One generator per canonical shard, re-seated onto every step's
        # streams instead of building new ones.
        self._generators: List[np.random.Generator] = []

    @property
    def ai_system(self) -> AISystem:
        """Return the AI system."""
        return self._ai_system

    @property
    def population(self) -> Population:
        """Return the population."""
        return self._population

    @property
    def loop_filter(self) -> LoopFilter:
        """Return the filter."""
        return self._filter

    @property
    def shard_plan(self) -> ShardPlan:
        """Return the canonical shard partition the loop executes."""
        return self._plan

    def _resolve_stream_base(self, rng, continuing: bool = False) -> int:
        """Fix (or reuse) the base seed of the shard streams.

        A fresh run resolves the base from ``rng`` every time — an integer
        is the base itself, a generator contributes one draw (advancing
        it, so repeated runs with the same generator stay independent),
        and ``None`` draws from OS entropy.  Only a *continuation*
        (``run`` with a non-empty history, and ``rng=None``) reuses the
        established base, which is what replays the exact single-run
        schedule across chunks.
        """
        if continuing and rng is None and self._stream_base is not None:
            return self._stream_base
        if rng is not None and not isinstance(rng, np.random.Generator):
            self._stream_base = int(rng)
        else:
            source = spawn_generator(rng)
            self._stream_base = int(source.integers(_MAX_SEED))
        self._shard_seeds = None
        return self._stream_base

    def _step_rngs(self, k: int) -> List[np.random.Generator]:
        """Re-seat the loop's generators onto step ``k``'s shard streams.

        Generator ``s`` then draws what
        :func:`~repro.utils.rng.shard_step_generator` would for shard ``s``
        at step ``k``.  The same generator objects serve every step, so a
        population must not keep them past the step it is handed them.
        """
        base = self._stream_base
        assert base is not None
        if self._shard_seeds is None:
            self._shard_seeds = [
                shard_seed(base, shard) for shard in range(self._plan.num_shards)
            ]
        if len(self._generators) != len(self._shard_seeds):
            self._generators = [
                np.random.Generator(np.random.PCG64(0)) for _ in self._shard_seeds
            ]
        for generator, state in zip(
            self._generators, step_states(self._shard_seeds, k)
        ):
            generator.bit_generator.state = state
        return self._generators

    def run(
        self,
        num_steps: int,
        rng: int | np.random.Generator | None = None,
        history: SimulationHistory | AggregateHistory | None = None,
        history_mode: str = "full",
        groups: Mapping[object, np.ndarray] | None = None,
        checkpoint: CheckpointSpec | None = None,
    ) -> SimulationHistory | AggregateHistory:
        """Run the loop for ``num_steps`` steps and return the history.

        Parameters
        ----------
        num_steps:
            Number of passes through the loop.
        rng:
            Base seed (or generator contributing one draw) of the
            per-shard random streams.  Leave it ``None`` when continuing
            an existing history: the loop then reuses the base it started
            with, which replays the exact schedule of an unchunked run.
        history:
            Optional existing history to append to (the loop can be run in
            several chunks, e.g. to inspect intermediate state).  The
            store's type decides the recording mode, so a resumed run keeps
            the mode it started with regardless of ``history_mode``.
        history_mode:
            ``"full"`` (default) records every ``(steps, users)`` column in
            a :class:`~repro.core.history.SimulationHistory`;
            ``"aggregate"`` folds each step into a memory-bounded
            :class:`~repro.core.streaming.AggregateHistory` that keeps only
            group-level series (per-user accessors then raise
            :class:`~repro.core.history.FullHistoryRequiredError`).
        groups:
            Group partition (e.g. ``population.groups``) used by the
            aggregate store; only consulted when a new aggregate history is
            created here.
        checkpoint:
            Optional :class:`~repro.core.checkpoint.CheckpointSpec`: at
            every ``checkpoint.every``-th step boundary the loop's state
            (history, filter, AI system, population, stream base) is
            written crash-consistently to
            ``checkpoint.directory/checkpoint.stem.stepNNNNNNNN.ckpt``.
            A run restored from such a snapshot
            (:meth:`restore_snapshot`) and continued is bit-identical to
            the uninterrupted run, because the random streams are
            stateless per ``(shard, step)``.  A snapshot that cannot be
            written (a full disk) is reported with a
            :class:`RuntimeWarning` and the run carries on; the last
            snapshot that did land stays the resume point.
        """
        if num_steps < 0:
            raise ValueError("num_steps must be non-negative")
        if history_mode not in ("full", "aggregate"):
            raise ValueError(
                f'history_mode must be "full" or "aggregate", got {history_mode!r}'
            )
        continuing = history is not None and history.num_steps > 0
        self._resolve_stream_base(rng, continuing=continuing)
        if history is not None:
            record_book = history
        elif history_mode == "aggregate":
            record_book = AggregateHistory(
                num_users=self._population.num_users, groups=groups
            )
        else:
            record_book = SimulationHistory()
        start = record_book.num_steps
        return self._run_serial_range(record_book, start, start + num_steps, checkpoint)

    def _run_serial_range(
        self,
        record_book: SimulationHistory | AggregateHistory,
        start: int,
        end: int,
        checkpoint: CheckpointSpec | None,
    ) -> SimulationHistory | AggregateHistory:
        """Advance the loop serially over ``[start, end)``, checkpointing."""
        for k in range(start, end):
            _fire_fault("loop_step", step=k)
            public_features, decisions, actions, observation = self._advance(
                k, self._step_rngs(k)
            )
            record_book.record_step(k, public_features, decisions, actions, observation)
            if checkpoint is not None and checkpoint.due(record_book.num_steps):
                self._write_snapshot(checkpoint, record_book)
        return record_book

    def _write_snapshot(
        self,
        checkpoint: CheckpointSpec,
        record_book: SimulationHistory | AggregateHistory,
    ) -> None:
        """Write one step snapshot; a failed write warns instead of raising.

        The run itself is unaffected by a lost snapshot.  The failed write
        raises before :meth:`CheckpointSpec.write` prunes, so the last
        snapshot that landed stays on disk as the resume point.
        """
        try:
            checkpoint.write(self.export_snapshot(record_book))
        except OSError as error:
            path = checkpoint_path(
                checkpoint.directory, checkpoint.stem, record_book.num_steps
            )
            warnings.warn(
                f"could not write the step snapshot {path} ({error}); the run "
                "continues and resumes from its last snapshot on disk",
                RuntimeWarning,
                stacklevel=4,
            )

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def export_snapshot(
        self, history: SimulationHistory | AggregateHistory
    ) -> Dict[str, object]:
        """Return a step-boundary snapshot payload of this run.

        The payload captures everything a fresh loop of the same
        configuration needs to continue bit-identically: the recorded
        history, the filter state, the AI system's learning state, the
        population's mutable state, and the base seed of the stateless
        random streams.  Components exposing ``export_state`` /
        ``import_state`` are captured structurally; anything else is
        embedded as the whole object, which pickles with the payload.

        The returned dict aliases live state — serialize it
        (:func:`~repro.core.checkpoint.serialize_payload` or
        :meth:`~repro.core.checkpoint.CheckpointSpec.write`) before
        advancing the loop further.
        """
        if self._stream_base is None:
            raise ValueError("no run in progress: the stream base is unset")

        def _component(obj) -> Dict[str, object]:
            if hasattr(obj, "export_state") and hasattr(obj, "import_state"):
                return {"kind": "state", "state": obj.export_state()}
            return {"kind": "object", "object": obj}

        return {
            "step": int(history.num_steps),
            "num_users": int(self._population.num_users),
            "stream_base": int(self._stream_base),
            "history": history,
            "filter": _component(self._filter),
            "ai_system": _component(self._ai_system),
            "population": _component(self._population),
        }

    def restore_snapshot(
        self, payload: Mapping[str, object]
    ) -> SimulationHistory | AggregateHistory:
        """Restore loop state from an :meth:`export_snapshot` payload.

        Returns the restored history; pass it back to :meth:`run` as
        ``history=`` (with ``rng=None``) and the continuation replays the
        uninterrupted run's schedule exactly.  The loop must be built with
        the same configuration that wrote the snapshot — the checkpoint
        layer's fingerprint guards that contract at the file level, and a
        population-size mismatch is rejected here as a second line of
        defence.
        """
        if int(payload["num_users"]) != self._population.num_users:
            raise CheckpointError(
                f"snapshot was taken with {payload['num_users']} users but this "
                f"loop has {self._population.num_users}; resume with the "
                "configuration that wrote the checkpoint"
            )
        population_payload = payload["population"]
        if population_payload["kind"] == "state":
            self._population.import_state(population_payload["state"])
        else:
            self._population = population_payload["object"]
            self._plan, self._shard_aware = _resolve_population_plan(self._population)
        filter_payload = payload["filter"]
        if filter_payload["kind"] == "state":
            self._filter.import_state(filter_payload["state"])
        else:
            self._filter = filter_payload["object"]
        ai_payload = payload["ai_system"]
        if ai_payload["kind"] == "state":
            self._ai_system.import_state(ai_payload["state"])
        else:
            self._ai_system = ai_payload["object"]
        self._stream_base = int(payload["stream_base"])
        self._shard_seeds = None
        history = payload["history"]
        if history.num_steps != int(payload["step"]):
            raise CheckpointError(
                f"snapshot is inconsistent: history holds {history.num_steps} "
                f"steps but the payload claims {payload['step']}"
            )
        return history

    def _advance(self, k: int, rngs: List[np.random.Generator]):
        """Run one pass through the loop and return its raw pieces.

        ``rngs`` holds one generator per canonical shard; a shard-aware
        population consumes the whole list (advancing each shard on its own
        stream), a legacy population gets the single shard-0 generator.
        Returns ``(public_features, decisions, actions, observation_after)``
        without any defensive copying: the caller hands them to the
        history's columnar ingest, which copies into its own buffers.
        """
        population_rng = rngs if self._shard_aware else rngs[0]
        public_features = self._population.begin_step(k, population_rng)
        observation_before = self._filter.observation()
        decisions = np.asarray(
            self._ai_system.decide(public_features, observation_before, k), dtype=float
        ).ravel()
        if decisions.shape[0] != self._population.num_users:
            raise ValueError(
                "the AI system must return one decision per user "
                f"({decisions.shape[0]} != {self._population.num_users})"
            )
        actions = np.asarray(
            self._population.respond(decisions, k, population_rng), dtype=float
        ).ravel()
        if actions.shape[0] != self._population.num_users:
            raise ValueError("the population must return one action per user")
        if self._retrain:
            self._ai_system.update(
                public_features, decisions, actions, observation_before, k
            )
        observation_after = self._filter.update(decisions, actions, k)
        return public_features, decisions, actions, observation_after
