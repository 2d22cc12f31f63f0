"""User populations: the stochastic response side of the closed loop.

A population exposes two hooks per time step.  ``begin_step`` lets the users
reveal whatever public (non-protected) features the AI system is allowed to
see before deciding — in the credit case study the yearly income, of which
the lender only uses the income code.  ``respond`` then consumes the AI
system's decisions and produces the users' stochastic actions ``y_i(k)``.

Both hooks accept either a single :class:`numpy.random.Generator` (the
legacy whole-population stream, kept for direct callers and benchmarks) or
a *sequence* of generators — one per canonical user shard of the
population's :class:`~repro.core.sharding.ShardPlan`.  The sharded form is
what :class:`~repro.core.loop.ClosedLoop` drives: each shard's draws come
from its own derived stream
(:func:`~repro.utils.rng.shard_step_generator`), so the trajectory is
independent of how the shards are grouped for execution: the lockstep
kernel's threads, each drawing a run of whole shards, reproduce exactly the
draws the closed loop makes here.

Two populations are provided: :class:`CreditPopulation`, the paper's
mortgage borrowers (income redrawn yearly from the census-like table,
repayment from the Gaussian conditional-independence model), and
:class:`IFSPopulation`, a population of signal-dependent iterated function
systems matching the abstract user model of Section VI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.sharding import ShardPlan
from repro.credit.borrower import affordability_state
from repro.credit.mortgage import MortgageTerms
from repro.credit.repayment import GaussianRepaymentModel
from repro.data.census import IncomeTable, Race, default_income_table
from repro.data.income import IncomeSampler
from repro.data.synthetic import SyntheticPopulation
from repro.markov.ifs import SignalDependentIFS
from repro.utils.rng import spawn_generator

__all__ = [
    "PopulationPublicFeatures",
    "Population",
    "CreditPopulation",
    "IFSPopulation",
]


#: Public features revealed at the start of a step: a mapping from feature
#: name to a per-user array (e.g. ``{"income": incomes}``).
PopulationPublicFeatures = Dict[str, np.ndarray]

#: Either one generator for the whole population (legacy stream) or one
#: generator per canonical shard of the population's plan.
ShardedRng = "np.random.Generator | Sequence[np.random.Generator]"


def _per_shard_generators(
    rng, plan: ShardPlan
) -> List[np.random.Generator] | None:
    """Return the per-shard generator list, or ``None`` for the legacy form."""
    if isinstance(rng, np.random.Generator) or rng is None or np.isscalar(rng):
        return None
    rngs = list(rng)
    if len(rngs) != plan.num_shards:
        raise ValueError(
            "expected one generator per canonical shard "
            f"({plan.num_shards}), got {len(rngs)}"
        )
    return rngs


@runtime_checkable
class Population(Protocol):
    """Protocol for the population box of the closed loop."""

    @property
    def num_users(self) -> int:
        """Return the number of users in the population."""
        ...  # pragma: no cover - protocol

    def begin_step(
        self, k: int, rng: np.random.Generator
    ) -> PopulationPublicFeatures:
        """Reveal the public features for step ``k`` (may be empty)."""
        ...  # pragma: no cover - protocol

    def respond(
        self, decisions: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return the users' actions in response to ``decisions``."""
        ...  # pragma: no cover - protocol


class CreditPopulation:
    """The paper's population of mortgage borrowers.

    Each step (year) every user's income is redrawn from the census-like
    table for their race; the income is revealed as a public feature, the
    affordability state of equation (10) is computed privately, and the
    repayment action follows the Gaussian conditional-independence model of
    equation (11).

    The population is *sharded*: it owns a canonical
    :class:`~repro.core.sharding.ShardPlan` and draws incomes and
    repayments shard by shard when given per-shard generators.

    Parameters
    ----------
    population:
        The synthetic population (race per user).
    income_table:
        Income distributions by year and race (defaults to the embedded
        table).
    terms:
        Mortgage terms (defaults to the paper's).
    repayment_model:
        The repayment model (defaults to the paper's sensitivity of 5).
    start_year:
        Calendar year corresponding to step ``k = 0`` (paper: 2002).
    """

    def __init__(
        self,
        population: SyntheticPopulation,
        income_table: IncomeTable | None = None,
        terms: MortgageTerms | None = None,
        repayment_model: GaussianRepaymentModel | None = None,
        start_year: int = 2002,
    ) -> None:
        self._population = population
        self._sampler = IncomeSampler(income_table or default_income_table())
        self._terms = terms or MortgageTerms()
        self._repayment_model = repayment_model or GaussianRepaymentModel()
        self._start_year = start_year
        self._current_incomes: np.ndarray | None = None
        self._current_affordability: np.ndarray | None = None
        # The race partition is fixed for the population's lifetime, so the
        # per-race index arrays (the paper's N_s) are computed once here and
        # reused by every step's income draw instead of rebuilding an
        # object-dtype race array and boolean masks per step.
        self._race_indices = population.indices_by_race()
        self._plan = ShardPlan.canonical(population.size)
        # Per-shard race partitions, re-based to each shard's local indices:
        # shard s's income draw is then a self-contained sample over its own
        # contiguous user range, which the lockstep kernel replays shard by
        # shard (see shard_race_partition).
        self._shard_race_indices: List[Dict[Race, np.ndarray]] = []
        for lo, hi in self._plan.bounds:
            local: Dict[Race, np.ndarray] = {}
            for race, indices in self._race_indices.items():
                start, stop = np.searchsorted(indices, (lo, hi))
                local[race] = indices[start:stop] - lo
            self._shard_race_indices.append(local)

    @property
    def num_users(self) -> int:
        """Return the number of users."""
        return self._population.size

    @property
    def shard_plan(self) -> ShardPlan:
        """Return the canonical shard partition of this population."""
        return self._plan

    @property
    def races(self) -> np.ndarray:
        """Return the per-user race labels (protected attribute)."""
        return self._population.races_array()

    @property
    def groups(self) -> Dict[Race, np.ndarray]:
        """Return the per-race index sets ``N_s`` (precomputed once).

        The arrays are copies: the cached partition also drives every step's
        income draw, so callers may freely mutate what they get back.
        """
        return {race: indices.copy() for race, indices in self._race_indices.items()}

    @property
    def terms(self) -> MortgageTerms:
        """Return the mortgage terms."""
        return self._terms

    @property
    def sampler(self) -> IncomeSampler:
        """Return the income sampler (and its per-(year, race) CDF cache).

        The trial-batched engine draws incomes itself (it replays the
        sharded draw order over stacked trials) and reads the sampler
        here rather than building another one per run.
        """
        return self._sampler

    def shard_race_partition(self) -> List[Dict[Race, np.ndarray]]:
        """Return, per canonical shard, the shard-local race index arrays.

        Entry ``s`` maps each race to the indices of its members *within*
        shard ``s`` (re-based to the shard's ``lo``), in the exact layout
        the sharded income draw consumes.  The trial-batched engine reads
        this to replay every shard's draw order without driving
        ``begin_step``.  The arrays are the population's own precomputed
        partition — callers must not mutate them.
        """
        return self._shard_race_indices

    @property
    def current_affordability(self) -> np.ndarray:
        """Return the private states ``x_i(k)`` of the current step."""
        if self._current_affordability is None:
            raise RuntimeError("begin_step must be called before reading states")
        return self._current_affordability.copy()

    def year_of_step(self, k: int) -> int:
        """Return the calendar year corresponding to step ``k``."""
        return self._start_year + k

    def export_shard_state(self) -> Dict[str, object]:
        """Return the mutable per-user state of the current step."""
        return {
            "incomes": None
            if self._current_incomes is None
            else self._current_incomes.copy(),
            "affordability": None
            if self._current_affordability is None
            else self._current_affordability.copy(),
        }

    def import_shard_state(self, lo: int, state: Dict[str, object]) -> None:
        """Write a shard's exported state back into users ``[lo, ...)``."""
        incomes = state.get("incomes")
        affordability = state.get("affordability")
        if incomes is None or affordability is None:
            return
        incomes = np.asarray(incomes, dtype=float)
        affordability = np.asarray(affordability, dtype=float)
        if self._current_incomes is None:
            self._current_incomes = np.empty(self.num_users, dtype=float)
            self._current_affordability = np.empty(self.num_users, dtype=float)
        self._current_incomes[lo : lo + incomes.size] = incomes
        self._current_affordability[lo : lo + affordability.size] = affordability

    def begin_step(self, k: int, rng) -> PopulationPublicFeatures:
        """Redraw incomes for step ``k`` and reveal them as public features.

        ``rng`` is either one generator (legacy whole-population draw) or a
        sequence with one generator per canonical shard, in which case each
        shard's incomes are drawn from its own stream.
        """
        year = self.year_of_step(k)
        shard_rngs = _per_shard_generators(rng, self._plan)
        if shard_rngs is None:
            generator = spawn_generator(rng)
            incomes = self._sampler.sample_population_indexed(
                year, self._race_indices, self.num_users, generator
            )
        else:
            incomes = np.empty(self.num_users, dtype=float)
            for (lo, hi), local_indices, generator in zip(
                self._plan.bounds, self._shard_race_indices, shard_rngs
            ):
                incomes[lo:hi] = self._sampler.sample_population_indexed(
                    year, local_indices, hi - lo, generator
                )
        self._current_incomes = incomes
        self._current_affordability = affordability_state(incomes, self._terms)
        return {"income": incomes.copy()}

    def respond(self, decisions: np.ndarray, k: int, rng) -> np.ndarray:
        """Sample the repayment actions ``y_i(k)`` for the given decisions.

        Accepts the same single-generator or per-shard-generator forms as
        :meth:`begin_step`; the per-shard form continues each shard's
        stream where ``begin_step`` left it.
        """
        if self._current_affordability is None:
            raise RuntimeError("begin_step must be called before respond")
        shard_rngs = _per_shard_generators(rng, self._plan)
        if shard_rngs is None:
            generator = spawn_generator(rng)
            return self._repayment_model.sample_repayments(
                self._current_affordability, decisions, generator
            ).astype(float)
        decisions_array = np.asarray(decisions, dtype=float).ravel()
        actions = np.empty(self.num_users, dtype=float)
        for (lo, hi), generator in zip(self._plan.bounds, shard_rngs):
            actions[lo:hi] = self._repayment_model.sample_repayments(
                self._current_affordability[lo:hi],
                decisions_array[lo:hi],
                generator,
            ).astype(float)
        return actions


@dataclass
class IFSPopulation:
    """A population of users, each modelled as a signal-dependent IFS.

    This is the abstract user model of Section VI: user ``i`` has
    state-transition maps and output maps whose selection probabilities
    depend on the broadcast signal (here, the user's decision entry).

    ``respond`` vectorizes whenever the users' private states share one
    shape and the population contains *structural sharing*: users are
    grouped by :meth:`~repro.markov.ifs.SignalDependentIFS.structural_key`
    (identical probability callables, structurally equal maps), the step's
    ``(users, 2)`` uniforms are drawn up front in user order — the exact
    sequence the per-user reference loop consumes — and each group advances
    through one :meth:`~repro.markov.ifs.SignalDependentIFS.step_batch`
    call on its rows.  A fully homogeneous population (``users=[shared] *
    n``) is the single-group special case; a population with no structural
    sharing at all falls back to the per-user loop.  Every path is
    bit-identical on the same generator.

    Attributes
    ----------
    users:
        One :class:`~repro.markov.ifs.SignalDependentIFS` per user.
    initial_states:
        Initial private state of each user.
    vectorize:
        Allow the batched path.  Set to ``False`` to force the per-user
        reference loop (used by the equivalence tests and benchmarks).
    shard_plan:
        The canonical shard partition of the users (derived, not passed).
    """

    users: Sequence[SignalDependentIFS]
    initial_states: Sequence[np.ndarray]
    vectorize: bool = True
    shard_plan: ShardPlan = field(init=False)
    # Exactly one of the two state stores is active: a (users, dim) matrix on
    # the batched path, a list of per-user vectors on the fallback path.
    _states: list | None = field(init=False, repr=False)
    _state_matrix: np.ndarray | None = field(init=False, repr=False)
    # Structural groups of the batched path: (representative, global rows).
    _batch_groups: list | None = field(init=False, repr=False)
    # Per canonical shard: [(representative, rows local to the shard)].
    _shard_batch_groups: list | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.users) == 0:
            raise ValueError("the population must contain at least one user")
        if len(self.users) != len(self.initial_states):
            raise ValueError("initial_states must have one entry per user")
        states = [
            np.atleast_1d(np.asarray(state, dtype=float)).copy()
            for state in self.initial_states
        ]
        self.shard_plan = ShardPlan.canonical(len(self.users))
        self._batch_groups = self._structural_groups(states)
        if self._batch_groups is not None:
            self._state_matrix = np.stack(states)
            self._states = None
            self._shard_batch_groups = [
                self._localized_groups(lo, hi) for lo, hi in self.shard_plan.bounds
            ]
        else:
            self._state_matrix = None
            self._states = states
            self._shard_batch_groups = None

    def _structural_groups(self, states: list) -> list | None:
        """Group users by structural key, or ``None`` for the per-user path."""
        if not self.vectorize:
            return None
        if any(state.shape != states[0].shape for state in states):
            return None
        shared = self.users[0]
        if all(user is shared for user in self.users):
            if not hasattr(shared, "step_batch"):
                return None
            return [(shared, np.arange(len(self.users)))]
        groups: Dict[tuple, list] = {}
        representatives: Dict[tuple, SignalDependentIFS] = {}
        for index, user in enumerate(self.users):
            key_hook = getattr(user, "structural_key", None)
            key = key_hook() if key_hook is not None else ("identity", id(user))
            groups.setdefault(key, []).append(index)
            representatives.setdefault(key, user)
        if len(groups) == len(self.users):
            # No structural sharing: batching would degenerate to one-row
            # batches, slower than the plain loop.
            return None
        if any(
            not hasattr(representative, "step_batch")
            for representative in representatives.values()
        ):
            return None
        return [
            (representatives[key], np.asarray(indices, dtype=np.intp))
            for key, indices in groups.items()
        ]

    def _localized_groups(self, lo: int, hi: int) -> list:
        """Restrict the structural groups to shard ``[lo, hi)``, re-based."""
        localized = []
        for representative, rows in self._batch_groups:
            start, stop = np.searchsorted(rows, (lo, hi))
            if stop > start:
                localized.append((representative, rows[start:stop] - lo))
        return localized

    @property
    def num_users(self) -> int:
        """Return the number of users."""
        return len(self.users)

    @property
    def states(self) -> list:
        """Return a copy of the users' current private states."""
        if self._state_matrix is not None:
            return [row.copy() for row in self._state_matrix]
        return [state.copy() for state in self._states]

    def export_shard_state(self) -> Dict[str, object]:
        """Return the users' current private states."""
        return {"states": self.states}

    def import_shard_state(self, lo: int, state: Dict[str, object]) -> None:
        """Write a shard's exported states back into users ``[lo, ...)``."""
        states = state["states"]
        for offset, user_state in enumerate(states):
            vector = np.atleast_1d(np.asarray(user_state, dtype=float))
            if self._state_matrix is not None:
                self._state_matrix[lo + offset] = vector
            else:
                self._states[lo + offset] = vector.copy()

    def begin_step(self, k: int, rng) -> PopulationPublicFeatures:
        """IFS users reveal no public features."""
        return {}

    def respond(self, decisions: np.ndarray, k: int, rng) -> np.ndarray:
        """Advance every user one IFS step under their decision entry.

        ``decisions`` may be a scalar broadcast signal or a per-user array;
        each user's action is the (scalar) output of their output map.
        ``rng`` is one generator (legacy whole-population stream) or one
        generator per canonical shard.
        """
        signal_array = np.broadcast_to(
            np.asarray(decisions, dtype=float).ravel()
            if np.ndim(decisions) > 0
            else np.asarray([decisions], dtype=float),
            (self.num_users,),
        )
        shard_rngs = _per_shard_generators(rng, self.shard_plan)
        actions = np.empty(self.num_users, dtype=float)
        if shard_rngs is None:
            self._respond_range(
                0,
                self.num_users,
                signal_array,
                spawn_generator(rng),
                self._batch_groups,
                actions,
            )
        else:
            for index, ((lo, hi), generator) in enumerate(
                zip(self.shard_plan.bounds, shard_rngs)
            ):
                groups = (
                    self._shard_batch_groups[index]
                    if self._shard_batch_groups is not None
                    else None
                )
                self._respond_range(
                    lo, hi, signal_array[lo:hi], generator, groups, actions
                )
        return actions

    def _respond_range(
        self,
        lo: int,
        hi: int,
        signals: np.ndarray,
        generator: np.random.Generator,
        groups: list | None,
        actions: np.ndarray,
    ) -> None:
        """Advance users ``[lo, hi)`` with ``generator``, writing actions."""
        count = hi - lo
        if groups is not None:
            uniforms = generator.random((count, 2))
            if len(groups) == 1 and groups[0][1].size == count:
                representative = groups[0][0]
                next_states, range_actions = representative.step_batch(
                    self._state_matrix[lo:hi], signals, uniforms=uniforms
                )
                self._state_matrix[lo:hi] = next_states
                actions[lo:hi] = range_actions
                return
            for representative, rows in groups:
                next_states, group_actions = representative.step_batch(
                    self._state_matrix[lo + rows],
                    signals[rows],
                    uniforms=uniforms[rows],
                )
                self._state_matrix[lo + rows] = next_states
                actions[lo + rows] = group_actions
            return
        for offset in range(count):
            index = lo + offset
            next_state, action = self.users[index].step(
                self._states[index], float(signals[offset]), generator
            )
            self._states[index] = next_state
            actions[index] = float(np.atleast_1d(action)[0])
