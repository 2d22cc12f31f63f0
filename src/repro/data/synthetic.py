"""Synthesis of user populations with a prescribed race mix.

The paper generates ``N = 1000`` users whose races are sampled from the 2002
household-count ratio ``[0.1235, 0.8406, 0.0359]``; every trial uses a fresh
batch.  :func:`generate_population` reproduces that step and
:class:`SyntheticPopulation` packages the result together with convenient
per-race index lookups (the paper's ``N_s`` subsets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.data.census import IncomeTable, Race, default_income_table, paper_race_mix
from repro.utils.rng import spawn_generator
from repro.utils.validation import require_probability_vector

__all__ = ["PopulationSpec", "SyntheticPopulation", "generate_population"]


@dataclass(frozen=True)
class PopulationSpec:
    """Specification of a synthetic user population.

    Attributes
    ----------
    size:
        Number of users (the paper's ``N``; default 1000).
    race_mix:
        Sampling probability of each race.  Defaults to the paper's 2002
        household ratio.
    """

    size: int = 1000
    race_mix: Mapping[Race, float] = field(default_factory=paper_race_mix)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be positive")
        require_probability_vector(list(self.race_mix.values()), "race_mix")


@dataclass(frozen=True)
class SyntheticPopulation:
    """A generated population: one race label per user.

    Attributes
    ----------
    races:
        Tuple of :class:`~repro.data.census.Race`, one entry per user.
    codes:
        Optional integer form of ``races``: each user's position in
        ``tuple(Race)``, or ``-1`` for a label matching no race.  Kept by
        :func:`generate_population` so the per-race index sets come from
        integer comparisons rather than one enum comparison per user and
        race.
    """

    races: Tuple[Race, ...]
    codes: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        """Return the number of users."""
        return len(self.races)

    def indices_by_race(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the array of user indices in that group.

        These are the paper's subsets ``N_s``: the user indices whose race is
        ``s``.  Races with no members map to an empty index array.
        """
        if self.codes is not None:
            return {
                race: np.flatnonzero(self.codes == code)
                for code, race in enumerate(Race)
            }
        races_array = np.asarray(self.races, dtype=object)
        return {
            race: np.flatnonzero(races_array == race) for race in Race
        }

    def group_sizes(self) -> Dict[Race, int]:
        """Return the number of users in each race group."""
        return {race: int(indices.size) for race, indices in self.indices_by_race().items()}

    def races_array(self) -> np.ndarray:
        """Return the race labels as a numpy object array."""
        return np.asarray(self.races, dtype=object)


def generate_population(
    spec: PopulationSpec,
    rng: int | np.random.Generator | None = None,
) -> SyntheticPopulation:
    """Generate a population according to ``spec``.

    Each user's race is drawn independently from ``spec.race_mix``; the
    result is deterministic given the generator/seed.
    """
    generator = spawn_generator(rng)
    races = list(spec.race_mix.keys())
    probabilities = np.asarray(list(spec.race_mix.values()), dtype=float)
    probabilities = probabilities / probabilities.sum()
    draws = generator.choice(len(races), size=spec.size, p=probabilities)
    labels = np.empty(len(races), dtype=object)
    labels[:] = races
    # Each mix entry's position in tuple(Race), found with the same ``==``
    # the per-user comparison of indices_by_race would make.
    positions = np.array(
        [
            next((code for code, race in enumerate(Race) if label == race), -1)
            for label in races
        ],
        dtype=np.int8,
    )
    return SyntheticPopulation(races=tuple(labels[draws]), codes=positions[draws])


def default_population_inputs() -> Tuple[PopulationSpec, IncomeTable]:
    """Return the paper's population spec and the default income table."""
    return PopulationSpec(), default_income_table()
