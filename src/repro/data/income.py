"""Sampling household incomes from an :class:`~repro.data.census.IncomeTable`.

The paper's simulation redraws each user's income every year from the
bracket distribution of their race group in that year.  The sampler here
does exactly that: pick a bracket according to its share, then draw the
income uniformly within the bracket (the open-ended top bracket uses the cap
recorded in :data:`~repro.data.census.INCOME_BRACKETS`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.data.census import INCOME_BRACKETS, IncomeTable, Race
from repro.utils.rng import spawn_generator

__all__ = ["IncomeSampler"]

#: Probability-sum tolerance of ``numpy.random.Generator.choice``; the cached
#: bracket validation applies the same check once per (year, race) instead of
#: on every draw.
_PROBABILITY_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


class IncomeSampler:
    """Draws household incomes (in thousands of dollars) by year and race.

    The bracket shares of a ``(year, race)`` pair are fixed for the table's
    lifetime, yet the closed loop redraws incomes for the same pairs on
    every step of every shard (504 lookups per trial in the engine
    profile).  The sampler therefore caches, per pair, the validated share
    vector and its normalised cumulative distribution, and maps uniforms to
    brackets with one ``searchsorted`` — exactly the arithmetic
    ``numpy.random.Generator.choice`` performs internally, so the draws (and
    the generator state afterwards) are bit-identical to the retired
    per-call ``generator.choice(..., p=shares)``, minus its per-call
    validation and cumsum overhead.  Pinned by the engine goldens and a
    direct regression test.
    """

    def __init__(self, table: IncomeTable) -> None:
        self._table = table
        self._lows = np.array([low for low, _ in INCOME_BRACKETS], dtype=float)
        self._highs = np.array([high for _, high in INCOME_BRACKETS], dtype=float)
        self._widths = self._highs - self._lows
        self._cdf_cache: Dict[Tuple[int, Race], np.ndarray] = {}

    @property
    def table(self) -> IncomeTable:
        """Return the underlying income table."""
        return self._table

    def bracket_cdf(self, year: int, race: Race) -> np.ndarray:
        """Return the cached, validated bracket CDF of ``(year, race)``.

        The array is the normalised cumulative sum of the table's bracket
        shares — the exact CDF ``Generator.choice`` builds internally — and
        is validated once (length, non-negativity, finiteness, sum within
        ``choice``'s tolerance of one) when first cached.  Callers must not
        mutate the returned array.
        """
        key = (int(year), race)
        cached = self._cdf_cache.get(key)
        if cached is None:
            shares = np.asarray(
                self._table.bracket_shares(year, race), dtype=float
            )
            if shares.shape != (len(INCOME_BRACKETS),):
                raise ValueError(
                    "bracket shares must have one entry per income bracket"
                )
            if not np.all(np.isfinite(shares)) or np.any(shares < 0):
                raise ValueError("bracket shares must be finite and non-negative")
            total = float(shares.sum())
            if abs(total - 1.0) > _PROBABILITY_ATOL:
                raise ValueError("bracket shares must sum to 1")
            cached = shares.cumsum()
            cached /= cached[-1]
            self._cdf_cache[key] = cached
        return cached

    def brackets_from_uniforms(
        self, year: int, race: Race, uniforms: np.ndarray
    ) -> np.ndarray:
        """Map uniform draws to bracket indices via the cached CDF.

        This is the deterministic half of a bracket draw: feeding it the
        generator's ``random(size)`` output reproduces
        ``generator.choice(len(INCOME_BRACKETS), size=size, p=shares)`` bit
        for bit.  ``searchsorted(cdf, u, side="right")`` — what ``choice``
        computes — equals the number of CDF entries minus the count of
        entries ``> u`` (ties go right on both routes), so large blocks
        take nine branchless comparison passes instead of per-element
        binary searches with data-dependent branches (~2.7x on the
        trial-batched engine's pooled per-race blocks); small blocks keep
        ``searchsorted``, whose fixed cost is lower.  Both routes return
        identical indices for every input, so the cutover is purely a speed
        choice: a NaN compares false with every entry and, as
        ``searchsorted`` sorts it last, lands past the last bracket on both
        (so :meth:`incomes_from_uniforms` raises ``IndexError`` for it).
        """
        cdf = self.bracket_cdf(year, race)
        if uniforms.size < 4096:
            return cdf.searchsorted(uniforms, side="right").astype(np.int64)
        indices = np.full(uniforms.shape, cdf.size, dtype=np.int64)
        for boundary in cdf:
            indices -= uniforms < boundary
        return indices

    def incomes_from_uniforms(
        self,
        year: int,
        race: Race,
        bracket_uniforms: np.ndarray,
        width_uniforms: np.ndarray,
    ) -> np.ndarray:
        """Return incomes from pre-drawn bracket and in-bracket uniforms.

        Equivalent, bit for bit, to :meth:`sample` fed a generator whose
        next ``2 * size`` doubles are ``bracket_uniforms`` followed by
        ``width_uniforms`` — the decomposition the trial-batched engine
        relies on to draw a whole shard-step block in one generator call.
        """
        brackets = self.brackets_from_uniforms(year, race, bracket_uniforms)
        # lows[b] + u * widths[b] with widths precomputed: bit-identical to
        # the retired lows[b] + u * (highs[b] - lows[b]) — the subtraction
        # commutes with the indexing.
        return self._lows[brackets] + width_uniforms * self._widths[brackets]

    def sample(
        self,
        year: int,
        race: Race,
        size: int,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Sample ``size`` incomes for ``race`` in ``year``.

        Returns an array of incomes in thousands of dollars, each drawn by
        selecting a bracket with the table's probabilities and then sampling
        uniformly inside the bracket.  The draws consume exactly ``2 *
        size`` doubles from the generator (bracket uniforms, then in-bracket
        uniforms), matching the retired ``generator.choice`` call's stream
        consumption.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        generator = spawn_generator(rng)
        bracket_uniforms = generator.random(size)
        width_uniforms = generator.random(size)
        return self.incomes_from_uniforms(
            year, race, bracket_uniforms, width_uniforms
        )

    def sample_population(
        self,
        year: int,
        races: Sequence[Race],
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Sample one income per user, given each user's race.

        ``races`` is the per-user race assignment of a population; the result
        is an array of the same length with that user's income for ``year``.
        Callers that draw repeatedly for a fixed population should compute
        the index arrays once (e.g. via
        :meth:`repro.data.synthetic.SyntheticPopulation.indices_by_race`)
        and use :meth:`sample_population_indexed` instead.
        """
        races_array = np.asarray(races, dtype=object)
        race_indices = {
            race: np.flatnonzero(races_array == race) for race in self._table.races
        }
        return self.sample_population_indexed(
            year, race_indices, races_array.size, rng
        )

    def sample_population_indexed(
        self,
        year: int,
        race_indices: Mapping[Race, np.ndarray],
        num_users: int,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Sample one income per user from precomputed per-race index arrays.

        ``race_indices`` maps each race to the (sorted) user indices of that
        group — the partition is fixed for a population's lifetime, so
        computing it once and passing it here avoids rebuilding object-dtype
        race arrays and boolean masks on every step.  The draws consume the
        generator exactly as :meth:`sample_population` does (race groups in
        table order), so both paths produce bit-identical incomes.
        """
        generator = spawn_generator(rng)
        incomes = np.empty(num_users, dtype=float)
        for race in self._table.races:
            indices = race_indices.get(race)
            if indices is not None and indices.size:
                incomes[indices] = self.sample(year, race, int(indices.size), generator)
        return incomes

    def expected_income(self, year: int, race: Race) -> float:
        """Return the expected income (bracket-midpoint approximation)."""
        shares = self._table.bracket_shares(year, race)
        midpoints = (self._lows + self._highs) / 2.0
        return float(np.dot(shares, midpoints))
