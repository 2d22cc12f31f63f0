"""Synthetic stand-in for CPS Table A-2: household income by race and year.

The paper samples each user's annual income from the empirical income-bracket
distribution of their race group in the corresponding year (2002-2020).  We
cannot embed the Census micro-data, so this module *generates* a bracket
table with the qualitative features the paper relies on:

* the nine CPS brackets (under $15K up to over $200K);
* "BLACK ALONE" households concentrated in the lower brackets (most below
  $75K), "WHITE ALONE" in the middle, and "ASIAN ALONE" with a heavy upper
  tail (close to 20% above $200K by 2020);
* slow income growth from 2002 to 2020 for every group;
* household counts whose 2002 ratio reproduces the paper's race mix
  ``[0.1235, 0.8406, 0.0359]``.

The table is produced deterministically (no randomness) by discretising a
per-race log-normal income model onto the brackets, so tests and experiments
always see the same distribution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.utils.validation import require_probability_vector

__all__ = [
    "Race",
    "INCOME_BRACKETS",
    "BracketDistribution",
    "IncomeTable",
    "default_income_table",
    "paper_race_mix",
]


class Race(str, Enum):
    """The three race groups of the paper's case study."""

    BLACK = "BLACK ALONE"
    WHITE = "WHITE ALONE"
    ASIAN = "ASIAN ALONE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The nine CPS income brackets, as (low, high) bounds in thousands of
#: dollars.  The final bracket is open-ended; its ``high`` bound is the cap
#: used when sampling incomes uniformly within a bracket.
INCOME_BRACKETS: Tuple[Tuple[float, float], ...] = (
    (0.0, 15.0),
    (15.0, 25.0),
    (25.0, 35.0),
    (35.0, 50.0),
    (50.0, 75.0),
    (75.0, 100.0),
    (100.0, 150.0),
    (150.0, 200.0),
    (200.0, 350.0),
)

#: Human-readable labels matching the x axis of Figure 2 in the paper.
BRACKET_LABELS: Tuple[str, ...] = (
    "under 15",
    "15-25",
    "25-35",
    "35-50",
    "50-75",
    "75-100",
    "100-150",
    "150-200",
    "over 200",
)

_FIRST_YEAR = 2002
_LAST_YEAR = 2020

# Log-normal income model per race: (median income in $K in 2002,
# annual median growth rate, sigma of log income).  The parameters are
# chosen so the derived 2020 bracket shares match the qualitative reading of
# the paper's Figure 2: Black households mostly below $75K, Asian households
# with ~20% above $200K, White households in between.
_INCOME_MODEL: Mapping[Race, Tuple[float, float, float]] = {
    Race.BLACK: (34.0, 0.010, 0.78),
    Race.WHITE: (55.0, 0.011, 0.80),
    Race.ASIAN: (78.0, 0.016, 0.85),
}

# Household counts (thousands) in 2002 per race, chosen so their ratio equals
# the paper's sampling distribution [0.1235, 0.8406, 0.0359], and the annual
# growth rates of the counts.
_HOUSEHOLD_MODEL: Mapping[Race, Tuple[float, float]] = {
    Race.BLACK: (13_778.0, 0.013),
    Race.WHITE: (93_771.0, 0.006),
    Race.ASIAN: (4_005.0, 0.030),
}


@dataclass(frozen=True)
class BracketDistribution:
    """Income-bracket shares for one race group in one year.

    Attributes
    ----------
    year:
        Calendar year the distribution describes.
    race:
        Race group the distribution describes.
    shares:
        Probability of each of the nine :data:`INCOME_BRACKETS`.
    households:
        Number of households (in thousands) in the group that year.
    """

    year: int
    race: Race
    shares: Tuple[float, ...]
    households: float

    def as_array(self) -> np.ndarray:
        """Return the bracket shares as a numpy probability vector."""
        return np.asarray(self.shares, dtype=float)

    def median_bracket(self) -> int:
        """Return the index of the bracket containing the median household."""
        cumulative = np.cumsum(self.as_array())
        return int(np.searchsorted(cumulative, 0.5))

    def share_above(self, threshold: float) -> float:
        """Return the share of households whose bracket lies above ``threshold``.

        ``threshold`` is in thousands of dollars and must coincide with a
        bracket boundary (e.g. ``200.0`` for "over $200K").
        """
        share = 0.0
        for (low, _high), probability in zip(INCOME_BRACKETS, self.shares):
            if low >= threshold:
                share += probability
        return share


class IncomeTable:
    """Bracket-level household income distributions by year and race.

    This is the synthetic counterpart of CPS Table A-2.  It exposes, for
    every ``(year, race)`` pair in its range, the probability of each income
    bracket and the household count, which is everything the paper's
    simulation consumes.
    """

    def __init__(
        self,
        distributions: Mapping[Tuple[int, Race], BracketDistribution],
    ) -> None:
        if not distributions:
            raise ValueError("distributions must not be empty")
        self._distributions: Dict[Tuple[int, Race], BracketDistribution] = dict(
            distributions
        )
        self._years = tuple(sorted({year for year, _ in self._distributions}))
        self._races = tuple(
            sorted({race for _, race in self._distributions}, key=lambda r: r.value)
        )
        for year in self._years:
            for race in self._races:
                if (year, race) not in self._distributions:
                    raise ValueError(
                        f"table is missing the ({year}, {race.value}) distribution"
                    )

    @property
    def years(self) -> Tuple[int, ...]:
        """Return the calendar years covered by the table, ascending."""
        return self._years

    @property
    def races(self) -> Tuple[Race, ...]:
        """Return the race groups covered by the table."""
        return self._races

    def distribution(self, year: int, race: Race) -> BracketDistribution:
        """Return the bracket distribution of ``race`` in ``year``.

        Years outside the covered range are clamped to the nearest covered
        year, mirroring how the paper keeps using the last available census
        year when a simulation runs past the data.
        """
        clamped = min(max(year, self._years[0]), self._years[-1])
        return self._distributions[(clamped, race)]

    def bracket_shares(self, year: int, race: Race) -> np.ndarray:
        """Return the probability vector over :data:`INCOME_BRACKETS`."""
        return self.distribution(year, race).as_array()

    def households(self, year: int, race: Race) -> float:
        """Return the household count (thousands) for ``race`` in ``year``."""
        return self.distribution(year, race).households

    def race_mix(self, year: int) -> np.ndarray:
        """Return the share of households per race in ``year``.

        The order of entries follows :attr:`races`.  In 2002 the default
        table reproduces the paper's sampling distribution
        ``[0.1235, 0.8406, 0.0359]`` (Black, White, Asian).
        """
        counts = np.array(
            [self.households(year, race) for race in self._races], dtype=float
        )
        return counts / counts.sum()


def _discretise_lognormal(median: float, sigma: float) -> np.ndarray:
    """Discretise a log-normal income law onto :data:`INCOME_BRACKETS`."""
    mu = math.log(median)
    shares = []
    for index, (low, high) in enumerate(INCOME_BRACKETS):
        lower_cdf = _lognormal_cdf(low, mu, sigma)
        if index == len(INCOME_BRACKETS) - 1:
            upper_cdf = 1.0
        else:
            upper_cdf = _lognormal_cdf(high, mu, sigma)
        shares.append(max(upper_cdf - lower_cdf, 0.0))
    array = np.asarray(shares, dtype=float)
    return array / array.sum()


def _lognormal_cdf(value: float, mu: float, sigma: float) -> float:
    """Return the log-normal CDF at ``value`` (zero for non-positive inputs)."""
    if value <= 0:
        return 0.0
    z = (math.log(value) - mu) / (sigma * math.sqrt(2.0))
    return 0.5 * (1.0 + math.erf(z))


def default_income_table(
    first_year: int = _FIRST_YEAR, last_year: int = _LAST_YEAR
) -> IncomeTable:
    """Build the embedded synthetic income table.

    Parameters
    ----------
    first_year, last_year:
        Calendar range to cover (defaults to the paper's 2002-2020).

    Returns
    -------
    IncomeTable
        Deterministic table with one :class:`BracketDistribution` per
        ``(year, race)`` pair.  The table is immutable, so each year range
        is built once per process and every call returns that one table.
    """
    if last_year < first_year:
        raise ValueError("last_year must not precede first_year")
    return _income_table(int(first_year), int(last_year))


@functools.lru_cache(maxsize=None)
def _income_table(first_year: int, last_year: int) -> IncomeTable:
    """Build the embedded table of one year range (:func:`default_income_table`)."""
    distributions: Dict[Tuple[int, Race], BracketDistribution] = {}
    for year in range(first_year, last_year + 1):
        elapsed = year - _FIRST_YEAR
        for race in Race:
            median_2002, growth, sigma = _INCOME_MODEL[race]
            median = median_2002 * (1.0 + growth) ** elapsed
            shares = _discretise_lognormal(median, sigma)
            households_2002, household_growth = _HOUSEHOLD_MODEL[race]
            households = households_2002 * (1.0 + household_growth) ** elapsed
            distributions[(year, race)] = BracketDistribution(
                year=year,
                race=race,
                shares=tuple(require_probability_vector(shares, "shares")),
                households=households,
            )
    return IncomeTable(distributions)


def paper_race_mix() -> Dict[Race, float]:
    """Return the paper's 2002 race sampling distribution.

    The paper generates each user's race from the categorical distribution
    ``[0.1235, 0.8406, 0.0359]`` over (Black, White, Asian); this helper
    exposes those constants by name.
    """
    return {Race.BLACK: 0.1235, Race.WHITE: 0.8406, Race.ASIAN: 0.0359}
