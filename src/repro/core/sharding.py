"""Shard plans: the canonical partition of a population's users.

One trial of the closed loop is a serial walk over time steps, but within a
step every stochastic population quantity (incomes, repayments, IFS moves)
is independent across users.  The engine exploits that by partitioning the
users of a population into contiguous *shards* and giving each shard its
own derived random stream (:func:`repro.utils.rng.shard_step_generator`).

The partition is **canonical**: a population of ``n`` users is always split
into ``min(NUM_CANONICAL_SHARDS, n)`` contiguous ranges, regardless of how
many threads later execute them.  The random schedule is therefore a
function of ``(base seed, shard index, step)`` alone, so

* running the shards serially on the closed loop,
* running them on the lockstep kernel's threads (each thread steps a
  contiguous run of canonical shards, see :meth:`ShardPlan.worker_ranges`
  and :mod:`repro.experiments.batch`), and
* resuming a chunked or checkpointed run

all produce bit-identical trajectories.  The canonical shard count is part
of the engine's pinned random stream (like the seed derivation labels):
changing :data:`NUM_CANONICAL_SHARDS` changes every simulated trajectory
and requires re-goldening the equivalence suites.

:class:`ShardPlan` is the value object describing the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = [
    "NUM_CANONICAL_SHARDS",
    "ShardPlan",
    "max_worker_shards",
]

#: Canonical number of user shards per population.  Part of the pinned
#: random stream: every population is partitioned into this many contiguous
#: ranges (capped by the population size) and shard ``s`` draws from the
#: stream ``derive_seed(base, "shard", s)`` independent of the worker count.
NUM_CANONICAL_SHARDS = 8


@dataclass(frozen=True)
class ShardPlan:
    """A contiguous, covering, ordered partition of ``num_users`` users.

    Attributes
    ----------
    num_users:
        Number of users partitioned.
    bounds:
        Tuple of ``(lo, hi)`` half-open user ranges, ascending and exactly
        covering ``[0, num_users)``.
    """

    num_users: int
    bounds: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_users <= 0:
            raise ValueError("num_users must be positive")
        if not self.bounds:
            raise ValueError("a shard plan needs at least one shard")
        cursor = 0
        for lo, hi in self.bounds:
            if lo != cursor:
                raise ValueError(
                    f"shard bounds must be contiguous: expected start {cursor}, got {lo}"
                )
            if hi <= lo:
                raise ValueError("every shard must contain at least one user")
            cursor = hi
        if cursor != self.num_users:
            raise ValueError(
                f"shard bounds must cover [0, {self.num_users}); they end at {cursor}"
            )

    @classmethod
    def canonical(cls, num_users: int) -> "ShardPlan":
        """Return the canonical plan: ``min(NUM_CANONICAL_SHARDS, n)`` ranges.

        The split follows :func:`numpy.array_split` sizing (the first
        ``n % shards`` ranges get one extra user), so the partition is a
        pure function of ``num_users``.
        """
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        return cls.with_shards(num_users, min(NUM_CANONICAL_SHARDS, num_users))

    @classmethod
    def with_shards(cls, num_users: int, num_shards: int) -> "ShardPlan":
        """Return a plan with exactly ``num_shards`` contiguous ranges."""
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if not 1 <= num_shards <= num_users:
            raise ValueError(
                f"num_shards must lie in [1, {num_users}], got {num_shards}"
            )
        # array_split semantics: spread the remainder over the leading shards.
        base, extra = divmod(num_users, num_shards)
        sizes = [base + 1 if index < extra else base for index in range(num_shards)]
        edges = np.concatenate([[0], np.cumsum(sizes)])
        return cls(
            num_users=num_users,
            bounds=tuple(
                (int(edges[index]), int(edges[index + 1]))
                for index in range(num_shards)
            ),
        )

    @classmethod
    def single(cls, num_users: int) -> "ShardPlan":
        """Return the degenerate one-shard plan (legacy populations)."""
        return cls(num_users=num_users, bounds=((0, num_users),))

    @property
    def num_shards(self) -> int:
        """Return the number of shards in the plan."""
        return len(self.bounds)

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Return the number of users in each shard."""
        return tuple(hi - lo for lo, hi in self.bounds)

    def slices(self) -> List[slice]:
        """Return one :class:`slice` per shard, in shard order."""
        return [slice(lo, hi) for lo, hi in self.bounds]

    def worker_ranges(self, num_workers: int) -> List[Tuple[int, int]]:
        """Assign canonical shards to ``num_workers`` contiguous groups.

        Returns ``(shard_start, shard_stop)`` half-open *shard-index* ranges,
        one per worker (a lockstep-kernel thread), following
        :func:`numpy.array_split` sizing.  Workers beyond the shard count
        are dropped (``min(num_workers, num_shards)`` groups are returned),
        so asking for more workers than shards degrades gracefully instead
        of creating idle workers.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        count = min(num_workers, self.num_shards)
        base, extra = divmod(self.num_shards, count)
        ranges: List[Tuple[int, int]] = []
        cursor = 0
        for index in range(count):
            size = base + 1 if index < extra else base
            ranges.append((cursor, cursor + size))
            cursor += size
        return ranges

    def user_range(self, shard_start: int, shard_stop: int) -> Tuple[int, int]:
        """Return the global user range covered by a shard-index range."""
        if not 0 <= shard_start < shard_stop <= self.num_shards:
            raise ValueError("invalid shard range")
        return self.bounds[shard_start][0], self.bounds[shard_stop - 1][1]


def max_worker_shards(num_users: int) -> int:
    """Return the most workers a population of ``num_users`` can split over.

    The canonical partition caps useful parallelism at
    :data:`NUM_CANONICAL_SHARDS` (extra workers would own no shards — see
    :meth:`ShardPlan.worker_ranges`) and at one user per shard.  The
    execution planner consults this ceiling instead of re-deriving it.
    """
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    return min(NUM_CANONICAL_SHARDS, num_users)
