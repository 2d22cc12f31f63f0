"""Deterministic random-number management.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  The helpers here give one canonical way to
turn seeds into generators and to derive independent child seeds from a
parent seed plus a sequence of labels (for example ``("trial", 3)``), so that
experiments are reproducible and trials are statistically independent.

Step streams
------------

The engines draw every ``(trial, shard, step)`` from its own stream,
``Generator(PCG64(seed))`` of a derived seed
(:func:`shard_step_generator`).  Building a generator hashes the seed
through numpy's :class:`~numpy.random.SeedSequence` and then seeds PCG64's
128-bit state, about 11 us a stream on a 2-CPU host, which a campaign pays
tens of thousands of times.  :func:`step_states` computes the state that
``PCG64(seed)`` would hold for every seed of a step at once: the
SeedSequence hash in ``uint32`` array arithmetic (a 4-word pool, the seed
as two 32-bit words, ``generate_state(4, np.uint64)``), then PCG64's
seeding, ``inc = 2 * i + 1`` and ``state = (inc + s) * M + inc`` modulo
2**128.  An engine then re-seats one long-lived generator per stream it
draws (``generator.bit_generator.state = state``), which draws exactly
what a fresh ``Generator(PCG64(seed))`` draws.  numpy keeps both
algorithms stable across versions (NEP 19); the tests compare the states
and first draws with numpy's own for thousands of seeds.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "derive_seed",
    "spawn_generator",
    "shard_seed",
    "shard_step_generator",
    "pcg64_states",
    "step_seed",
    "step_states",
]

_MAX_SEED = 2**63 - 1

#: numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(initial: int, multiplier: int, count: int) -> np.ndarray:
    """Return the ``count + 1`` values a SeedSequence hash constant takes.

    Each hash of a word XORs it with the current constant, advances the
    constant by ``multiplier`` and multiplies the word by the new one; the
    sequence does not depend on the data, so it is computed once.
    """
    values = [initial]
    for _ in range(count):
        values.append(values[-1] * multiplier & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


#: Sixteen hashes mix the pool (4 to fill it, 12 to mix it); eight make
#: the output words of ``generate_state(4, np.uint64)``.
_POOL_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, 16)
_OUTPUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(
    words: np.ndarray, constants: np.ndarray, first: int, count: int
) -> np.ndarray:
    """Hash ``words`` ``count`` times, with the constants from the ``first``-th.

    Hash ``r`` XORs with constant ``first + r`` and multiplies by constant
    ``first + r + 1``; ``words`` broadcasts against the ``(count, 1)``
    constant columns, so the result has one row per hash.
    """
    words = (words ^ constants[first : first + count]) * constants[
        first + 1 : first + count + 1
    ]
    return words ^ (words >> _XSHIFT)


def derive_seed(seed: int, *labels: object) -> int:
    """Derive a child seed from ``seed`` and a sequence of ``labels``.

    The derivation hashes the parent seed together with the textual
    representation of each label, so distinct label sequences yield
    (practically) independent child seeds while identical inputs always
    yield the same output.

    Parameters
    ----------
    seed:
        Parent seed, any Python integer.
    labels:
        Arbitrary hashable/printable objects identifying the child stream,
        e.g. ``derive_seed(7, "trial", 3, "income")``.

    Returns
    -------
    int
        A non-negative integer strictly below ``2**63 - 1``.
    """
    # SHA-256 over the concatenated byte stream; feeding the hash one
    # joined payload produces the identical digest as the incremental
    # per-label updates it replaces, with fewer C calls on the hot
    # per-step stream derivations.
    payload = str(int(seed)).encode("utf-8") + b"".join(
        b"/" + repr(label).encode("utf-8") for label in labels
    )
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") % _MAX_SEED


def spawn_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces an OS-entropy-seeded generator, an integer produces a
    deterministically seeded generator, and an existing generator is passed
    through unchanged (so callers can thread one generator through a whole
    simulation).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def shard_seed(seed: int, shard: int) -> int:
    """Return the seed of user-shard ``shard``'s independent stream.

    The sharded engine partitions every population into the *canonical*
    shards of :class:`repro.core.sharding.ShardPlan` and gives shard ``s``
    the stream rooted at ``derive_seed(seed, "shard", s)``.  The derivation
    depends only on the trial's base seed and the shard index — never on how
    many workers execute the shards — which is what makes sharded runs
    bit-identical for any worker count.
    """
    return derive_seed(seed, "shard", shard)


def step_seed(shard_seed_value: int, step: int) -> int:
    """Return the seed of step ``step``'s stream for a shard seed.

    ``shard_seed_value`` is the output of :func:`shard_seed`; engines
    derive the shard seeds once and only this half of the chain per step.
    """
    return derive_seed(shard_seed_value, "step", step)


def step_states(shard_seeds: Sequence[int], step: int) -> List[Dict[str, object]]:
    """Return the PCG64 state of each shard seed's stream at step ``step``.

    Entry ``i`` is the ``bit_generator.state`` of
    ``Generator(PCG64(step_seed(shard_seeds[i], step)))``, so assigning it
    re-seats a PCG64 onto that stream (see the module docstring).
    """
    return pcg64_states([step_seed(seed, step) for seed in shard_seeds])


def pcg64_states(seeds: Sequence[int]) -> List[Dict[str, object]]:
    """Return the state ``np.random.PCG64(seed)`` holds, for every seed.

    Each entry is the dictionary the ``bit_generator.state`` setter takes.
    The seeds (non-negative, below 2**64) go through numpy's SeedSequence
    hash together, as ``uint32`` array arithmetic; only the 128-bit
    seeding is per seed, in Python integers.
    """
    seeds = np.array(seeds, dtype=np.uint64).reshape(-1)
    # The entropy is the seed's 32-bit words, low first, padded with
    # zeros to the pool's 4 words (a seed below 2**32 is one word, hashed
    # exactly as the padding is).
    words = np.zeros((4, seeds.shape[0]), dtype=np.uint32)
    words[0] = seeds & np.uint64(_MASK32)
    words[1] = seeds >> np.uint64(32)
    pool = _hashmix(words, _POOL_CONSTANTS, 0, 4)
    # Each pool word in turn is hashed once for every other word, and each
    # of those is mixed with its hash.
    for source in range(4):
        targets = [target for target in range(4) if target != source]
        hashed = _hashmix(pool[source], _POOL_CONSTANTS, 4 + 3 * source, 3)
        mixed = _MIX_MULT_L * pool[targets] - _MIX_MULT_R * hashed
        pool[targets] = mixed ^ (mixed >> _XSHIFT)
    # generate_state(4, np.uint64): eight 32-bit words from the pool, cycled.
    output = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUTPUT_CONSTANTS, 0, 8)
    output = output.astype(np.uint64)
    # Little-endian pairs of 32-bit words make the four 64-bit words: the
    # seed's high and low halves, then the increment's.
    seed_high, seed_low, inc_high, inc_low = (
        output[0::2] | (output[1::2] << np.uint64(32))
    ).tolist()
    states = []
    for high, low, increment_high, increment_low in zip(
        seed_high, seed_low, inc_high, inc_low
    ):
        increment = ((increment_high << 64 | increment_low) << 1 | 1) & _MASK128
        seed = high << 64 | low
        state = ((increment + seed) * _PCG_MULTIPLIER + increment) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": increment},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


def shard_step_generator(
    seed: int, shard: int, step: int
) -> np.random.Generator:
    """Return the generator driving shard ``shard`` at time step ``step``.

    The stream is *stateless* across steps: the generator for ``(shard,
    step)`` is freshly derived as ``derive_seed(shard_seed(seed, shard),
    "step", step)``, so a worker can reproduce any shard's draws for any
    step from the base seed alone — no generator state ever needs to be
    shipped between processes, and chunked runs replay the exact stream of
    a single run.  Within one step the population consumes the generator
    sequentially (``begin_step`` first, then ``respond``).  This is the
    definition; the engines re-seat long-lived generators onto the same
    streams with :func:`step_states`.
    """
    seed_of_step = step_seed(shard_seed(seed, shard), step)
    return np.random.Generator(np.random.PCG64(seed_of_step))
