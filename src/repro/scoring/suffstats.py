"""Sufficient statistics for the yearly logistic refit.

The paper's retraining step fits a logistic model on exactly two features —
the 0/1 income code and the user's previous average default rate — against a
binary repayment label.  That design matrix is massively degenerate: the
income code takes two values, the previous rate is a ratio of small integer
counts (``defaults / offers`` with ``offers <= k`` at step ``k``), and the
label is binary, so a 100k–1M row training set collapses to at most a few
thousand distinct ``(code, rate, label)`` rows.  Because the logistic
log-likelihood, gradient and Hessian are all sums of per-row terms, the
unique rows plus their integer multiplicities are *exact sufficient
statistics*: a weighted fit on the compressed table optimises the same
objective as the row-level fit, at ``O(unique rows)`` per IRLS iteration
instead of ``O(users)``.

:class:`CompressedDesign` builds that table with one :func:`numpy.unique`
pass over a packed 64-bit key.  The packing exploits the feature ranges: a
finite ``float64`` rate in ``[0, 1]`` never uses its top two bits (sign is
zero, and the exponent stays below the bit-62 threshold because the value is
below 2.0), so the income code and the label slot into bits 63 and 62 and
the whole row becomes one ``uint64``.  Equal keys are bit-equal rows, so the
dedup is exact, and the sorted unique keys give a canonical row order that
is independent of the input permutation.

Count tables are also *shard-mergeable*: the multiplicities are ``int64``
counts, so merging per-shard tables by exact integer addition reproduces the
whole-population table bit for bit (:meth:`CompressedDesign.merge` /
:func:`merge_tables`).  The lockstep kernel uses this to build each user
block's table next to its users, leaving only a tiny O(unique rows) merge
and fit on the calling thread.

In the kernel a row's previous rate is itself a table read: each user's
filter state is one integer cell
(:class:`~repro.core.filters.BatchedDefaultRateFilter`), so
:class:`CellKeys` packs and validates each cell's rate once per run and
counts a block's keys with a ``bincount`` of small integer indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.scoring.logistic import _CLIP

__all__ = ["CellKeys", "CompressedDesign", "merge_tables", "pack_rows"]

_CODE_BIT = np.uint64(63)
_LABEL_BIT = np.uint64(62)
_RATE_MASK = np.uint64((1 << 62) - 1)
_ONE = np.uint64(1)
#: Bit pattern of ``float64(1.0)``.  Non-negative finite floats are
#: monotone in their bit patterns, so a rate is finite in ``[0, 1]`` iff
#: its (sign-normalised) bits do not exceed this — NaN, inf and negative
#: values all map above it.
_ONE_BITS = np.uint64(0x3FF0000000000000)


def _binary_bits(values: np.ndarray, name: str) -> np.ndarray:
    """Validate a 0/1 column and return it as ``uint64``.

    Boolean input is inherently binary and casts straight through; for
    numeric input the integer cast is needed for the key packing anyway,
    so the validation costs only one comparison against the cast-back
    values (which also catches negative values and NaN, since both break
    the uint64 round-trip).
    """
    if values.dtype == np.bool_:
        return values.astype(np.uint64)
    with np.errstate(invalid="ignore"):
        bits = values.astype(np.uint64)
    if values.size and (
        int(bits.max()) > 1 or not np.array_equal(bits, values)
    ):
        raise ValueError(f"{name} must be binary (0 or 1)")
    return bits


def pack_rows(
    income_codes: np.ndarray,
    previous_rates: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Pack ``(code, rate, label)`` rows into validated ``uint64`` keys.

    The single definition of the key bit layout (rate bits below, code and
    label in bits 63/62 — see the module docstring), shared by
    :meth:`CompressedDesign.from_arrays` and the trial-batched engine's
    fused whole-experiment packing.  Works elementwise on any shape: a
    ``(trials, users)`` block packs in one pass and every row equals the
    per-trial 1-D packing bit for bit.
    """
    rates = np.asarray(previous_rates, dtype=float)
    # ``-0.0 + 0.0 == +0.0`` under round-to-nearest: normalising the sign
    # of zero keeps the rate's sign bit clear for the code bit.  The
    # addition also materialises a contiguous float64 copy for the bit
    # view below.
    rate_bits = (rates + 0.0).view(np.uint64)
    if rates.size and int(rate_bits.max()) > int(_ONE_BITS):
        raise ValueError("previous_rates must be finite and lie in [0, 1]")
    # The bit columns are fresh arrays, so they shift and merge in place.
    for column, name, bit in (
        (income_codes, "income_codes", _CODE_BIT),
        (labels, "labels", _LABEL_BIT),
    ):
        bits = _binary_bits(column, name)
        bits <<= bit
        rate_bits |= bits
    return rate_bits


@dataclass(frozen=True)
class CompressedDesign:
    """Deduplicated ``(income_code, previous_rate, label)`` training rows.

    Attributes
    ----------
    keys:
        Packed ``uint64`` row keys, sorted ascending (canonical order).
    counts:
        ``int64`` multiplicity of each unique row; exact sufficient
        statistics, mergeable across shards by integer addition.
    """

    keys: np.ndarray
    counts: np.ndarray

    @property
    def num_unique(self) -> int:
        """Return the number of distinct training rows."""
        return int(self.keys.shape[0])

    @property
    def num_rows(self) -> int:
        """Return the total row count the table represents."""
        return int(self.counts.sum())

    @property
    def codes(self) -> np.ndarray:
        """Return the income code of each unique row."""
        return ((self.keys >> _CODE_BIT) & _ONE).astype(float)

    @property
    def rates(self) -> np.ndarray:
        """Return the previous average default rate of each unique row."""
        return (self.keys & _RATE_MASK).view(np.float64).copy()

    @property
    def labels(self) -> np.ndarray:
        """Return the binary label of each unique row."""
        return ((self.keys >> _LABEL_BIT) & _ONE).astype(float)

    @classmethod
    def from_arrays(
        cls,
        income_codes: Sequence[float] | np.ndarray,
        previous_rates: Sequence[float] | np.ndarray,
        labels: Sequence[int] | np.ndarray,
        offered: Sequence[int] | np.ndarray | None = None,
    ) -> "CompressedDesign":
        """Compress a row-level training set into unique rows and counts.

        Parameters
        ----------
        income_codes:
            0/1 income codes, one per user.
        previous_rates:
            Previous average default rates in ``[0, 1]``, one per user.
        labels:
            Binary labels in {0, 1}, one per user.
        offered:
            Optional 0/1 mask; rows where it is not 1 are dropped before
            compression (a denied user produces no observable label).
        """
        codes = np.asarray(income_codes).ravel()
        rates = np.asarray(previous_rates, dtype=float).ravel()
        label_array = np.asarray(labels).ravel()
        if not (codes.shape == rates.shape == label_array.shape):
            raise ValueError("income_codes, previous_rates and labels must align")
        keys = pack_rows(codes, rates, label_array)
        if offered is not None:
            mask = np.asarray(offered, dtype=float).ravel() == 1.0
            if mask.shape != codes.shape:
                raise ValueError("offered mask must have one entry per row")
            # Masking the packed keys (after validating the full columns,
            # exactly as the exact path's design matrix does) replaces
            # three gathers with one.
            keys = keys[mask]
        return cls.from_key_array(keys)

    @classmethod
    def from_key_array(cls, keys: np.ndarray) -> "CompressedDesign":
        """Compress pre-packed row keys (see :func:`pack_rows`) into a table."""
        unique_keys, counts = np.unique(keys, return_counts=True)
        return cls(keys=unique_keys, counts=counts.astype(np.int64))

    def design_matrix(self) -> np.ndarray:
        """Return the unique ``(num_unique, 2)`` design matrix.

        Column order matches
        :attr:`repro.scoring.features.FeatureBuilder.feature_names`:
        income code first, previous average default rate second.
        """
        return np.column_stack([self.codes, self.rates])

    def merge(self, other: "CompressedDesign") -> "CompressedDesign":
        """Merge two count tables by exact integer addition.

        The merge is associative and commutative, and merging the per-shard
        tables of any partition of a population reproduces the
        whole-population table bit for bit.
        """
        return merge_tables([self, other])

    def weighted_log_likelihood(self, theta: np.ndarray) -> float:
        """Return the unpenalised log-likelihood at ``theta`` (diagnostics).

        ``theta`` is ``[intercept, code_weight, rate_weight]``.  Up to float
        reassociation this equals the row-level log-likelihood of the
        uncompressed training set — the sufficient-statistics property the
        hypothesis suite pins.
        """
        parameters = np.asarray(theta, dtype=float).ravel()
        if parameters.shape != (3,):
            raise ValueError("theta must be [intercept, code_weight, rate_weight]")
        z = np.clip(
            parameters[0] + self.codes * parameters[1] + self.rates * parameters[2],
            -_CLIP,
            _CLIP,
        )
        log_p = -np.log1p(np.exp(-z))
        log_one_minus_p = -np.log1p(np.exp(z))
        y = self.labels
        terms = self.counts * (y * log_p + (1.0 - y) * log_one_minus_p)
        return float(terms.sum())


def merge_tables(tables: Iterable[CompressedDesign]) -> CompressedDesign:
    """Merge any number of count tables into one by exact integer addition."""
    table_list = [table for table in tables]
    if not table_list:
        raise ValueError("cannot merge an empty collection of tables")
    if len(table_list) == 1:
        only = table_list[0]
        return CompressedDesign(keys=only.keys.copy(), counts=only.counts.copy())
    all_keys = np.concatenate([table.keys for table in table_list])
    all_counts = np.concatenate([table.counts for table in table_list])
    unique_keys, inverse = np.unique(all_keys, return_inverse=True)
    merged_counts = np.zeros(unique_keys.shape[0], dtype=np.int64)
    np.add.at(merged_counts, inverse, all_counts)
    return CompressedDesign(keys=unique_keys, counts=merged_counts)


class CellKeys:
    """Count tables of ``(code, rate, label)`` rows whose rate is a cell's.

    Built once per run from ``cell_rates``, the previous rate of each cell
    of the lockstep filter's grid, packed (and so validated) by
    :func:`pack_rows`.  The distinct rate bits are ranked in ascending
    order.  A row's key then has the index
    ``(2 * code + label) * distinct + rank(cell)``; the code and label bits
    sit above the rate bits of a key, so the indices sort exactly as the
    keys do, and counting the indices counts the keys.  :meth:`tables`
    equals :meth:`CompressedDesign.from_key_array` of the rows' packed keys
    bit for bit, with no per-row ``uint64`` work.  A ``bincount`` has four
    bins per distinct rate, which grow with the grid (~110,000 at 300
    steps), so a row with fewer users than bins sorts its small indices
    in ``np.unique`` instead.  On a 2-CPU host, 8 trials x 1,000 users x
    300 steps ran in 1.50 s a run that way against 1.88 s with a
    ``bincount`` for every row (medians of 10 interleaved pairs).
    """

    def __init__(self, cell_rates: np.ndarray) -> None:
        rates = np.asarray(cell_rates, dtype=float).ravel()
        zeros = np.zeros(rates.shape, dtype=bool)
        rate_keys, ranks = np.unique(
            pack_rows(zeros, rates, zeros), return_inverse=True
        )
        self._distinct = np.uint32(rate_keys.size)
        # Indices stay below 8 * distinct (see tables), so narrow integers
        # hold them: a narrow gather and sum is faster than an intp one.
        self._dtype = np.uint16 if 8 * rate_keys.size <= 1 << 16 else np.uint32
        self._ranks = ranks.astype(self._dtype)
        code, label = _ONE << _CODE_BIT, _ONE << _LABEL_BIT
        # The key of each index: the ranked rate keys under the (code,
        # label) blocks (0, 0), (0, 1), (1, 0) and (1, 1), in key order.
        self._keys = np.concatenate(
            [rate_keys | high for high in (np.uint64(0), label, code, code | label)]
        )

    def tables(
        self,
        cells: np.ndarray,
        codes: np.ndarray,
        labels: np.ndarray,
        offered: np.ndarray,
    ) -> "list[CompressedDesign]":
        """Return one count table per row of the offered rows.

        ``cells`` (indices into ``cell_rates``) and the boolean ``codes``,
        ``labels`` and ``offered`` masks share one ``(rows, users)`` shape;
        row ``i``'s table counts the ``(code, cell rate, label)`` keys
        where ``offered`` is set.  Each row takes one ``np.bincount`` over
        the key indices, or ``np.unique`` when the indices outnumber the
        row's users, so no call does work in proportion to the cells.
        """
        bins = 4 * int(self._distinct)
        # Block 2 * code + label, plus 4 for a row nobody offered: blocks
        # 4 and 6 hold the rows the tables leave out.
        block = codes.view(np.uint8) << 1
        block |= labels.view(np.uint8)
        block |= (~offered).view(np.uint8) << 2
        index = np.multiply(block, self._distinct, dtype=self._dtype)
        index += np.take(self._ranks, cells, mode="clip")
        tables = []
        for row in index:
            if bins <= row.size:
                counts = np.bincount(row, minlength=bins)[:bins]
                present = np.flatnonzero(counts)
                counts = counts[present]
            else:
                present, counts = np.unique(row, return_counts=True)
                kept = np.searchsorted(present, bins)
                present, counts = present[:kept], counts[:kept]
            tables.append(
                CompressedDesign(
                    keys=self._keys[present], counts=counts.astype(np.int64)
                )
            )
        return tables
