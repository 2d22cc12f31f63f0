"""The lockstep filter's integer cells and the tables read at them.

Each user's filter state is one cell ``o * (S + 1) + r`` of offers ``o``
and repayments ``r``; every per-user float of a step is a table read at the
cell.  These tests pin each table entry to the function it replaces,
applied to that cell's counts: the filter's counts and ``ADR_i``, the
kernel's clipped rates and refit keys, and the aggregator's histogram bins
and low-rate flags.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.filters import BatchedDefaultRateFilter
from repro.core.streaming import (
    DEFAULT_RATE_BINS,
    RATE_HISTOGRAM_LOW_THRESHOLD,
    BatchedStreamingAggregator,
    rate_bin_codes,
)
from repro.credit.default_rates import user_default_rates
from repro.scoring.features import clipped_default_rates
from repro.scoring.suffstats import CellKeys, CompressedDesign, pack_rows


def _reachable(num_steps):
    """Every reachable ``(cell, offers, repayments)``: ``r <= o <= S``."""
    stride = num_steps + 1
    return [
        (offers * stride + repayments, offers, repayments)
        for offers in range(stride)
        for repayments in range(offers + 1)
    ]


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _random_cells(rng, num_steps, shape, dtype):
    offers = rng.integers(0, num_steps + 1, size=shape)
    repayments = (rng.random(shape) * (offers + 1)).astype(int)
    return (offers * (num_steps + 1) + repayments).astype(dtype)


class TestFilterCells:
    @pytest.mark.parametrize(
        "num_steps, dtype",
        [(0, np.uint16), (20, np.uint16), (255, np.uint16), (256, np.uint32)],
    )
    def test_one_integer_row_per_trial_and_no_float_count_row(self, num_steps, dtype):
        rate_filter = BatchedDefaultRateFilter(3, 11, num_steps)
        rows = {
            name: value
            for name, value in vars(rate_filter).items()
            if isinstance(value, np.ndarray) and value.shape == (3, 11)
        }
        assert list(rows) == ["_cells"]
        assert rows["_cells"].dtype == dtype
        assert rate_filter.cells.dtype == dtype
        assert rate_filter.cell_rates.shape == ((num_steps + 1) ** 2,)

    @pytest.mark.parametrize("prior_rate", [0.0, 0.35])
    def test_every_table_entry_is_its_function_of_the_counts(self, prior_rate):
        num_steps = 23
        rate_filter = BatchedDefaultRateFilter(1, 1, num_steps, prior_rate=prior_rate)
        for cell, offers, repayments in _reachable(num_steps):
            assert rate_filter.cell_offers[cell] == offers
            assert rate_filter.cell_repayments[cell] == repayments
            expected = user_default_rates(
                np.array([float(offers)]), np.array([float(repayments)]), prior_rate
            )[0]
            assert _bits(rate_filter.cell_rates[cell]) == _bits(expected)
        # The cells a repayment without an offer would reach repeat the
        # never-offered cell, so every table stays in [0, 1].
        assert rate_filter.cell_rates.min() >= 0.0
        assert rate_filter.cell_rates.max() <= 1.0

    def test_fold_moves_each_cell_by_its_offer_and_repayment(self):
        rate_filter = BatchedDefaultRateFilter(2, 4, 3)
        offered = np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=bool)
        repaid = np.array([[1, 0, 0, 1], [0, 0, 1, 1]], dtype=bool)
        rates = np.full((2, 4), -1.0)
        counts = rate_filter.fold(slice(0, 3), offered, repaid, rates)
        rate_filter.fold(slice(3, 4), offered, repaid, rates)
        np.testing.assert_array_equal(
            rate_filter.cells, offered * 4 + repaid.astype(int)
        )
        np.testing.assert_array_equal(counts, [[2.0, 2.0], [1.0, 1.0]])
        np.testing.assert_array_equal(rates, rate_filter.user_rates())
        np.testing.assert_array_equal(
            rate_filter.read(rate_filter.cell_offers), offered.astype(float)
        )
        np.testing.assert_array_equal(
            rate_filter.read(rate_filter.cell_repayments), repaid.astype(float)
        )

    def test_fold_rejects_a_repayment_without_an_offer(self):
        rate_filter = BatchedDefaultRateFilter(2, 3, 4)
        offered = np.array([[1, 0, 1], [1, 1, 1]], dtype=bool)
        repaid = np.array([[0, 1, 0], [0, 0, 0]], dtype=bool)
        rates = np.zeros((2, 3))
        with pytest.raises(ValueError, match="not offered"):
            rate_filter.fold(slice(None), offered, repaid, rates)
        # Nothing moved: the rejected user would have spilled into the
        # next row of the grid.
        assert not rate_filter.cells.any()
        # Another chunk of the same step, without the offending user, folds.
        rate_filter.fold(slice(2, 3), offered, repaid, rates)
        np.testing.assert_array_equal(rate_filter.cells[:, 2], [5, 5])

    def test_fold_rejects_float_masks_and_a_step_past_the_grid(self):
        rate_filter = BatchedDefaultRateFilter(1, 2, 1)
        ones = np.ones((1, 2), dtype=bool)
        with pytest.raises(ValueError, match="boolean"):
            rate_filter.fold(slice(None), ones.astype(float), ones, np.zeros((1, 2)))
        rate_filter.finish_step([rate_filter.fold(slice(None), ones, ones, np.zeros((1, 2)))])
        assert rate_filter.cells.max() == 3  # the last point of the 2 x 2 grid
        with pytest.raises(ValueError, match="hold 1 steps"):
            rate_filter.fold(slice(None), ones, ones, np.zeros((1, 2)))

    def test_grid_size_is_bounded(self):
        with pytest.raises(ValueError):
            BatchedDefaultRateFilter(1, 1, -1)
        with pytest.raises(ValueError):
            BatchedDefaultRateFilter(1, 1, 1 << 16)


class TestRateBinCodes:
    @staticmethod
    def _histogram_bin(value, edges):
        counts, _ = np.histogram(np.array([value]), bins=edges)
        assert counts.sum() == 1
        return int(np.flatnonzero(counts)[0])

    @pytest.mark.parametrize("rate_bins", [2, 7, DEFAULT_RATE_BINS])
    def test_every_bin_is_the_histogram_bin_of_its_value(self, rate_bins):
        edges = np.linspace(0.0, 1.0, rate_bins + 1)
        values = [0.0, 1.0, RATE_HISTOGRAM_LOW_THRESHOLD]
        for value in [*edges, RATE_HISTOGRAM_LOW_THRESHOLD]:
            values += [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]
        values = [value for value in values if 0.0 <= value <= 1.0]
        rate_filter = BatchedDefaultRateFilter(1, 1, 40)
        values += rate_filter.cell_rates.tolist()
        codes = rate_bin_codes(np.array(values), edges)
        for value, code in zip(values, codes.tolist()):
            assert code // 2 == self._histogram_bin(value, edges), value
            assert code % 2 == int(value <= RATE_HISTOGRAM_LOW_THRESHOLD), value

    def test_aggregator_codes_come_from_the_filter_rates(self):
        rate_filter = BatchedDefaultRateFilter(2, 5, 12)
        aggregator = BatchedStreamingAggregator(rate_filter, [None, None])
        expected = rate_bin_codes(
            rate_filter.cell_rates, np.linspace(0.0, 1.0, DEFAULT_RATE_BINS + 1)
        )
        np.testing.assert_array_equal(aggregator._rate_codes, expected)


class TestCellKeys:
    def test_clipped_table_entries_are_the_clipped_rates(self):
        rate_filter = BatchedDefaultRateFilter(1, 1, 30)
        clipped = clipped_default_rates(rate_filter.cell_rates)
        for cell, _, _ in _reachable(30):
            expected = clipped_default_rates(rate_filter.cell_rates[cell : cell + 1])[0]
            assert _bits(clipped[cell]) == _bits(expected)

    @pytest.mark.parametrize(
        "num_steps, users",
        # Few cells and many users take the bincount route; a long horizon
        # with few users (uint32 cells) takes np.unique.
        [(20, 5000), (3, 40), (300, 60), (256, 7)],
    )
    def test_tables_equal_the_packed_keys_count_tables(self, num_steps, users):
        trials = 3
        rate_filter = BatchedDefaultRateFilter(trials, users, num_steps)
        clipped = clipped_default_rates(rate_filter.cell_rates)
        keys = CellKeys(clipped)
        rng = np.random.default_rng(num_steps + users)
        cells = _random_cells(rng, num_steps, (trials, users), rate_filter.cells.dtype)
        codes = rng.random((trials, users)) < 0.5
        offered = rng.random((trials, users)) < 0.7
        offered[2] = False  # a trial nobody was offered in
        labels = (rng.random((trials, users)) < 0.6) & offered
        tables = keys.tables(cells, codes, labels, offered)
        packed = pack_rows(codes, clipped[cells], labels)
        assert len(tables) == trials
        for trial, table in enumerate(tables):
            expected = CompressedDesign.from_key_array(packed[trial][offered[trial]])
            assert table.keys.dtype == expected.keys.dtype
            assert table.counts.dtype == expected.counts.dtype
            assert table.keys.tobytes() == expected.keys.tobytes()
            assert table.counts.tobytes() == expected.counts.tobytes()
        assert tables[2].num_rows == 0

    def test_rates_are_validated_once_through_pack_rows(self):
        with pytest.raises(ValueError, match="previous_rates"):
            CellKeys(np.array([0.0, 0.5, 1.5]))
