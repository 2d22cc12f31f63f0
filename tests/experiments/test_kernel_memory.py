"""The lockstep kernel's memory: per-user peak, hand-over and single use.

The kernel keeps each user's filter state as one integer cell, steps its
users in blocks of whole shards, and drops its lanes and most step
buffers before the lenders and populations copy their final rows.  These
tests pin what that buys without reading RSS or a wall clock:
``tracemalloc`` counts numpy's buffers exactly, and weak references show
which rows are still alive at the hand-over.
"""

from __future__ import annotations

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.core.population import CreditPopulation
from repro.core.streaming import BatchedStreamingAggregator
from repro.experiments import CaseStudyConfig, run_experiment
from repro.experiments import batch
from repro.experiments.batch import BatchedTrialRunner
from repro.experiments.runner import default_policy_factory, run_trial

from tests.experiments.harness import assert_full_trials_identical

#: Bounds on the traced peak bytes per user of one 20-step kernel trial on
#: one thread, by population.  100k users are one block (eight shards of
#: 12,500), measured at ~165: the step rows (51), the lane's draw scratch
#: (16), the block maps (12), the race bookkeeping of the populations and
#: the aggregator (~42), the filter cells and the Cesàro row (10), and a
#: step's temporaries (~34), which span the whole block.  400k users are
#: four blocks of two shards, measured at ~127: the draw scratch (4) and
#: the temporaries (~9) span a quarter of the users.
PEAK_BYTES_PER_USER = {100_000: 200, 400_000: 150}


@pytest.mark.parametrize("users", sorted(PEAK_BYTES_PER_USER))
def test_traced_peak_per_user_is_bounded(users):
    config = CaseStudyConfig(
        num_users=users,
        num_trials=1,
        end_year=2021,
        history_mode="aggregate",
        execution="batch",
        max_workers=1,
        seed=5,
    )
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert result.trials[0].history.num_steps == config.num_steps
    per_user = (peak - baseline) / config.num_users
    assert per_user <= PEAK_BYTES_PER_USER[users], per_user


def _alive(refs):
    return [name for name, ref in refs if ref() is not None]


@pytest.mark.parametrize("threads", [1, 2])
def test_hand_over_releases_the_step_rows(monkeypatch, threads):
    """When the populations copy their final rows, only the step rows the
    copies read are alive: no other step buffer, lane scratch or block map.
    None survives into the trials' results, and no stacked row survives
    the run."""
    step_rows = []
    stacked_rows = []
    alive_at_copies = []
    alive_at_hand_over = []

    def tracked_buffers(self, *args, **kwargs):
        original_buffers(self, *args, **kwargs)
        step_rows.extend(
            (name, weakref.ref(value))
            for name, value in vars(self).items()
            if isinstance(value, np.ndarray)
        )

    def tracked_import(self, state):
        alive_at_copies.append(_alive(step_rows))
        return original_import(self, state)

    def tracked_history(self, trial):
        stacked_rows.extend(
            [
                ("cells", weakref.ref(self.rate_filter._cells)),
                ("cesaro", weakref.ref(self._cesaro)),
            ]
        )
        alive_at_hand_over.append(_alive(step_rows))
        return original_history(self, trial)

    original_buffers = batch._StepBuffers.__init__
    original_import = CreditPopulation.import_state
    original_history = BatchedStreamingAggregator.history
    monkeypatch.setattr(batch._StepBuffers, "__init__", tracked_buffers)
    monkeypatch.setattr(CreditPopulation, "import_state", tracked_import)
    monkeypatch.setattr(BatchedStreamingAggregator, "history", tracked_history)
    config = CaseStudyConfig(
        num_users=300, num_trials=2, seed=3, history_mode="aggregate"
    )
    runner = BatchedTrialRunner(config, default_policy_factory, threads=threads)
    assert len(runner._lanes) == threads
    step_rows.extend(
        ("lane scratch", weakref.ref(lane[0].draws.base)) for lane in runner._lanes
    )
    step_rows.extend(
        (f"block map {race}", weakref.ref(positions))
        for lane in runner._lanes
        for block in lane
        for race, *maps in block.races
        for positions in maps
    )
    outcomes = runner.run()
    assert len(outcomes) == 2
    read_by_the_copies = ["incomes", "states", "scores"]
    assert alive_at_copies == [read_by_the_copies] * 2
    assert alive_at_hand_over == [[], []]
    assert len(stacked_rows) == 4
    assert _alive(stacked_rows) == []


def test_run_is_single_use():
    config = CaseStudyConfig(num_users=60, num_trials=2, seed=4)
    runner = BatchedTrialRunner(config, default_policy_factory)
    runner.run()
    # A second call would start from trained lenders and skip the warm-up.
    with pytest.raises(RuntimeError, match="runs once"):
        runner.run()


@pytest.mark.parametrize("history_mode", ["full", "aggregate"])
def test_a_horizon_past_the_uint16_grid_matches_serial(history_mode):
    """257 steps need ``uint32`` cells; the kernel still equals serial."""
    config = CaseStudyConfig(
        num_users=40,
        num_trials=1,
        seed=8,
        end_year=2258,
        history_mode=history_mode,
    )
    assert config.num_steps == 257
    serial = run_trial(config, 0)
    kernel = run_experiment(replace(config, execution="batch")).trials[0]
    for race, series in serial.group_default_rates.items():
        assert series.tobytes() == kernel.group_default_rates[race].tobytes()
    assert (
        serial.approval_rate_series().tobytes()
        == kernel.approval_rate_series().tobytes()
    )
    if history_mode == "full":
        assert_full_trials_identical(serial, kernel)
    else:
        left = serial.history.export_state()
        right = kernel.history.export_state()
        assert left.keys() == right.keys()
        for key, value in left.items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == right[key].tobytes(), key
