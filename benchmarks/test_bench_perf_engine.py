"""Benchmark P-1: the columnar simulation engine at scale.

Times the engine's hot paths at a 20k-user default scale (set
``REPRO_FULL_BENCH=1`` for the full 100k-user x 20-step workload;
``perfbench/`` is the repeatable end-to-end benchmark):

* one full closed-loop trial with the paper's retraining lender;
* the vectorized IFS population versus the per-user fallback loop —
  asserted to be at least 10x faster;
* the memory-ceiling regression of ``history_mode="aggregate"``: the
  streaming recorder's peak-RSS overhead over the no-recording simulation
  floor must stay inside a fixed budget and be at least 10x smaller than
  the full-history recorder's overhead (each mode measured in its own
  subprocess, at 150k users by default and the million-user workload under
  ``REPRO_FULL_BENCH=1``).

Wall-clock floors (the speedup ratios and the checkpoint overhead) flake on
a loaded host, so they assert only under ``REPRO_PERF_GATES=1``, which the
non-blocking CI ``benchmarks`` job sets.  Without it these tests time and
print, and check only their functional results.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.population import IFSPopulation
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_trial
from repro.markov.ifs import SignalDependentIFS
from repro.markov.maps import AffineMap


def _perf_users() -> int:
    return 100_000 if os.environ.get("REPRO_FULL_BENCH") == "1" else 20_000


def _perf_gate(passed: bool, message: str) -> None:
    """Assert a wall-clock floor, only under ``REPRO_PERF_GATES=1``."""
    if os.environ.get("REPRO_PERF_GATES") == "1":
        assert passed, message


@pytest.fixture(scope="module")
def perf_config() -> CaseStudyConfig:
    # end_year 2021 makes exactly 20 steps from the paper's 2002 start.
    return CaseStudyConfig(num_users=_perf_users(), num_trials=1, end_year=2021)


def test_bench_engine_trial(benchmark, perf_config):
    """One full 20-step trial with the paper's retraining scorecard lender."""
    result = benchmark.pedantic(
        run_trial, args=(perf_config,), kwargs={"trial_index": 0}, rounds=2, iterations=1
    )
    assert result.history.num_steps == perf_config.num_steps
    assert result.user_default_rates.shape == (
        perf_config.num_steps,
        perf_config.num_users,
    )


def test_bench_vectorized_ifs_population():
    """Batched IFS stepping must beat the per-user loop by >=10x."""
    count = _perf_users() // 4
    shared = SignalDependentIFS(
        transition_maps=(AffineMap.scalar(0.5, 0.0), AffineMap.scalar(0.5, 0.5)),
        transition_probabilities=lambda signal: [0.8, 0.2] if signal > 0.5 else [0.3, 0.7],
        output_maps=(AffineMap.scalar(1.0, 0.0), AffineMap.scalar(0.0, 1.0)),
        output_probabilities=lambda signal: [0.6, 0.4] if signal > 0.5 else [0.1, 0.9],
    )
    initial = [np.array([0.0])] * count
    decisions = (np.arange(count) % 2).astype(float)

    batched = IFSPopulation(users=[shared] * count, initial_states=initial)
    assert batched._state_matrix is not None
    generator = np.random.default_rng(0)
    batched.respond(decisions, 0, generator)  # warm-up
    start = time.perf_counter()
    for k in range(5):
        batched.respond(decisions, k, generator)
    batched_time = (time.perf_counter() - start) / 5

    fallback = IFSPopulation(
        users=[shared] * count, initial_states=initial, vectorize=False
    )  # the seed engine's per-user loop
    generator = np.random.default_rng(0)
    start = time.perf_counter()
    fallback.respond(decisions, 0, generator)
    fallback_time = time.perf_counter() - start

    speedup = fallback_time / max(batched_time, 1e-12)
    print(
        f"\nbatched {batched_time * 1e3:.2f} ms/step vs per-user loop "
        f"{fallback_time * 1e3:.1f} ms/step ({speedup:,.0f}x) at {count:,} users"
    )
    _perf_gate(speedup >= 10.0, f"batched IFS stepping only {speedup:.1f}x faster")


def test_bench_suffstats_retrain(perf_config):
    """The engine's count-table refit must beat the row-level reference.

    The training set is captured from a real loop step (year ~12), so the
    rate column carries the small-integer-ratio degeneracy the count table
    collapses.  The required speedup scales with the population: the
    count table's O(n log n) key sort amortises against the reference's
    O(n) *per IRLS iteration*, so the ratio grows with n — >=10x at the
    full 100k benchmark scale (the acceptance number recorded in
    ``BENCH_core.json``), >=4x at the scaled-down default.
    """
    import retrain_probe

    rows = retrain_probe.capture_retrain_rows(perf_config)
    timings = {
        name: retrain_probe.median_seconds(refit, rows)
        for name, refit in (
            ("reference", retrain_probe.row_level_refit),
            ("engine", retrain_probe.engine_refit),
        )
    }

    speedup = timings["reference"] / max(timings["engine"], 1e-12)
    print(
        f"\nrow-level reference refit {timings['reference'] * 1e3:.2f} ms vs "
        f"engine refit {timings['engine'] * 1e3:.2f} ms ({speedup:.1f}x) at "
        f"{perf_config.num_users:,} users"
    )
    required = 10.0 if perf_config.num_users >= 100_000 else 4.0
    _perf_gate(speedup >= required, f"engine refit only {speedup:.1f}x faster")

    # Both fits must agree on what they learned (the reference suite pins
    # the loop-level guarantee; this is the benchmark-side smoke check).
    engine = retrain_probe.engine_refit(rows)
    reference = retrain_probe.row_level_refit(rows)
    assert abs(engine.intercept - reference.intercept) < 1e-9
    np.testing.assert_allclose(
        engine.coefficients, reference.coefficients, rtol=0.0, atol=1e-9
    )


def _memory_bench_users() -> int:
    return 1_000_000 if os.environ.get("REPRO_FULL_BENCH") == "1" else 150_000


def _streaming_budgets(num_users: int) -> tuple[float, float]:
    """Return (recorder-overhead budget, absolute peak budget) in MiB.

    Calibrated with ~2x headroom over measured values (aggregate recorder
    overhead ~45 MiB and peak ~400 MiB at 1M users; proportionally less at
    the default 150k scale, where the Python/numpy baseline dominates).
    """
    if num_users >= 1_000_000:
        return 128.0, 640.0
    return 48.0, 288.0


def _kernel_peak_budget(num_users: int) -> float:
    """Return the lockstep kernel probe's absolute peak budget in MiB.

    ~2x headroom over measured values, as for the other probes (kernel
    peak ~330 MiB at 1M users and ~104 MiB at 150k, on 2 kernel threads;
    the probe's row-level refit sets the 1M peak).
    """
    return 768.0 if num_users >= 1_000_000 else 224.0


@pytest.mark.skipif(sys.platform != "linux", reason="relies on Linux ru_maxrss units")
def test_bench_streaming_memory_ceiling():
    """Streaming recording must be bounded and >=10x leaner than full history.

    Four subprocess probes (see ``mem_probe``): the no-recorder simulation
    floor, a full-history trial, an aggregate-mode trial and the same
    aggregate trial on the lockstep kernel, which ``execution="auto"``
    runs for every single trial in process.  The recorder overhead (peak
    minus floor) is the quantity the streaming subsystem bounds: full
    history materialises O(steps * users) columns while the aggregator
    keeps O(users) running state, so the gap must be at least 10x and the
    streaming overhead must stay inside a fixed budget; the kernel's peak
    has its own budget.
    """
    import mem_probe

    num_users = _memory_bench_users()
    measured = mem_probe.measure_history_memory(num_users)
    overhead_budget, peak_budget = _streaming_budgets(num_users)
    print(
        f"\n{num_users:,} users x 20 steps: simulation floor "
        f"{measured['floor_peak_rss_mb']:.0f} MiB; recorder overhead full "
        f"{measured['full_history_overhead_mb']:.0f} MiB vs streaming "
        f"{measured['aggregate_history_overhead_mb']:.0f} MiB "
        f"({measured['memory_ratio_x']:.0f}x); kernel peak "
        f"{measured['kernel_peak_rss_mb']:.0f} MiB"
    )
    assert measured["aggregate_history_overhead_mb"] <= overhead_budget, (
        "streaming recorder overhead exceeded its budget: "
        f"{measured['aggregate_history_overhead_mb']} MiB > {overhead_budget} MiB"
    )
    assert measured["aggregate_peak_rss_mb"] <= peak_budget, (
        "streaming-mode trial exceeded its absolute peak-RSS budget: "
        f"{measured['aggregate_peak_rss_mb']} MiB > {peak_budget} MiB"
    )
    kernel_budget = _kernel_peak_budget(num_users)
    assert measured["kernel_peak_rss_mb"] <= kernel_budget, (
        "the lockstep kernel's aggregate trial exceeded its peak-RSS budget: "
        f"{measured['kernel_peak_rss_mb']} MiB > {kernel_budget} MiB"
    )
    assert measured["memory_ratio_x"] >= 10.0, (
        "full-history recorder should cost >=10x the streaming recorder, got "
        f"{measured['memory_ratio_x']}x"
    )


def test_bench_trial_batched():
    """The trial-batched engine must beat the serial trial loop >=2x.

    CI scale: a Monte-Carlo sweep of 32 trials x 250 users x 20 steps with
    sufficient-statistics retraining — the regime trial batching targets
    (many seeded trials, fixed per-step dispatch amortised across the
    trial axis, one core).  Results are bit-identical by construction
    (pinned in ``tests/experiments/test_batch_equivalence.py``), so this
    is a pure wall-clock comparison; both sides are measured as a min of
    three runs to damp scheduler noise.  The full-scale ratios (including
    the 8 x 20k x 20 workload, where per-trial C work dominates and the
    ratio is smaller) are recorded in ``BENCH_core.json`` under
    ``trial-batched-engine``.
    """
    from repro.experiments.runner import run_experiment

    config = CaseStudyConfig(num_users=250, num_trials=32, end_year=2021)

    def serial_run():
        return run_experiment(config)

    def batched_run():
        return run_experiment(replace(config, execution="batch"))

    # Also warms caches (income CDFs, numpy internals).
    batched_means = batched_run().group_mean_series()
    for race, series in serial_run().group_mean_series().items():
        assert np.array_equal(batched_means[race], series)
    serial_seconds = min(
        _timed(serial_run) for _ in range(3)
    )
    batched_seconds = min(
        _timed(batched_run) for _ in range(3)
    )
    speedup = serial_seconds / max(batched_seconds, 1e-12)
    print(
        f"\ntrial-batched sweep (32 x 250 x 20): serial "
        f"{serial_seconds:.3f}s vs batched {batched_seconds:.3f}s ({speedup:.2f}x)"
    )
    _perf_gate(speedup >= 2.0, f"trial batching only {speedup:.2f}x faster")


def test_bench_checkpoint_overhead(monkeypatch):
    """Step checkpointing must cost < 5% of trial wall clock.

    CI scale: 5k users x 400 steps in ``history_mode="aggregate"`` with
    ``checkpoint_every=100`` — four crash-consistent snapshots (export +
    serialize + fsync + atomic rename + prune) over a ~1.5 s trial.
    Aggregate mode is the recommended pairing for long checkpointed runs
    because its snapshot carries group series and count tables, not
    per-user history matrices, so the write cost stays flat as the horizon
    grows.  The overhead is measured *inside* the run — wall clock spent
    in :meth:`CheckpointSpec.write` over total trial wall clock — because
    an A/B of two full trials on a busy host drowns a ~1% effect in
    scheduler noise; ``BENCH_core.json`` records the full-scale (20k x
    400) numbers, both instrumented and end-to-end.
    """
    import tempfile

    from repro.core import checkpoint as checkpoint_module

    config = CaseStudyConfig(num_users=5_000, num_trials=1, end_year=2401)
    spent = {"seconds": 0.0, "writes": 0}
    original_write = checkpoint_module.CheckpointSpec.write

    def instrumented_write(self, payload):
        start = time.perf_counter()
        try:
            return original_write(self, payload)
        finally:
            spent["seconds"] += time.perf_counter() - start
            spent["writes"] += 1

    monkeypatch.setattr(
        checkpoint_module.CheckpointSpec, "write", instrumented_write
    )
    with tempfile.TemporaryDirectory() as snapshots:
        total = _timed(
            lambda: run_trial(
                replace(
                    config,
                    history_mode="aggregate",
                    checkpoint_dir=snapshots,
                    checkpoint_every=100,
                ),
                trial_index=0,
            )
        )
    assert spent["writes"] == 4
    overhead = spent["seconds"] / total * 100
    print(
        f"\ncheckpoint overhead (5k x 400, aggregate, every=100): "
        f"{spent['seconds'] * 1e3:.1f}ms in {spent['writes']} writes over a "
        f"{total:.3f}s trial ({overhead:.2f}%)"
    )
    _perf_gate(overhead < 5.0, f"checkpoint writes took {overhead:.2f}% of the trial")


def test_bench_campaign_cache():
    """A warm campaign sweep must be all cache hits and >= 10x faster.

    CI scale: an 8-job grid (2 policies x 4 seeds, each
    job 2 trials x 150 users x 5 steps) swept twice from the same
    content-addressed cache.  The cold pass computes and publishes every
    job; the warm pass never simulates — it is bounded by sha256 hashing
    plus checkpoint-envelope reads, so the 10x floor holds with huge
    margin (typically 50-500x) and regressions here mean the cache key or
    the read path broke, not that the host is slow.  Bit-identity of
    cached vs fresh series is pinned separately in
    ``tests/campaign/test_campaign_cache.py``; the full-scale 24-job
    numbers are recorded in ``BENCH_core.json`` under
    ``campaign-orchestrator``.
    """
    import tempfile

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="bench",
        policies=("retraining", "static"),
        population_sizes=(150,),
        seeds=(1, 2, 3, 4),
        num_trials=2,
        start_year=2002,
        end_year=2006,
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        cold_seconds = _timed(lambda: run_campaign(spec, cache_dir))
        warm = {}
        warm_seconds = _timed(
            lambda: warm.update(result=run_campaign(spec, cache_dir))
        )
    result = warm["result"]
    speedup = cold_seconds / max(warm_seconds, 1e-12)
    print(
        f"\ncampaign sweep ({spec.grid_size} jobs): cold {cold_seconds:.3f}s vs "
        f"warm {warm_seconds:.3f}s ({speedup:.1f}x, hit rate {result.hit_rate:.2f})"
    )
    assert result.hit_rate == 1.0
    _perf_gate(speedup >= 10.0, f"warm campaign sweep only {speedup:.1f}x faster")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
