"""Record the core-engine timings to ``BENCH_core.json``.

Runs the 100k-user x 20-step workloads of ``test_bench_perf_engine.py`` at
full scale and appends one timestamped entry to ``BENCH_core.json`` at the
repository root, so the engine's performance trajectory is tracked across
PRs.  The file's first entry is the baseline measured at the seed commit
(record-of-dicts history, per-user IFS loop, recompute-only metrics).

The entry also records the history-mode memory ceilings at million-user
scale (see ``mem_probe``): the peak RSS of a no-recorder trial, of a
full-history trial and of a streaming (``history_mode="aggregate"``)
trial, plus the derived recorder overheads and their ratio — the
regression target of ``test_bench_streaming_memory_ceiling``.

Usage::

    PYTHONPATH=src python benchmarks/record_core_bench.py \
        [--label LABEL] [--users N] [--memory-users N | --skip-memory]

Earlier entries also hold the retired process shard pool's layout and
transport timings (``sharded_trial_*``, ``sharedmem_*``); they stay in
``BENCH_core.json`` as history.

The entry records the retrain-mode timings (``measure_retrain``):
the per-year refit in ``exact`` (row-level IRLS) vs ``compressed``
(sufficient-statistics count table) mode on a training set captured from a
real loop step, the unique-row count the compression collapses to, and the
whole-trial wall clocks per mode — the refit is a serial phase of every
step, so this is the Amdahl number.

The entry also records the trial-batched engine timings
(``measure_trial_batched``): serial vs lockstep ``execution="batch"``
experiment wall clocks (bit-identical by construction) at the 8-trial x
20k-user x 20-step workload in both retrain modes, and at a 32-trial x
1k-user Monte-Carlo sweep — the many-seeded-trials regime the batched
engine targets.  Each side is a min of two runs.

Finally the entry records the checkpoint-overhead timings
(``measure_checkpoint_overhead``): a 20k-user x 400-step aggregate-mode
trial with and without ``checkpoint_every=100`` crash-consistent
snapshotting, plus the snapshot's on-disk size — the fault-tolerance
budget is < 5% overhead at that cadence.

The entry also records the campaign orchestrator timings
(``measure_campaign``): a figure-sized 24-job scenario x policy x seed x
retrain-mode grid swept twice from one content-addressed result cache —
the cold pass computes every job through the planner-routed job pool, the
warm pass is a pure cache read (hit rate 1.0) — plus the cache's on-disk
size and the job-pool core budget.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_core.json"


def _git_revision() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        )
    except Exception:
        return "unknown"


def measure(num_users: int) -> dict:
    from repro.core.population import IFSPopulation
    from repro.experiments.config import CaseStudyConfig
    from repro.experiments.runner import run_trial
    from repro.markov.ifs import SignalDependentIFS
    from repro.markov.maps import AffineMap

    config = CaseStudyConfig(num_users=num_users, num_trials=1, end_year=2021)

    start = time.perf_counter()
    trial = run_trial(config, trial_index=0)
    trial_seconds = time.perf_counter() - start

    history = trial.history
    history.running_default_rates()  # warm-up
    start = time.perf_counter()
    for _ in range(200):
        history.running_default_rates()
        history.running_action_averages()
        history.approval_rates()
    metrics_incremental_ms = (time.perf_counter() - start) / 200 * 1e3
    start = time.perf_counter()
    for _ in range(3):
        history.recompute_running_default_rates()
        history.recompute_running_action_averages()
        history.recompute_approval_rates()
    metrics_recompute_ms = (time.perf_counter() - start) / 3 * 1e3

    shared = SignalDependentIFS(
        transition_maps=(AffineMap.scalar(0.5, 0.0), AffineMap.scalar(0.5, 0.5)),
        transition_probabilities=lambda s: [0.8, 0.2] if s > 0.5 else [0.3, 0.7],
        output_maps=(AffineMap.scalar(1.0, 0.0), AffineMap.scalar(0.0, 1.0)),
        output_probabilities=lambda s: [0.6, 0.4] if s > 0.5 else [0.1, 0.9],
    )
    initial = [np.array([0.0])] * num_users
    decisions = (np.arange(num_users) % 2).astype(float)
    batched = IFSPopulation(users=[shared] * num_users, initial_states=initial)
    generator = np.random.default_rng(0)
    batched.respond(decisions, 0, generator)  # warm-up
    start = time.perf_counter()
    for k in range(3):
        batched.respond(decisions, k, generator)
    ifs_batched_ms = (time.perf_counter() - start) / 3 * 1e3
    fallback = IFSPopulation(
        users=[shared] * num_users, initial_states=initial, vectorize=False
    )  # the seed engine's per-user loop
    start = time.perf_counter()
    fallback.respond(decisions, 0, np.random.default_rng(0))
    ifs_loop_ms = (time.perf_counter() - start) * 1e3

    return {
        "cpu_count": os.cpu_count(),
        "trial_100k_x20_s": round(trial_seconds, 4),
        "metrics_query_incremental_ms": round(metrics_incremental_ms, 5),
        "metrics_query_recompute_ms": round(metrics_recompute_ms, 3),
        "metrics_speedup_x": round(metrics_recompute_ms / max(metrics_incremental_ms, 1e-9), 1),
        "ifs_respond_batched_ms": round(ifs_batched_ms, 3),
        "ifs_respond_per_user_loop_ms": round(ifs_loop_ms, 1),
        "ifs_speedup_x": round(ifs_loop_ms / max(ifs_batched_ms, 1e-9), 1),
    }


def measure_retrain(num_users: int) -> dict:
    """Time the yearly refit: exact row-level IRLS vs sufficient statistics.

    The training set is captured from a real closed-loop step (year ~12 of
    a full-scale trial), so the timings reflect the label balance, the
    offered-mask density and — crucially — the degeneracy of the previous
    average default rates (small-integer ratios) that the compressed mode's
    count table exploits.  Alongside the isolated refit timings the entry
    records whole-trial wall clocks per retrain mode: the refit is the
    dominant serial phase, so the trial ratio is the Amdahl headline.
    """
    import retrain_probe

    from repro.experiments.config import CaseStudyConfig
    from repro.experiments.runner import run_trial
    from repro.scoring.features import clipped_default_rates, income_code
    from repro.scoring.suffstats import CompressedDesign

    config = CaseStudyConfig(num_users=num_users, num_trials=1, end_year=2021)
    timings: dict = {}
    for key, kwargs in (
        ("trial_exact_s", dict(retrain_mode="exact")),
        ("trial_compressed_s", dict(retrain_mode="compressed")),
        ("trial_compressed_warm_s", dict(retrain_mode="compressed", warm_start=True)),
    ):
        start = time.perf_counter()
        run_trial(replace(config, **kwargs), trial_index=0)
        timings[key] = round(time.perf_counter() - start, 4)
    timings["trial_speedup_compressed_x"] = round(
        timings["trial_exact_s"] / max(timings["trial_compressed_s"], 1e-9), 2
    )

    rows = retrain_probe.capture_retrain_rows(config)
    incomes, rates, actions, decisions = rows
    # Same compression recipe as Lender._retrain_compressed (including the
    # tolerance clip), so the reported unique-row count is what the timed
    # refits actually see.
    table = CompressedDesign.from_arrays(
        income_code(incomes), clipped_default_rates(rates), actions, offered=decisions
    )
    timings["retrain_rows"] = int(decisions.sum())
    timings["retrain_unique_rows"] = table.num_unique
    for key, mode in (("retrain_exact_ms", "exact"), ("retrain_compressed_ms", "compressed")):
        timings[key] = round(retrain_probe.time_retrain(mode, rows) * 1e3, 3)
    timings["retrain_speedup_x"] = round(
        timings["retrain_exact_ms"] / max(timings["retrain_compressed_ms"], 1e-9), 1
    )
    return timings


def measure_trial_batched() -> dict:
    """Time serial vs trial-batched experiments (identical results).

    Two workloads: the 8 x 20k x 20 target of the trial-batching issue
    (where per-trial C work — income draws, probit, refits, history
    memcpy — dominates and bounds the achievable ratio) and a 32 x 1k x 20
    Monte-Carlo sweep (many paper-scale trials, the regime where the
    amortised per-step dispatch is the larger fraction).  ``cpu_count``
    travels with the numbers: batching is the single-core strategy, while
    trial pooling overtakes it once real cores exist.
    """
    import timeit

    from repro.experiments.config import CaseStudyConfig
    from repro.experiments.runner import run_experiment

    headline = CaseStudyConfig(num_users=20_000, num_trials=8, end_year=2021)
    sweep = CaseStudyConfig(num_users=1_000, num_trials=32, end_year=2021)
    workloads = [
        ("trials8_users20k_exact", headline, {}),
        ("trials8_users20k_compressed", headline, {"retrain_mode": "compressed"}),
        ("sweep_trials32_users1k_compressed", sweep, {"retrain_mode": "compressed"}),
    ]
    timings: dict = {"cpu_count": os.cpu_count()}
    for key, config, kwargs in workloads:
        serial_config = replace(config, **kwargs)
        batched_config = replace(serial_config, execution="batch")
        run_experiment(batched_config)  # warm caches
        serial = min(
            timeit.repeat(lambda: run_experiment(serial_config), number=1, repeat=2)
        )
        batched = min(
            timeit.repeat(lambda: run_experiment(batched_config), number=1, repeat=2)
        )
        timings[f"{key}_serial_s"] = round(serial, 4)
        timings[f"{key}_batched_s"] = round(batched, 4)
        timings[f"{key}_batched_speedup_x"] = round(serial / max(batched, 1e-9), 2)
    return timings


def measure_checkpoint_overhead() -> dict:
    """Time a long-horizon trial with and without step checkpointing.

    The fault-tolerance issue budgets checkpointing at < 5% of trial wall
    clock with ``checkpoint_every=100``, so the workload must actually
    cross several boundaries: 20k users x 400 steps (the income table
    clamps past its last calibrated year) in ``history_mode="aggregate"``,
    whose bounded snapshot (group series + filter counts + lender state,
    no per-user history matrices) is the recommended pairing for long
    runs.  Two readings are recorded: the end-to-end A/B delta (min of
    two runs per side — noisy on a busy host) and the instrumented
    fraction (wall clock inside :meth:`CheckpointSpec.write` over trial
    wall clock — the regression target of
    ``test_bench_checkpoint_overhead``), plus the on-disk snapshot size,
    since the write cost is dominated by serialize + fsync of exactly
    those bytes.
    """
    import tempfile

    from repro.core import checkpoint as checkpoint_module
    from repro.core.checkpoint import list_checkpoints
    from repro.experiments.config import CaseStudyConfig
    from repro.experiments.runner import run_trial

    config = CaseStudyConfig(num_users=20_000, num_trials=1, end_year=2401)

    def timed(**kwargs) -> float:
        start = time.perf_counter()
        run_trial(replace(config, history_mode="aggregate", **kwargs), trial_index=0)
        return time.perf_counter() - start

    timed()  # warm caches
    baseline = min(timed() for _ in range(2))
    spent = {"seconds": 0.0}
    original_write = checkpoint_module.CheckpointSpec.write

    def instrumented_write(self, payload):
        start = time.perf_counter()
        try:
            return original_write(self, payload)
        finally:
            spent["seconds"] += time.perf_counter() - start

    with tempfile.TemporaryDirectory() as snapshots:
        checkpoint_module.CheckpointSpec.write = instrumented_write
        try:
            runs = []
            for _ in range(2):
                spent["seconds"] = 0.0
                runs.append(timed(checkpoint_dir=snapshots, checkpoint_every=100))
            checkpointed = min(runs)
        finally:
            checkpoint_module.CheckpointSpec.write = original_write
        newest = list_checkpoints(snapshots, "trial-0000")[0][1]
        snapshot_kb = newest.stat().st_size / 1024
    return {
        "checkpoint_trial_20k_x400_baseline_s": round(baseline, 4),
        "checkpoint_trial_20k_x400_every100_s": round(checkpointed, 4),
        "checkpoint_overhead_pct": round(
            (checkpointed - baseline) / baseline * 100, 2
        ),
        "checkpoint_write_time_pct": round(spent["seconds"] / runs[-1] * 100, 2),
        "checkpoint_snapshot_kb": round(snapshot_kb, 1),
    }


def measure_campaign() -> dict:
    """Time a figure-sized campaign sweep cold vs warm (all cache hits).

    A 24-job grid — 2 scenarios x 2 policies x 3 seeds x 2 retrain modes,
    each job a 2-trial x 400-user x 10-step experiment — is swept twice
    from the same content-addressed cache: the cold pass computes and
    publishes every job through the planner-routed job pool, the warm pass
    is a pure cache read (the key digests only trajectory-defining fields,
    so every entry hits regardless of execution layout).  The warm/cold
    ratio is the figure-iteration speedup the campaign orchestrator buys;
    the acceptance floor (>= 10x, warm hit rate 1.0) is enforced by
    ``test_bench_campaign_cache``.
    """
    import tempfile

    from repro.campaign import CampaignSpec, ResultCache, run_campaign

    spec = CampaignSpec(
        name="bench",
        scenarios=("baseline", "recession"),
        policies=("retraining", "static"),
        population_sizes=(400,),
        seeds=(1, 2, 3),
        retrain_modes=("exact", "compressed"),
        num_trials=2,
        start_year=2002,
        end_year=2011,
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        cold = run_campaign(spec, cache_dir)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_campaign(spec, cache_dir)
        warm_seconds = time.perf_counter() - start
        cache_bytes = ResultCache(cache_dir).total_bytes()
    return {
        "campaign_jobs": spec.grid_size,
        "campaign_budget": cold.budget.describe(),
        "campaign_cold_s": round(cold_seconds, 4),
        "campaign_warm_s": round(warm_seconds, 4),
        "campaign_warm_speedup_x": round(cold_seconds / max(warm_seconds, 1e-9), 1),
        "campaign_warm_hit_rate": warm.hit_rate,
        "campaign_cache_kb": round(cache_bytes / 1024, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="columnar-engine", help="entry label")
    parser.add_argument("--users", type=int, default=100_000, help="benchmark population size")
    parser.add_argument(
        "--memory-users",
        type=int,
        default=1_000_000,
        help="population size of the history-mode memory probes",
    )
    parser.add_argument(
        "--skip-memory",
        action="store_true",
        help="skip the (slow) subprocess memory probes",
    )
    parser.add_argument(
        "--skip-retrain",
        action="store_true",
        help="skip the retrain-mode (exact vs compressed) timings",
    )
    parser.add_argument(
        "--skip-trial-batch",
        action="store_true",
        help="skip the serial-vs-trial-batched experiment timings",
    )
    parser.add_argument(
        "--skip-campaign",
        action="store_true",
        help="skip the campaign cold-vs-warm cache timings",
    )
    parser.add_argument(
        "--skip-checkpoint",
        action="store_true",
        help="skip the checkpoint-overhead timings",
    )
    args = parser.parse_args()

    timings = measure(args.users)
    if not args.skip_retrain:
        timings.update(measure_retrain(args.users))
    if not args.skip_trial_batch:
        timings.update(measure_trial_batched())
    if not args.skip_checkpoint:
        timings.update(measure_checkpoint_overhead())
    if not args.skip_campaign:
        timings.update(measure_campaign())
    memory: dict = {}
    if not args.skip_memory:
        import mem_probe

        memory = {
            "memory_num_users": args.memory_users,
            **mem_probe.measure_history_memory(args.memory_users),
        }
    entry = {
        "label": args.label,
        "git": _git_revision(),
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "num_users": args.users,
        "num_steps": 20,
        **timings,
        **memory,
    }
    document = {"benchmark": "core-simulation-engine", "entries": []}
    if BENCH_PATH.exists():
        document = json.loads(BENCH_PATH.read_text())
    document["entries"].append(entry)
    BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(entry, indent=2))
    print(f"appended to {BENCH_PATH}")


if __name__ == "__main__":
    main()
