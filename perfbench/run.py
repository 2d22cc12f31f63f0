"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload giant_trial --seed 0 --seconds 45 --trace 0

Run from the root of a checkout.  This process runs one workload run at a
time (a closed loop with one client); the program's own pools are sized by
its planner.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every run's
output is checked against a serial reference of the same seed.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import workloads
from rss import PeakRss
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The seed whose serial digests are pinned in ``golden.json``.
DEFAULT_SEED = 0
#: Fresh-interpreter set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Measured runs made even when ``--seconds`` is spent sooner.
MIN_RUNS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(message, flush=True)


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------


def _blas_threads():
    """Return OpenBLAS's thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _git_rev() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return completed.stdout.strip() if completed.returncode == 0 else "unavailable"


def _source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content: the code under test."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "start_method": multiprocessing.get_start_method(),
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


class Tally:
    """Workload runs attempted and failed, and what the pools reported."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.fallbacks = 0


def _count_supervision(caught, tally: Tally) -> None:
    for record in caught:
        text = str(record.message)
        if issubclass(record.category, RuntimeWarning):
            if "rebuilding the pool" in text:
                tally.retries += 1
            elif "fell back" in text or "exhausted its retry budget" in text or (
                "pickle transport instead" in text
            ):
                tally.fallbacks += 1
        print(f"warning: {record.category.__name__}: {text}", file=sys.stderr)


def checked_run(workload, reference, execution, tally, rss=None, warm_repeats=0):
    """Run the workload once and check its output.

    Returns ``(run_s, peak bytes or None, [warm_s...])``, or ``None`` when
    the run raised, its digest (or a warm sweep's) differs from
    the serial reference, or it left a shared-memory segment behind.
    """
    from repro.core.shardmem import live_segments

    tally.attempted += 1
    before = set(live_segments())
    held = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if rss is not None:
                rss.start()
            try:
                start = perf_counter()
                held = workload.run(execution)
                run_s = perf_counter() - start
            finally:
                peak = rss.stop() if rss is not None else None
            problems = []
            if workload.digest(held) != reference:
                problems.append("digest differs from the serial reference")
            warm_samples = []
            for _ in range(warm_repeats):
                start = perf_counter()
                again = workload.warm(held)
                warm_samples.append(perf_counter() - start)
                if workload.digest(again) != reference:
                    problems.append("warm digest differs from the serial reference")
                    break
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        finally:
            if held is not None:
                workload.release(held)
    _count_supervision(caught, tally)
    leaked = set(live_segments()) - before
    if leaked:
        problems.append(f"leaked shared-memory segments {sorted(leaked)}")
    if problems:
        tally.failed += 1
        print(f"run failed ({execution}): {'; '.join(problems)}", file=sys.stderr)
        return None
    return run_s, peak, warm_samples


def repeat(seconds, minimum, once):
    """Call ``once`` until ``seconds`` have passed and it ran ``minimum`` times."""
    results = []
    calls = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or calls < minimum:
        calls += 1
        result = once()
        if result is not None:
            results.append(result)
    return results


def describe(values, unit: str) -> str:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    if not values:
        return "no samples"
    ordered = sorted(values)
    text = f"median {statistics.median(ordered):.6g} {unit}, n={len(ordered)}"
    if len(ordered) >= 4:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        text += f", IQR [{q1:.6g}, {q3:.6g}]"
    if len(ordered) >= 20:
        share = (len(ordered) - 10) / len(ordered)
        text += f", p{int(share * 100)} {ordered[len(ordered) - 11]:.6g}"
    return text


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------


def measure_setup(name: str, seed: int, work: Path) -> list:
    samples = []
    for index in range(SETUP_PROBES):
        probe_dir = work / f"setup-{index}"
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(probe_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def untraced(workload, reference, args, tally, work) -> dict:
    setup = measure_setup(args.workload, args.seed, work)
    log(f"setup_s: {describe(setup, 's')}")
    rss = PeakRss()
    try:
        # No separate warm-up: the serial reference run has already filled
        # the lazy caches (income CDFs, planner memos).
        runs = repeat(
            args.seconds,
            MIN_RUNS,
            lambda: checked_run(
                workload, reference, "auto", tally, rss, workload.warm_repeats
            ),
        )
    finally:
        rss.close()
    run_s = [run for run, _, _ in runs]
    if workload.warm_repeats:
        warm_s = [sample for _, _, samples in runs for sample in samples]
    else:
        # Nothing is kept between runs, so a warm repeat recomputes in
        # full: every run after the first in this process.
        warm_s = run_s[1:]
    peaks = [peak / 2**20 for _, peak, _ in runs]
    log(f"run_s: {describe(run_s, 's')}; in order: {' '.join(f'{v:.4g}' for v in run_s)}")
    log(f"warm_s: {describe(warm_s, 's')}")
    log(f"peak_rss_mb: {describe(peaks, 'MiB')}")
    if not warm_s:
        return {}
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(run_s),
        "warm_s": statistics.median(warm_s),
        "peak_rss_mb": statistics.median(peaks),
    }


def traced(workload, reference, args, tally, work) -> dict:
    from repro.core import shardmem

    # Untraced first: every distinct explicit layout plus auto, for the
    # planner regret and the tracing overhead.
    layouts = workloads.explicit_layouts(workload)
    share = args.seconds / (len(layouts) + 2)
    layout_s = {}
    for execution in layouts + ["auto"]:
        runs = repeat(
            share,
            2 if execution == "auto" else 1,
            lambda: checked_run(workload, reference, execution, tally),
        )
        if runs:
            layout_s[execution] = statistics.median(run for run, _, _ in runs)
        log(f"untraced {execution:>6}: {workload.plan(execution).describe()}: "
            f"{describe([run for run, _, _ in runs], 's')}")

    tracer = Tracer(work / "spool")
    tracer.install()
    for target in tracer.absent:
        log(f"absent span target (skipped): {target}")
    samples = []
    traced_s = []

    def once():
        tracer.reset()
        meter = shardmem.TransportMeter()
        shardmem.set_transport_meter(meter)
        before = (tally.retries, tally.fallbacks)
        try:
            result = checked_run(
                workload, reference, "auto", tally, warm_repeats=min(workload.warm_repeats, 1)
            )
        finally:
            shardmem.set_transport_meter(None)
        parent = {name: tracer.layer(name) for name in ("experiments.runner", "campaign.runner")}
        workers = tracer.merge_spool()
        if result is None:
            return None
        traced_s.append(result[0])
        samples.append(
            layer_metrics(
                tracer,
                parent,
                meter,
                tally.retries - before[0],
                tally.fallbacks - before[1],
            )
        )
        log(f"traced run: {result[0]:.4f} s, spans from {workers} worker process(es)")
        return result

    repeat(args.seconds - share * (len(layouts) + 1), 2, once)
    explicit = [layout_s[execution] for execution in layouts if execution in layout_s]
    if not samples or not explicit or "auto" not in layout_s:
        return {}
    metrics = {name: statistics.median(sample[name] for sample in samples) for name in samples[0]}
    metrics["core.planner.regret_x"] = layout_s["auto"] / min(explicit)
    metrics["trace.overhead_x"] = statistics.median(traced_s) / layout_s["auto"]
    return metrics


def layer_metrics(tracer, parent, meter, retries, fallbacks) -> dict:
    """One traced run's per-layer metrics (all but the regret and overhead)."""
    counters = tracer.counters
    income_calls, income_s = tracer.layer("data.income")
    repayment_calls, repayment_s = tracer.layer("credit.repayment")
    refit_calls, refit_s = tracer.layer("credit.lender.refit")
    fits, fit_s = tracer.layer("scoring.logistic")
    writes, write_s = tracer.layer("core.checkpoint.write")
    reads, read_s = tracer.layer("core.checkpoint.read")
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    offered = counters.get("suffstats.offered", 0)
    return {
        "data.income.calls": income_calls,
        "data.income.busy_s": income_s,
        "data.synthetic.busy_s": tracer.layer("data.synthetic")[1],
        "core.population.busy_s": tracer.layer("core.population")[1],
        "credit.repayment.calls": repayment_calls,
        "credit.repayment.busy_s": repayment_s,
        "credit.lender.decide_s": tracer.layer("credit.lender.decide")[1],
        "credit.lender.refit_calls": refit_calls,
        "credit.lender.refit_s": refit_s,
        "scoring.logistic.fits": fits,
        "scoring.logistic.iterations": counters.get("logistic.iterations", 0),
        "scoring.logistic.busy_s": fit_s,
        "scoring.suffstats.busy_s": tracer.layer("scoring.suffstats")[1],
        "scoring.suffstats.unique_ratio": (
            counters.get("suffstats.unique", 0) / offered if offered else 0.0
        ),
        "core.filters.busy_s": tracer.layer("core.filters")[1],
        "core.history.busy_s": tracer.layer("core.history")[1],
        "core.history.bytes": counters.get("history.bytes", 0),
        "core.streaming.busy_s": tracer.layer("core.streaming")[1],
        "core.loop.self_s": tracer.layer("core.loop")[1],
        "core.loop.steps": counters.get("loop.steps", 0),
        "experiments.batch.self_s": tracer.layer("experiments.batch")[1],
        "experiments.runner.pool_wait_s": parent["experiments.runner"][1],
        "experiments.runner.trials": counters.get("runner.trials", 0),
        "core.shardmem.shared_bytes_per_step": meter.per_step_shared(),
        "core.shardmem.pickled_bytes_per_step": meter.per_step_pickled(),
        "core.supervision.retries": retries,
        "core.supervision.fallbacks": fallbacks,
        "core.checkpoint.writes": writes,
        "core.checkpoint.write_s": write_s,
        "core.checkpoint.reads": reads,
        "core.checkpoint.read_s": read_s,
        "core.checkpoint.bytes_written": counters.get("checkpoint.bytes_written", 0),
        "campaign.cache.hits": hits,
        "campaign.cache.misses": misses,
        "campaign.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "campaign.runner.jobs": counters.get("campaign.jobs", 0),
        "campaign.runner.pool_wait_s": parent["campaign.runner"][1],
        "experiments.figures.busy_s": tracer.layer("experiments.figures")[1],
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def bench(args, work: Path) -> int:
    load_before = os.getloadavg()
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    workload = workloads.build(args.workload, args.seed, work / "workload")
    log(f"in-process set-up: {perf_counter() - start:.4f} s")
    try:
        log(f"plan: {workload.plan('auto').describe()}")
        tally = Tally()
        reference = workload.reference_digest()
        correct = True
        golden = json.loads((HERE / "golden.json").read_text())
        if args.seed == DEFAULT_SEED and golden.get(args.workload) != reference:
            print(
                f"serial reference {reference} differs from the pinned digest "
                f"{golden.get(args.workload)} of seed {DEFAULT_SEED}",
                file=sys.stderr,
            )
            correct = False
        log(f"serial reference digest: {reference}")
        mode = traced if args.trace else untraced
        metrics = mode(workload, reference, args, tally, work)
    finally:
        workload.close()
    facts = host_facts()
    facts["loadavg_before"] = [round(value, 2) for value in load_before]
    facts["loadavg_after"] = [round(value, 2) for value in os.getloadavg()]
    log(f"host: {json.dumps(facts)}")

    # BENCHMARK.json declares the metrics and their units; a metric it
    # declares that this run did not produce makes the run incorrect.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(metrics) != set(units):
        correct = False
    failed = tally.failed if correct else tally.attempted
    log(f"error_rate: {failed / max(tally.attempted, 1):.4g} "
        f"({failed} of {tally.attempted} runs failed)")
    log(f"core.supervision: {tally.retries} retries, {tally.fallbacks} fallbacks")
    report = {}
    for name in units:
        if name in metrics:
            report[name] = {"value": metrics[name], "unit": units[name]}
            log(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct and failed == 0,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": report,
            }
        )
    )
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker process the shared-memory runs started.

    It would otherwise outlive this process by the moment it takes to read
    the end of its pipe.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        return bench(args, work)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
