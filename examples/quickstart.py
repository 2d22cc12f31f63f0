"""Quickstart: run the closed loop once and assess equal treatment / impact.

This example builds the smallest interesting instance of the paper's
framework — a few hundred simulated households, the retraining scorecard
lender, the cumulative default-rate filter — runs the loop over 2002-2020,
and prints the two assessments the paper's definitions ask for.

It then reruns the same simulation through each engine variant in turn —
streaming aggregation, the lockstep kernel on one and two threads, the
trial-batched sweep, a
kill-and-resume demonstration of the fault-tolerant checkpointing, the
unified execution planner (``execution="auto"``) that picks among all of
the above by itself, and finally a declarative scenario campaign swept
twice through the content-addressed result cache — showing at every step
that the trajectory stays bit-identical.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    ClosedLoop,
    CreditPopulation,
    CreditScoringSystem,
    DefaultRateFilter,
    equal_impact_assessment,
    equal_treatment_assessment,
    impact_gap_significance,
)
from repro.core.metrics import group_average_series
from repro.credit.lender import Lender
from repro.data import PopulationSpec, generate_population
from repro.data.census import Race


def main() -> None:
    num_users = 400
    num_years = 19  # 2002-2020

    # 1. Users: a synthetic population with the paper's race mix.
    population_spec = PopulationSpec(size=num_users)
    synthetic = generate_population(population_spec, rng=7)
    population = CreditPopulation(population=synthetic, start_year=2002)

    # 2. AI system: the retraining scorecard lender (cut-off 0.4, 2 warm-up years).
    ai_system = CreditScoringSystem(Lender(cutoff=0.4, warm_up_rounds=2))

    # 3. Filter: cumulative average default rates, the paper's training signal.
    loop_filter = DefaultRateFilter(num_users=num_users)

    # 4. Close the loop and run it.
    loop = ClosedLoop(ai_system=ai_system, population=population, loop_filter=loop_filter)
    history = loop.run(num_years, rng=7)

    # Equal treatment (Definition 1) over the warm-up years: everyone got the
    # same signal, so the assessment reports a uniform signal.
    treatment = equal_treatment_assessment(
        history.decisions_matrix()[:2], history.actions_matrix()[:2]
    )
    print("Warm-up years uniform signal:", treatment.uniform_signal)

    # Equal impact (Definition 4, conditioned on race) on the default rates.
    default_rates = history.running_default_rates()
    groups = population.groups
    impact = equal_impact_assessment(
        default_rates, groups=groups, tolerance=0.05, already_averaged=True
    )
    print("Long-run default rate per race:")
    for race, limit in impact.group_limits.items():
        print(f"  {race.value:<12} {limit:.4f}")
    print(f"Cross-race gap: {impact.max_group_gap:.4f} "
          f"({'within' if impact.satisfied else 'outside'} tolerance {impact.tolerance})")

    # The paper's Figure 3 quantity: race-wise ADR over the years.
    series = group_average_series(default_rates, groups)
    print("\nRace-wise average default rate, first/last simulated year:")
    for race in Race:
        values = series[race]
        print(f"  {race.value:<12} 2002: {values[0]:.3f}   2020: {values[-1]:.3f}")

    # Is the remaining cross-race gap larger than the simulation noise?
    significance = impact_gap_significance(history.actions_matrix(), groups, num_batches=4)
    print(
        f"\nLong-run repayment-rate gap {significance.gap:.4f} "
        f"(combined uncertainty {significance.gap_uncertainty:.4f}): "
        + ("significant" if significance.gap_is_significant else "within noise")
    )

    streaming_variant(series)


def streaming_variant(full_history_series) -> None:
    """The same simulation in bounded memory (``history_mode="aggregate"``).

    The streaming recorder never materialises a ``(steps, users)`` matrix:
    it folds each step into group-level running series.  Recording is
    passive, so the loop dynamics — and therefore the group series — are
    bit-identical to the full-history run above.  This is the mode to use
    when scaling ``num_users`` into the millions.
    """
    num_users = 400
    num_years = 19

    synthetic = generate_population(PopulationSpec(size=num_users), rng=7)
    population = CreditPopulation(population=synthetic, start_year=2002)
    loop = ClosedLoop(
        ai_system=CreditScoringSystem(Lender(cutoff=0.4, warm_up_rounds=2)),
        population=population,
        loop_filter=DefaultRateFilter(num_users=num_users),
    )
    history = loop.run(
        num_years, rng=7, history_mode="aggregate", groups=population.groups
    )

    print("\n-- streaming variant (history_mode='aggregate') --")
    series = history.group_default_rate_series()
    for race in Race:
        identical = bool(np.array_equal(series[race], full_history_series[race]))
        print(
            f"  {race.value:<12} 2002: {series[race][0]:.3f}   "
            f"2020: {series[race][-1]:.3f}   bit-identical to full history: {identical}"
        )
    try:
        history.decisions_matrix()
    except Exception as error:  # FullHistoryRequiredError: per-user rows were dropped
        print(f"  per-user accessors fail loudly: {type(error).__name__}")

    kernel_threads_variant()


def kernel_threads_variant() -> None:
    """The lockstep kernel on one thread and on two.

    The population is always partitioned into canonical user shards, each
    on its own derived random stream.  The lockstep kernel
    (``execution="batch"``) steps runs of whole shards on threads — one
    per usable core from 65,536 users up — so the thread count never
    changes a single bit of the trajectory.  ``max_workers`` caps the
    count, and the plan names the count it picked (a one-core host runs
    both variants on one thread).
    """
    from dataclasses import replace

    from repro.core.planner import plan_execution
    from repro.experiments import CaseStudyConfig, run_experiment

    config = CaseStudyConfig(
        num_users=65_536,
        num_trials=1,
        history_mode="aggregate",
        execution="batch",
    )
    print("\n-- lockstep kernel threads (execution='batch', max_workers 1 vs 2) --")
    series = {}
    for threads in (1, 2):
        variant = replace(config, max_workers=threads)
        plan = plan_execution(
            variant.execution,
            trials=variant.num_trials,
            users=variant.num_users,
            steps=variant.num_steps,
            max_workers=threads,
        )
        print(f"  max_workers={threads}: {plan.describe()}")
        series[threads] = run_experiment(variant).trials[0].group_default_rates
    for race in Race:
        identical = bool(np.array_equal(series[1][race], series[2][race]))
        print(f"  {race.value:<12} 2 threads bit-identical to 1: {identical}")

    batched_sweep_variant()


def batched_sweep_variant() -> None:
    """A whole Monte-Carlo sweep in lockstep (``execution="batch"``).

    The paper's figures average many seeded trials of the same loop.  The
    trial-batched engine stacks all of them into ``(trials, users)``
    tensors and advances them through one fused step loop — every trial
    still rides its own derived random streams and refits its own
    scorecard, so each batched trial is bit-identical to its serial
    ``run_trial`` twin (shown below).  On a single core this amortises the
    fixed per-step dispatch across the whole sweep (~2.3x on a 32-trial x
    1k-user sweep; see ``BENCH_core.json`` entry ``trial-batched-engine``),
    where process pools would only add IPC; with many real cores, prefer
    the trial pool (``execution="pool"``) instead.
    """
    from dataclasses import replace

    from repro.experiments import CaseStudyConfig, run_experiment

    config = CaseStudyConfig(num_users=300, num_trials=6)
    serial = run_experiment(config)
    batched = run_experiment(replace(config, execution="batch"))

    print("\n-- trial-batched sweep (execution='batch', 6 trials in lockstep) --")
    for index, (serial_trial, batched_trial) in enumerate(
        zip(serial.trials, batched.trials)
    ):
        identical = bool(
            np.array_equal(
                serial_trial.user_default_rates, batched_trial.user_default_rates
            )
        )
        print(f"  trial {index}: bit-identical to its serial twin: {identical}")
    gap = {
        race: float(batched.group_mean_series()[race][-1]) for race in Race
    }
    print(
        "  across-trial mean final ADR per race: "
        + "  ".join(f"{race.name}: {value:.3f}" for race, value in gap.items())
    )

    kill_and_resume_variant()


def kill_and_resume_variant() -> None:
    """Kill a run mid-flight, then resume it — bit-identically.

    With ``checkpoint_every`` set, each trial snapshots its full loop
    state (history, filter counts, scorecard state, random-stream base)
    crash-consistently every N steps, and each completed trial persists
    its result.  Here a child interpreter running the experiment is
    hard-killed partway through (a real ``os._exit``, the moral
    equivalent of an OOM kill); the parent then reruns the same command
    with ``resume=True``, which skips finished trials, restores the
    interrupted one from its latest intact snapshot, and — because the
    random streams are stateless per ``(trial, shard, step)`` — replays
    the exact bytes the uninterrupted run would have produced.  From the
    command line the same flow is
    ``python -m repro.cli fig3 --checkpoint-dir ckpt --checkpoint-every 5``
    rerun with ``--resume`` after the crash.
    """
    import os
    import subprocess
    import sys
    import tempfile
    from dataclasses import replace

    from repro.experiments import CaseStudyConfig, run_experiment
    from repro.testing.faults import FaultSpec, plan_environment

    config = CaseStudyConfig(num_users=300, num_trials=3, seed=11)
    golden = run_experiment(config)

    print("\n-- kill-and-resume variant (checkpoint_every=5, resume=True) --")
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        # The victim: the same experiment, checkpointing, killed by an
        # injected fault at step 12 of trial 1 (the test-only harness in
        # repro.testing.faults delivers the kill through the environment).
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.experiments import CaseStudyConfig, run_experiment\n"
            "run_experiment(CaseStudyConfig(\n"
            "    num_users=300, num_trials=3, seed=11,\n"
            "    checkpoint_dir=sys.argv[2], checkpoint_every=5,\n"
            "))\n"
        )
        environment = dict(os.environ)
        environment.update(
            plan_environment(
                [FaultSpec(site="loop_step", kind="kill", step=12)],
                state_dir=checkpoint_dir,
            )
        )
        source_root = os.path.join(os.path.dirname(__file__), "..", "src")
        victim = subprocess.run(
            [sys.executable, "-c", script, source_root, checkpoint_dir],
            env=environment,
        )
        survivors = sorted(
            name for name in os.listdir(checkpoint_dir) if name.endswith((".ckpt", ".result"))
        )
        print(f"  victim exit code: {victim.returncode} (killed mid-run)")
        print(f"  on disk at the crash: {', '.join(survivors)}")

        resumed = run_experiment(
            replace(
                config,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=5,
                resume=True,
            )
        )
        for index, (golden_trial, resumed_trial) in enumerate(
            zip(golden.trials, resumed.trials)
        ):
            identical = bool(
                np.array_equal(
                    golden_trial.user_default_rates, resumed_trial.user_default_rates
                )
            )
            print(
                f"  trial {index}: resumed run bit-identical to uninterrupted: {identical}"
            )

    planner_variant()


def planner_variant() -> None:
    """One knob picks the layout (``execution="auto"``).

    Every layout shown above — the serial loop, the trial-batched
    tensor engine and its threads, the trial pool — sits behind the
    unified execution planner.  ``execution="auto"`` inspects the host's
    core count and the workload shape (trials, users, steps,
    history mode, checkpoint knobs) and picks the layout itself.
    ``execution`` defaults to ``"serial"``; every other value is one
    ``dataclasses.replace`` away.
    The knob is purely a wall-clock choice: whatever plan the planner
    picks — on whatever machine — the trajectory is bit-identical to
    the serial reference, so a config carrying ``execution="auto"`` is
    safe to share between a laptop, a 64-core box and a CI runner.
    """
    from repro.core.planner import plan_execution
    from repro.experiments import CaseStudyConfig, run_experiment

    config = CaseStudyConfig(num_users=300, num_trials=4, execution="auto")
    plan = plan_execution(
        "auto",
        trials=config.num_trials,
        users=config.num_users,
        steps=config.num_steps,
    )
    serial = run_experiment(CaseStudyConfig(num_users=300, num_trials=4))
    auto = run_experiment(config)  # the config knob routes through the planner

    print("\n-- unified planner variant (execution='auto') --")
    print(f"  plan on this host: {plan.describe()}")
    for index, (serial_trial, auto_trial) in enumerate(
        zip(serial.trials, auto.trials)
    ):
        identical = bool(
            np.array_equal(
                serial_trial.user_default_rates, auto_trial.user_default_rates
            )
        )
        print(f"  trial {index}: bit-identical to the serial reference: {identical}")

    campaign_variant()


def campaign_variant() -> None:
    """A declarative scenario grid through the result cache.

    The paper's figures are grids: scenario x policy x seed, averaged and
    plotted.  ``repro.campaign`` declares such a grid once
    (:class:`CampaignSpec`), expands it into jobs, and sweeps the misses
    through the planner with the host's cores split *across* jobs — whole
    experiments are embarrassingly parallel, so job-level concurrency
    beats giving each job the full machine.  Every finished job is
    published to a content-addressed cache under a key that digests only
    the trajectory-defining fields (never the execution layout — layouts
    are bit-identical), so re-running the sweep after editing a plotting
    script, adding a seed, or moving to a machine with a different core
    count recomputes only what is genuinely new.  From the command line:
    ``python -m repro.cli campaign --spec grid.toml``.
    """
    import tempfile
    import time

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="quickstart",
        scenarios=("baseline", "recession"),
        policies=("retraining", "static"),
        population_sizes=(200,),
        seeds=(1, 2),
        num_trials=2,
        start_year=2002,
        end_year=2008,
    )
    print("\n-- campaign variant (declarative grid + result cache) --")
    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        cold = run_campaign(spec, cache_dir)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_campaign(spec, cache_dir)
        warm_seconds = time.perf_counter() - start
    print(f"  grid: {spec.grid_size} jobs ({cold.budget.describe()})")
    print(
        f"  cold sweep: {cold_seconds:.2f}s ({cold.misses} computed), "
        f"warm sweep: {warm_seconds:.3f}s ({warm.hits} cache hits, "
        f"{cold_seconds / max(warm_seconds, 1e-9):.0f}x faster)"
    )
    for before, after in zip(cold.outcomes, warm.outcomes):
        identical = all(
            bool(
                np.array_equal(
                    before.series.group_default_rates[race],
                    after.series.group_default_rates[race],
                    equal_nan=True,
                )
            )
            for race in Race
        )
        print(
            f"  {after.job.job_id}: cached series bit-identical: {identical}"
        )


if __name__ == "__main__":
    main()
