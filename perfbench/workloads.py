"""The benchmark's workloads, each driven only through the public API.

A workload builds its inputs from the benchmark seed and runs them with
``execution="auto"`` (or any explicit layout, for the planner regret).  Its
group series are digested, so every run can be checked against a serial
reference of the same seed.  The campaign also has a *warm* action: the
same grid re-answered from the cache the run filled.

``repro`` is imported lazily inside :func:`build`, so importing this module
is cheap and the set-up probe times the package import itself.
"""

from __future__ import annotations

import hashlib
import importlib
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

#: Layouts the planner regret compares ``auto`` against.
EXPLICIT_LAYOUTS = ("serial", "batch", "pool", "shard")


def _digest_arrays(arrays) -> str:
    import numpy as np

    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def experiment_digest(result) -> str:
    """Digest every trial's per-race ADR series and approval series."""
    from repro.data.census import Race

    def arrays():
        for trial in result.trials:
            for race in Race:
                yield trial.group_default_rates[race]
            yield trial.approval_rate_series()

    return _digest_arrays(arrays())


def campaign_digest(series_list) -> str:
    """Digest every job's stacked per-race ADR and approval series, in job order."""
    from repro.data.census import Race

    def arrays():
        for series in series_list:
            for race in Race:
                yield series.group_default_rates[race]
            yield series.approval_rates

    return _digest_arrays(arrays())


def _layout_key(plan) -> Tuple:
    """What a plan actually does, so equivalent plans are measured once."""
    return (
        plan.trial_batch,
        plan.max_workers if plan.parallel and (plan.max_workers or 1) > 1 else 1,
        plan.num_shards if plan.shard_parallel else 1,
    )


class ExperimentWorkload:
    """A ``CaseStudyConfig`` run with ``run_experiment``, then fig3/4/5.

    The experiment layer keeps no results, so there is no warm action: a
    warm repeat recomputes in full.
    """

    warm_repeats = 0

    def __init__(self, name: str, config) -> None:
        self.name = name
        self.config = config
        # The package re-exports each figure function under its module's
        # name, so the modules are fetched by their full dotted names.
        self._figure_modules = tuple(
            importlib.import_module(f"repro.experiments.{module}")
            for module in ("fig3_race_adr", "fig4_user_adr", "fig5_density")
        )

    def run(self, execution: str = "auto"):
        from repro.experiments import runner

        result = runner.run_experiment(replace(self.config, execution=execution))
        # Resolved per call, so wrappers installed later are the ones called.
        fig3, fig4, fig5 = self._figure_modules
        fig3.fig3_race_adr(result=result)
        fig4.fig4_user_adr(result=result)
        fig5.fig5_density(result=result)
        return result

    def digest(self, result) -> str:
        return experiment_digest(result)

    def release(self, result) -> None:
        pass

    def reference_digest(self) -> str:
        from repro.experiments import runner

        return experiment_digest(
            runner.run_experiment(replace(self.config, execution="serial"))
        )

    def plan(self, execution: str = "auto"):
        from repro.core.planner import plan_execution

        config = self.config
        return plan_execution(
            execution,
            trials=config.num_trials,
            users=config.num_users,
            steps=config.num_steps,
            history_mode=config.history_mode,
            retrain_mode=config.retrain_mode,
        )

    def close(self) -> None:
        pass


class CampaignWorkload:
    """A 24-job grid swept cold into an empty cache, then warm from it.

    A run is the cold sweep; the warm action re-sweeps the same cache,
    which must answer every job (hit rate 1.0) with the cold series.
    """

    name = "campaign_grid"
    warm_repeats = 5

    def __init__(self, spec, work: Path) -> None:
        from repro.campaign import expand_campaign

        self.spec = spec
        self.jobs = expand_campaign(spec)
        self._work = work
        self._sweeps = 0
        work.mkdir(parents=True, exist_ok=True)

    def run(self, execution: str = "auto"):
        from repro.campaign import runner

        self._sweeps += 1
        cache = self._work / f"cache-{self._sweeps}"
        spec = replace(self.spec, execution=execution)
        cold = runner.run_campaign(spec, cache)
        if cold.hit_rate != 0.0:
            raise AssertionError(f"cold sweep hit rate {cold.hit_rate}, expected 0.0")
        return spec, cache, cold

    def warm(self, held):
        from repro.campaign import runner

        spec, cache, _ = held
        again = runner.run_campaign(spec, cache)
        if again.hit_rate != 1.0:
            raise AssertionError(f"warm sweep hit rate {again.hit_rate}, expected 1.0")
        return spec, cache, again

    def digest(self, held) -> str:
        return campaign_digest(outcome.series for outcome in held[2].outcomes)

    def release(self, held) -> None:
        shutil.rmtree(held[1], ignore_errors=True)

    def reference_digest(self) -> str:
        """Run every job directly through ``run_experiment``, serially."""
        from repro.campaign import CampaignJobSeries
        from repro.experiments.runner import run_experiment

        return campaign_digest(
            CampaignJobSeries.from_experiment(
                run_experiment(
                    replace(job.config, execution="serial"),
                    policy_factory=job.policy_factory(),
                    income_table=job.income_table(),
                )
            )
            for job in self.jobs
        )

    def plan(self, execution: str = "auto"):
        """Return the plan each job resolves on its share of the cores."""
        from repro.core.planner import plan_campaign_jobs, plan_execution

        budget = plan_campaign_jobs(len(self.jobs), max_workers=self.spec.max_workers)
        config = self.jobs[0].config
        return plan_execution(
            execution,
            trials=config.num_trials,
            users=config.num_users,
            steps=config.num_steps,
            history_mode=config.history_mode,
            retrain_mode=config.retrain_mode,
            cpu_count=budget.cores_per_job,
        )

    def close(self) -> None:
        shutil.rmtree(self._work, ignore_errors=True)


def build(name: str, seed: int, work: Path):
    """Build one workload's inputs from the benchmark seed."""
    if name == "giant_trial":
        from repro.experiments import CaseStudyConfig

        config = CaseStudyConfig(
            num_users=1_000_000,
            num_trials=1,
            end_year=2021,
            history_mode="aggregate",
            retrain_mode="compressed",
            seed=seed,
            execution="auto",
        )
        return ExperimentWorkload(name, config)
    if name == "campaign_grid":
        from repro.campaign import CampaignSpec

        # widening-gap names its race explicitly: without the parameter
        # the arm raises KeyError while building its income table.
        spec = CampaignSpec(
            name="perfbench",
            scenarios=(
                "baseline",
                "recession",
                {"name": "widening-gap", "disadvantaged": "BLACK"},
            ),
            policies=("retraining", "static", "parity", "steering"),
            population_sizes=(1000,),
            seeds=(2 * seed, 2 * seed + 1),
            num_trials=5,
            start_year=2002,
            end_year=2020,
            # Full history, as the paper's figures need, so the benchmark
            # also measures per-user recording.
            history_mode="full",
            execution="auto",
        )
        return CampaignWorkload(spec, work / "campaign")
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


WORKLOADS = ("giant_trial", "campaign_grid")


def explicit_layouts(workload) -> List[str]:
    """Return one explicit layout per distinct plan, in ``EXPLICIT_LAYOUTS`` order."""
    seen: Dict[Tuple, str] = {}
    for execution in EXPLICIT_LAYOUTS:
        seen.setdefault(_layout_key(workload.plan(execution)), execution)
    return list(seen.values())
