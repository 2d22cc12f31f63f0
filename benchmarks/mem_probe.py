"""Peak-RSS probes for the history-mode memory benchmark.

Each probe runs one closed-loop trial in a **fresh subprocess** and reports
the child's peak resident set size (``ru_maxrss``), so the measurements are
isolated from the parent and from each other (peak RSS is monotonic within
a process).  Three probes bracket the recording subsystem of the serial
loop:

* ``floor`` — the identical trial with recording discarded entirely: the
  memory cost of the *simulation itself* (population, lender retraining,
  filter), which no recorder can undercut;
* ``full`` — ``run_trial`` with ``history_mode="full"`` (columnar
  ``(steps, users)`` storage);
* ``aggregate`` — ``run_trial`` with ``history_mode="aggregate"``
  (streaming group-level series).

``peak - floor`` is the memory attributable to the recorder, which is the
quantity the streaming refactor targets: the full-history recorder scales
as O(steps * users), the streaming one as O(users).

A fourth probe, ``kernel``, runs the same trial the way ``execution="auto"``
runs every single trial in process: ``run_experiment`` on the lockstep
kernel (``execution="batch"``, one kernel thread per usable core) with
aggregate history.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

_SRC_PATH = str(Path(__file__).resolve().parent.parent / "src")

#: run_trial in a given history mode; prints the child's peak RSS in KiB.
_TRIAL_SNIPPET = """
import resource, sys
sys.path.insert(0, {src!r})
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_trial
config = CaseStudyConfig(
    num_users={users}, num_trials=1, end_year=2021, history_mode={mode!r}
)
trial = run_trial(config, trial_index=0)
assert trial.history.num_steps == config.num_steps
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

#: The same trial construction as run_trial, but every recorded step is
#: dropped on the floor — the no-recorder memory baseline.
_FLOOR_SNIPPET = """
import resource, sys
import numpy as np
sys.path.insert(0, {src!r})
from repro.core.ai_system import CreditScoringSystem
from repro.core.filters import DefaultRateFilter
from repro.core.loop import ClosedLoop
from repro.core.population import CreditPopulation
from repro.credit.lender import Lender
from repro.credit.mortgage import MortgageTerms
from repro.credit.repayment import GaussianRepaymentModel
from repro.data.census import default_income_table
from repro.data.synthetic import PopulationSpec, generate_population
from repro.experiments.config import CaseStudyConfig
from repro.utils.rng import derive_seed

config = CaseStudyConfig(num_users={users}, num_trials=1, end_year=2021)
rng = np.random.default_rng(derive_seed(config.seed, "trial", 0))
population = CreditPopulation(
    population=generate_population(
        PopulationSpec(size=config.num_users, race_mix=dict(config.race_mix)), rng
    ),
    income_table=default_income_table(),
    terms=MortgageTerms(
        income_multiple=config.income_multiple,
        annual_rate=config.annual_rate,
        living_cost=config.living_cost,
    ),
    repayment_model=GaussianRepaymentModel(sensitivity=config.repayment_sensitivity),
    start_year=config.start_year,
)
loop = ClosedLoop(
    ai_system=CreditScoringSystem(
        Lender(cutoff=config.cutoff, warm_up_rounds=config.warm_up_rounds)
    ),
    population=population,
    loop_filter=DefaultRateFilter(num_users=config.num_users),
)

class _DiscardingRecorder:
    num_steps = 0
    def record_step(self, step, features, decisions, actions, observation):
        type(self).num_steps += 1

loop.run(config.num_steps, rng=rng, history=_DiscardingRecorder())
assert _DiscardingRecorder.num_steps == config.num_steps
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


#: The trial on the lockstep kernel with aggregate history; prints the
#: child's peak RSS in KiB.
_KERNEL_SNIPPET = """
import resource, sys
sys.path.insert(0, {src!r})
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment
config = CaseStudyConfig(
    num_users={users}, num_trials=1, end_year=2021, history_mode="aggregate",
    execution="batch",
)
result = run_experiment(config)
assert result.trials[0].history.num_steps == config.num_steps
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _run_probe(snippet: str) -> float:
    """Run one probe subprocess and return its peak RSS in MiB."""
    completed = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        check=True,
        timeout=1200,
    )
    # ru_maxrss is KiB on Linux.
    return float(completed.stdout.strip().splitlines()[-1]) / 1024.0


def trial_peak_rss_mb(num_users: int, mode: str) -> float:
    """Return the peak RSS (MiB) of one ``run_trial`` in ``mode``."""
    return _run_probe(_TRIAL_SNIPPET.format(src=_SRC_PATH, users=num_users, mode=mode))


def floor_peak_rss_mb(num_users: int) -> float:
    """Return the peak RSS (MiB) of the trial with recording discarded."""
    return _run_probe(_FLOOR_SNIPPET.format(src=_SRC_PATH, users=num_users))


def kernel_peak_rss_mb(num_users: int) -> float:
    """Return the peak RSS (MiB) of the trial on the lockstep kernel."""
    return _run_probe(_KERNEL_SNIPPET.format(src=_SRC_PATH, users=num_users))


def measure_history_memory(num_users: int) -> dict:
    """Measure all four probes and derive the recorder-attributable sizes."""
    floor = floor_peak_rss_mb(num_users)
    full = trial_peak_rss_mb(num_users, "full")
    aggregate = trial_peak_rss_mb(num_users, "aggregate")
    kernel = kernel_peak_rss_mb(num_users)
    full_overhead = max(full - floor, 0.0)
    aggregate_overhead = max(aggregate - floor, 0.0)
    return {
        "floor_peak_rss_mb": round(floor, 1),
        "full_peak_rss_mb": round(full, 1),
        "aggregate_peak_rss_mb": round(aggregate, 1),
        "kernel_peak_rss_mb": round(kernel, 1),
        "full_history_overhead_mb": round(full_overhead, 1),
        "aggregate_history_overhead_mb": round(aggregate_overhead, 1),
        "memory_ratio_x": round(full_overhead / max(aggregate_overhead, 1e-9), 1),
    }
