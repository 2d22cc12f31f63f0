"""Span wrappers the benchmark installs around the public calls of each layer.

Nothing in ``src/`` is instrumented: :meth:`Tracer.install` resolves every
target by dotted name (``module:Class.method`` or ``module:function``) and
swaps in a timing wrapper.  A target that no longer exists is reported as
absent and skipped, so deleting a class does not break the benchmark.

Each process keeps a stack of open spans; a span's *self* time is its
duration minus the time its child spans cover.  Pool workers are forked
from the benchmark process and so inherit the wrappers.  A fork hook
clears the child's copy of the parent's totals, and a worker writes its own
totals to ``<spool>/<pid>.json`` whenever its outermost span closes, so the
file is complete before the worker hands its result back.  The benchmark
merges and removes the spool files after each run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: Layer -> the public calls timed for it.  Layer names are the module
#: paths under ``repro``; a suffix splits one module into two layers.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "data.income": (
        "repro.data.income:IncomeSampler.sample_population_indexed",
        "repro.data.income:IncomeSampler.incomes_from_uniforms",
    ),
    "data.synthetic": ("repro.data.synthetic:generate_population",),
    "core.population": (
        "repro.core.population:CreditPopulation.begin_step",
        "repro.core.population:CreditPopulation.respond",
    ),
    "credit.repayment": (
        "repro.credit.repayment:GaussianRepaymentModel.repayment_probability",
        "repro.credit.repayment:GaussianRepaymentModel.sample_repayments",
    ),
    "credit.lender.decide": ("repro.credit.lender:Lender.decide",),
    "credit.lender.refit": (
        "repro.credit.lender:Lender.retrain",
        "repro.credit.lender:Lender.retrain_from_suffstats",
    ),
    "scoring.logistic": ("repro.scoring.logistic:LogisticRegression.fit",),
    "scoring.suffstats": (
        "repro.scoring.suffstats:CompressedDesign.from_arrays",
        "repro.scoring.suffstats:CompressedDesign.from_key_array",
    ),
    "core.filters": (
        "repro.core.filters:DefaultRateFilter.update",
        "repro.core.filters:DefaultRateFilter.observation",
        "repro.core.filters:BatchedDefaultRateFilter.update",
    ),
    "core.history": (
        "repro.core.history:SimulationHistory.record_step",
        "repro.core.history:SimulationHistory.record_step_precomputed",
    ),
    "core.streaming": (
        "repro.core.streaming:AggregateHistory.record_step",
        "repro.core.streaming:StreamingAggregator.update",
        "repro.core.streaming:BatchedStreamingAggregator.update",
    ),
    "core.loop": ("repro.core.loop:ClosedLoop.run",),
    "experiments.batch": ("repro.experiments.batch:BatchedTrialRunner.run",),
    "experiments.runner": ("repro.experiments.runner:run_experiment",),
    "core.checkpoint.write": ("repro.core.checkpoint:write_checkpoint",),
    "core.checkpoint.read": ("repro.core.checkpoint:read_checkpoint",),
    "campaign.cache": (
        "repro.campaign.cache:ResultCache.load",
        "repro.campaign.cache:ResultCache.store",
    ),
    "campaign.runner": ("repro.campaign.runner:run_campaign",),
    "experiments.figures": (
        "repro.experiments.fig3_race_adr:fig3_race_adr",
        "repro.experiments.fig4_user_adr:fig4_user_adr",
        "repro.experiments.fig5_density:fig5_density",
    ),
}


def _add(counters: Dict[str, int], name: str, value: int) -> None:
    counters[name] = counters.get(name, 0) + int(value)


def _count_fit(counters, args, kwargs, result) -> None:
    _add(counters, "logistic.iterations", result.iterations)


def _count_unique(counters, args, kwargs, result) -> None:
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    _add(counters, "suffstats.offered", len(keys))
    _add(counters, "suffstats.unique", result.num_unique)


def _count_history_bytes(counters, args, kwargs, result) -> None:
    values = list(args[2:]) + list(kwargs.values())
    for value in values:
        if isinstance(value, dict):
            _add(counters, "history.bytes", sum(getattr(v, "nbytes", 0) for v in value.values()))
        else:
            _add(counters, "history.bytes", getattr(value, "nbytes", 0))


def _count_steps(counters, args, kwargs, result) -> None:
    _add(counters, "loop.steps", args[1] if len(args) > 1 else kwargs["num_steps"])


def _count_written(counters, args, kwargs, result) -> None:
    _add(counters, "checkpoint.bytes_written", os.path.getsize(result))


def _count_cache_load(counters, args, kwargs, result) -> None:
    _add(counters, "cache.misses" if result is None else "cache.hits", 1)


def _count_jobs(counters, args, kwargs, result) -> None:
    _add(counters, "campaign.jobs", len(result.outcomes))


def _count_trials(counters, args, kwargs, result) -> None:
    _add(counters, "runner.trials", result.config.num_trials)


#: Target -> hook deriving counts from one call's arguments and result.
#: Arguments are as the wrapper sees them: ``args[0]`` is ``self`` or
#: ``cls`` for methods.
HOOKS: Dict[str, Callable] = {
    "repro.scoring.logistic:LogisticRegression.fit": _count_fit,
    "repro.scoring.suffstats:CompressedDesign.from_key_array": _count_unique,
    "repro.core.history:SimulationHistory.record_step": _count_history_bytes,
    "repro.core.history:SimulationHistory.record_step_precomputed": _count_history_bytes,
    "repro.core.loop:ClosedLoop.run": _count_steps,
    "repro.core.checkpoint:write_checkpoint": _count_written,
    "repro.campaign.cache:ResultCache.load": _count_cache_load,
    "repro.campaign.runner:run_campaign": _count_jobs,
    "repro.experiments.runner:run_experiment": _count_trials,
}


class Tracer:
    """Per-process span totals plus the worker spool.

    ``totals[target] = [calls, self_ns]``; ``counters`` holds the hook
    counts.  One instance per benchmark process; forked workers reset
    their inherited copy.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.totals: Dict[str, List[int]] = {}
        self.counters: Dict[str, int] = {}
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._main_pid = os.getpid()
        self._in_worker = False

    def install(self) -> None:
        """Wrap every resolvable target; record the rest as absent."""
        self.spool.mkdir(parents=True, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)
        for targets in LAYERS.values():
            for target in targets:
                self._wrap(target)

    def _after_fork(self) -> None:
        self.totals = {}
        self.counters = {}
        self._stack = []
        self._in_worker = os.getpid() != self._main_pid

    def reset(self) -> None:
        """Forget this process's totals (between runs)."""
        self.totals = {}
        self.counters = {}

    def _wrap(self, target: str) -> None:
        module_name, qualname = target.split(":")
        *owner_path, attribute = qualname.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attribute)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        hook = HOOKS.get(target)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attribute, type(raw)(self._timed(target, raw.__func__, hook)))
        elif inspect.ismodule(owner):
            _rebind_everywhere(raw, self._timed(target, raw, hook))
        else:
            setattr(owner, attribute, self._timed(target, raw, hook))

    def _timed(self, target: str, function: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = tracer.totals.get(target)
                if entry is None:
                    entry = tracer.totals[target] = [0, 0]
                entry[0] += 1
                entry[1] += elapsed - children
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            if tracer._in_worker and not stack:
                tracer._flush()
            return result

        return wrapper

    def _flush(self) -> None:
        path = self.spool / f"{os.getpid()}.json"
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps({"totals": self.totals, "counters": self.counters}))
        os.replace(temporary, path)

    def merge_spool(self) -> int:
        """Fold every worker's spool file into this process; return the count."""
        files = sorted(self.spool.glob("*.json"))
        for path in files:
            payload = json.loads(path.read_text())
            for target, (calls, self_ns) in payload["totals"].items():
                entry = self.totals.setdefault(target, [0, 0])
                entry[0] += calls
                entry[1] += self_ns
            for name, value in payload["counters"].items():
                _add(self.counters, name, value)
            path.unlink()
        return len(files)

    def layer(self, name: str) -> Tuple[int, float]:
        """Return ``(calls, self seconds)`` summed over one layer's targets."""
        calls = self_ns = 0
        for target in LAYERS[name]:
            count, nanoseconds = self.totals.get(target, (0, 0))
            calls += count
            self_ns += nanoseconds
        return calls, self_ns / 1e9


def _rebind_everywhere(original: Callable, wrapper: Callable) -> None:
    """Replace every ``repro`` module binding of a module-level function.

    ``from module import function`` copies the reference, so patching only
    the defining module would miss callers in other modules.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
