"""Declarative campaign specifications and their expansion into jobs.

A campaign is a grid: income scenario × policy arm × population size ×
seed × retrain mode.  The spec is pure data — arm *references* by
registered name plus keyword parameters, never live objects — so it can be
written in TOML/JSON, hashed into cache keys, and pickled to worker
processes.  :func:`expand_campaign` turns the grid into concrete
:class:`CampaignJob` entries, each a ready-to-run
:class:`~repro.experiments.config.CaseStudyConfig` plus the arm references
that decorate it.

The scenario registry maps onto :mod:`repro.data.scenarios` (income-table
drift) and the policy registry onto the paper's lender, the baseline
policies (:mod:`repro.baselines`) and the control-theoretic interventions
(:mod:`repro.control`).  Registered names are the spec's vocabulary;
unknown names fail at validation time with the known vocabulary in the
error, not at job 900 of a sweep.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Sequence, Tuple

from repro.core.ai_system import AISystem, CreditScoringSystem
from repro.core.planner import EXECUTION_MODES
from repro.core.population import CreditPopulation
from repro.baselines import (
    GroupThresholdPolicy,
    IncomeMultiplePolicy,
    StaticCreditScoringSystem,
    UniformLimitPolicy,
)
from repro.control import EpsilonGreedyPolicy, ImpactSteeringPolicy
from repro.credit.lender import Lender
from repro.data.census import IncomeTable, Race
from repro.data.scenarios import recession_scenario, widening_gap_scenario
from repro.experiments.config import CaseStudyConfig

__all__ = [
    "ArmRef",
    "CampaignJob",
    "CampaignSpec",
    "expand_campaign",
    "load_campaign_spec",
    "policy_names",
    "scenario_names",
]

#: Registered scenario names → the keyword parameters they accept.
_SCENARIOS: Dict[str, Tuple[str, ...]] = {
    "baseline": (),
    "recession": ("shock_years", "downshift"),
    "widening-gap": ("disadvantaged", "annual_downshift", "start_year"),
}

#: Registered policy names → the keyword parameters they accept.
_POLICIES: Dict[str, Tuple[str, ...]] = {
    "retraining": (),
    "static": ("training_rounds",),
    "uniform-limit": ("max_default_rate",),
    "income-multiple": ("minimum_income", "max_default_rate"),
    "parity": ("target_approval_rate",),
    "steering": ("gain",),
    "epsilon-greedy": ("epsilon", "exploration_seed"),
}


def scenario_names() -> Tuple[str, ...]:
    """Return the registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


def policy_names() -> Tuple[str, ...]:
    """Return the registered policy-arm names, sorted."""
    return tuple(sorted(_POLICIES))


@dataclass(frozen=True)
class ArmRef:
    """Reference to a registered scenario or policy arm, by name.

    Parameters travel as a sorted tuple of ``(key, value)`` pairs so the
    reference is hashable, picklable, and has one canonical repr — the
    form the cache key digests.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    def param_dict(self) -> Dict[str, object]:
        """Return the parameters as a plain dict."""
        return dict(self.params)

    def label(self) -> str:
        """Return a compact human label (name, plus params when present)."""
        if not self.params:
            return self.name
        inner = ",".join(f"{key}={value!r}" for key, value in self.params)
        return f"{self.name}({inner})"


def _normalize_arm(
    entry: object, registry: Mapping[str, Tuple[str, ...]], kind: str
) -> ArmRef:
    """Canonicalise a spec entry (string or mapping) into an :class:`ArmRef`."""
    if isinstance(entry, ArmRef):
        name, params = entry.name, entry.param_dict()
    elif isinstance(entry, str):
        name, params = entry, {}
    elif isinstance(entry, Mapping):
        if "name" not in entry:
            raise ValueError(
                f'a {kind} table needs a "name" key naming the arm '
                f"(known {kind}s: {', '.join(sorted(registry))})"
            )
        params = {str(key): value for key, value in entry.items() if key != "name"}
        name = str(entry["name"])
    else:
        raise ValueError(
            f"a {kind} entry must be a name or a table, got {entry!r}"
        )
    if name not in registry:
        raise ValueError(
            f"unknown {kind} {name!r}; known {kind}s: {', '.join(sorted(registry))}"
        )
    allowed = registry[name]
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(
            f"{kind} {name!r} does not accept parameter(s) "
            f"{', '.join(unknown)}; it accepts: {', '.join(allowed) or '(none)'}"
        )
    # Lists from TOML/JSON become tuples so the reference stays hashable.
    canonical = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in params.items()
    }
    return ArmRef(name=name, params=tuple(sorted(canonical.items())))


def _resolve_race(value: object) -> Race:
    """Return the race named by a member, a member name or a member value.

    Names and values match case-insensitively (``"black"``, ``"BLACK"``,
    ``"Black Alone"``).
    """
    if isinstance(value, Race):
        return value
    text = str(value).upper()
    for race in Race:
        if text in (race.name, race.value):
            return race
    raise ValueError(
        f"unknown race {value!r}; known: "
        f"{', '.join(f'{race.name} ({race.value!r})' for race in Race)}"
    )


def build_scenario_table(scenario: ArmRef) -> IncomeTable | None:
    """Materialise a scenario reference into its income table.

    ``None`` means the baseline table — :func:`run_experiment` then falls
    back to :func:`~repro.data.census.default_income_table`, keeping the
    golden reproduction path untouched.
    """
    params = scenario.param_dict()
    if scenario.name == "baseline":
        return None
    if scenario.name == "recession":
        return recession_scenario(
            shock_years=tuple(params.get("shock_years", (2008, 2009))),
            downshift=float(params.get("downshift", 0.35)),
        )
    if scenario.name == "widening-gap":
        return widening_gap_scenario(
            disadvantaged=_resolve_race(params.get("disadvantaged", Race.BLACK)),
            annual_downshift=float(params.get("annual_downshift", 0.03)),
            start_year=int(params.get("start_year", 2010)),
        )
    raise ValueError(f"unknown scenario {scenario.name!r}")  # pragma: no cover


@dataclass(frozen=True)
class _ArmFactory:
    """Picklable policy factory for one registered arm.

    A module-level frozen dataclass (not a closure) so trial pools and
    campaign job workers can pickle it by reference; ``__call__`` matches
    the :data:`~repro.experiments.runner.PolicyFactory` signature.
    """

    arm: ArmRef

    def _lender(self, config: CaseStudyConfig) -> Lender:
        return Lender(
            cutoff=config.cutoff,
            warm_up_rounds=config.warm_up_rounds,
            retrain_mode=config.retrain_mode,
            warm_start=config.warm_start,
        )

    def __call__(
        self, config: CaseStudyConfig, population: CreditPopulation
    ) -> AISystem:
        params = self.arm.param_dict()
        name = self.arm.name
        if name == "retraining":
            return CreditScoringSystem(self._lender(config))
        if name == "static":
            return StaticCreditScoringSystem(
                self._lender(config),
                training_rounds=int(params.get("training_rounds", 1)),
            )
        if name == "uniform-limit":
            return UniformLimitPolicy(
                max_default_rate=float(params.get("max_default_rate", 0.0))
            )
        if name == "income-multiple":
            cap = params.get("max_default_rate")
            return IncomeMultiplePolicy(
                minimum_income=float(params.get("minimum_income", 0.0)),
                max_default_rate=None if cap is None else float(cap),
            )
        if name == "parity":
            return GroupThresholdPolicy(
                population.groups,
                target_approval_rate=float(params.get("target_approval_rate", 0.9)),
                lender=self._lender(config),
            )
        if name == "steering":
            return ImpactSteeringPolicy(
                gain=float(params.get("gain", 5.0)), lender=self._lender(config)
            )
        if name == "epsilon-greedy":
            return EpsilonGreedyPolicy(
                CreditScoringSystem(self._lender(config)),
                epsilon=float(params.get("epsilon", 0.05)),
                seed=int(params.get("exploration_seed", 0)),
            )
        raise ValueError(f"unknown policy arm {name!r}")  # pragma: no cover


def build_policy_factory(policy: ArmRef) -> _ArmFactory:
    """Return the picklable policy factory of one registered arm."""
    return _ArmFactory(arm=policy)


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative grid of closed-loop experiments.

    Grid axes (part of every job's cache identity): ``scenarios`` ×
    ``policies`` × ``population_sizes`` × ``seeds`` × ``retrain_modes``,
    with the shared calendar window, trial count, recording mode and
    warm-start flag.  Run options (``execution``, ``max_workers``,
    ``num_shards``) steer only *how* jobs execute — every layout is
    bit-identical — and are excluded from cache keys.
    """

    name: str = "campaign"
    scenarios: Tuple[ArmRef, ...] = (ArmRef("baseline"),)
    policies: Tuple[ArmRef, ...] = (ArmRef("retraining"),)
    population_sizes: Tuple[int, ...] = (1000,)
    seeds: Tuple[int, ...] = (20240101,)
    num_trials: int = 5
    start_year: int = 2002
    end_year: int = 2020
    history_mode: str = "aggregate"
    retrain_modes: Tuple[str, ...] = ("exact",)
    warm_start: bool = False
    race_mix: Mapping[Race, float] | None = None
    # Run options — pure execution plumbing, never part of a cache key.
    execution: str = "auto"
    max_workers: int | None = None
    num_shards: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "scenarios",
            tuple(_normalize_arm(arm, _SCENARIOS, "scenario") for arm in self.scenarios),
        )
        object.__setattr__(
            self,
            "policies",
            tuple(_normalize_arm(arm, _POLICIES, "policy") for arm in self.policies),
        )
        object.__setattr__(self, "population_sizes", tuple(self.population_sizes))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "retrain_modes", tuple(self.retrain_modes))
        if not self.scenarios or not self.policies:
            raise ValueError("a campaign needs at least one scenario and one policy")
        if not self.population_sizes or not self.seeds or not self.retrain_modes:
            raise ValueError(
                "population_sizes, seeds and retrain_modes must be non-empty"
            )
        for size in self.population_sizes:
            if int(size) <= 0:
                raise ValueError(f"population sizes must be positive, got {size}")
        if self.num_trials <= 0:
            raise ValueError("num_trials must be positive")
        if self.history_mode not in ("full", "aggregate"):
            raise ValueError(
                f'history_mode must be "full" or "aggregate", got {self.history_mode!r}'
            )
        for mode in self.retrain_modes:
            if mode not in ("exact", "compressed"):
                raise ValueError(
                    f'retrain modes must be "exact" or "compressed", got {mode!r}'
                )
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, got {self.execution!r}"
            )
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError("max_workers must be positive when given")
        if self.num_shards is not None and self.num_shards <= 0:
            raise ValueError("num_shards must be positive when given")

    @property
    def grid_size(self) -> int:
        """Return the number of jobs the grid expands into."""
        return (
            len(self.scenarios)
            * len(self.policies)
            * len(self.population_sizes)
            * len(self.seeds)
            * len(self.retrain_modes)
        )


@dataclass(frozen=True)
class CampaignJob:
    """One cell of an expanded campaign grid.

    ``config`` carries every trajectory-defining knob; the arm references
    carry what the config cannot (which income table, which policy).  The
    job never holds live tables or policies — workers rebuild them from
    the references, keeping the job picklable and hashable.
    """

    index: int
    job_id: str
    scenario: ArmRef
    policy: ArmRef
    config: CaseStudyConfig

    def income_table(self) -> IncomeTable | None:
        """Materialise this job's income scenario (``None`` = baseline)."""
        return build_scenario_table(self.scenario)

    def policy_factory(self) -> _ArmFactory:
        """Return this job's picklable policy factory."""
        return build_policy_factory(self.policy)


def expand_campaign(spec: CampaignSpec) -> Tuple[CampaignJob, ...]:
    """Expand a spec's grid into concrete jobs, in deterministic order.

    The product order (scenario, policy, population size, seed, retrain
    mode) is part of the campaign's observable behaviour: job indices are
    stable across runs, which is what the chaos suite's "kill job K,
    resume" cell relies on.
    """
    jobs = []
    for scenario in spec.scenarios:
        for policy in spec.policies:
            for size in spec.population_sizes:
                for seed in spec.seeds:
                    for retrain_mode in spec.retrain_modes:
                        config = CaseStudyConfig(
                            num_users=int(size),
                            num_trials=spec.num_trials,
                            start_year=spec.start_year,
                            end_year=spec.end_year,
                            **(
                                {"race_mix": dict(spec.race_mix)}
                                if spec.race_mix is not None
                                else {}
                            ),
                            seed=int(seed),
                            history_mode=spec.history_mode,
                            retrain_mode=retrain_mode,
                            warm_start=spec.warm_start,
                        )
                        job_id = "/".join(
                            (
                                scenario.label(),
                                policy.label(),
                                f"u{int(size)}",
                                f"seed{int(seed)}",
                                retrain_mode,
                            )
                        )
                        jobs.append(
                            CampaignJob(
                                index=len(jobs),
                                job_id=job_id,
                                scenario=scenario,
                                policy=policy,
                                config=config,
                            )
                        )
    return tuple(jobs)


def _spec_from_mapping(data: Mapping[str, object], origin: str) -> CampaignSpec:
    """Build a :class:`CampaignSpec` from parsed TOML/JSON data."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{origin}: the spec must be a table/object at top level")
    payload = dict(data)
    run_options = payload.pop("run", {})
    if not isinstance(run_options, Mapping):
        raise ValueError(f'{origin}: the "run" section must be a table/object')
    known = {
        "name",
        "scenarios",
        "policies",
        "population_sizes",
        "seeds",
        "num_trials",
        "start_year",
        "end_year",
        "history_mode",
        "retrain_modes",
        "warm_start",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"{origin}: unknown spec key(s) {', '.join(unknown)}; "
            f"known keys: {', '.join(sorted(known))} (plus a [run] section)"
        )
    known_run = {"execution", "max_workers", "num_shards"}
    unknown_run = sorted(set(run_options) - known_run)
    if unknown_run:
        raise ValueError(
            f"{origin}: unknown [run] key(s) {', '.join(unknown_run)}; "
            f"known keys: {', '.join(sorted(known_run))}"
        )
    kwargs: Dict[str, object] = {}
    for key, value in payload.items():
        if key in ("scenarios", "policies", "population_sizes", "seeds", "retrain_modes"):
            if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
                raise ValueError(f"{origin}: {key} must be an array")
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    kwargs.update(run_options)
    try:
        return CampaignSpec(**kwargs)  # type: ignore[arg-type]
    except (TypeError, ValueError) as error:
        raise ValueError(f"{origin}: invalid campaign spec: {error}") from error


def load_campaign_spec(path: str | Path) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file.

    The format mirrors :class:`CampaignSpec` field for field; scenario and
    policy entries are names or tables (``{name = "recession", downshift =
    0.25}``), and execution plumbing lives in a ``[run]`` section.
    """
    spec_path = Path(path)
    suffix = spec_path.suffix.lower()
    if suffix == ".toml":
        with open(spec_path, "rb") as handle:
            data = tomllib.load(handle)
    elif suffix == ".json":
        with open(spec_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        raise ValueError(
            f"campaign specs are TOML or JSON files, got {spec_path.name!r}"
        )
    return _spec_from_mapping(data, origin=spec_path.name)
