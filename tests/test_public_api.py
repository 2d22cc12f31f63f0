"""Sanity checks on the public API surface.

These tests guard the package's importability and the consistency of every
``__all__`` list: each advertised name must actually exist and have a caller
outside the tests, and the top-level package must re-export the objects the
README's quickstart uses.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.markov",
    "repro.scoring",
    "repro.credit",
    "repro.data",
    "repro.baselines",
    "repro.control",
    "repro.experiments",
    "repro.utils",
    "repro.campaign",
    "repro.testing",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_imports(package_name):
    module = importlib.import_module(package_name)
    assert module is not None


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_resolve(package_name):
    module = importlib.import_module(package_name)
    assert hasattr(module, "__all__"), f"{package_name} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package_name}.__all__ lists missing name {name!r}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_are_unique(package_name):
    module = importlib.import_module(package_name)
    assert len(module.__all__) == len(set(module.__all__))


def test_top_level_exports_cover_the_quickstart():
    import repro

    for name in [
        "ClosedLoop",
        "CreditPopulation",
        "CreditScoringSystem",
        "DefaultRateFilter",
        "CaseStudyConfig",
        "run_trial",
        "run_experiment",
        "equal_treatment_assessment",
        "equal_impact_assessment",
    ]:
        assert hasattr(repro, name)


def test_version_is_a_semver_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_public_functions_have_docstrings():
    """Every public callable re-exported by the top-level package is documented."""
    import repro

    for name in repro.__all__:
        if name.startswith("__"):
            continue
        member = getattr(repro, name)
        if callable(member):
            assert member.__doc__, f"repro.{name} is missing a docstring"


def _imports_by_module():
    """Map each ``repro`` module to the dotted names it imports."""
    import repro

    root = Path(repro.__file__).resolve().parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        module = ".".join(("repro", *path.relative_to(root).with_suffix("").parts))
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module)
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
        found[module.removesuffix(".__init__")] = names
    return found


def test_only_the_trial_and_job_pools_start_processes():
    """One supervised process pool, ``supervised_map``: trials and jobs call it."""
    spawners = {
        module
        for module, names in _imports_by_module().items()
        if "concurrent.futures.ProcessPoolExecutor" in names
        or any(name.split(".")[0] == "multiprocessing" for name in names)
    }
    assert spawners == {"repro.core.supervision"}


def test_no_module_maps_shared_memory():
    """Per-step data never crosses a process boundary through /dev/shm."""
    for module, names in _imports_by_module().items():
        assert not any("shared_memory" in name for name in names), module


#: Public names deleted because no run reached them, by the module that
#: exported them.  They must not come back as exports.
RETIRED_NAMES = {
    "repro.core": (
        "StreamingAggregator",
        "ExponentialMovingAverageFilter",
        "IntegralFilter",
        "AnomalyClippingFilter",
        "default_rate_series",
        "demographic_parity_gap",
        "equal_opportunity_gap",
    ),
    "repro.markov": (
        "MarkovOperator",
        "total_variation_distance",
        "is_class_k",
        "is_class_kl",
        "incremental_iss_diagnostic",
        "estimate_contraction_rate",
    ),
    "repro.utils": ("running_mean", "time_average", "tail_dispersion"),
    "repro.scoring": ("CounterfactualExplanation", "explain_decision"),
    "repro.campaign": ("policy_names", "scenario_names"),
    "repro.credit": ("BorrowerState",),
    "repro.data.synthetic": ("default_population_inputs",),
    "repro.core.streaming": ("StreamingAggregator",),
}


@pytest.mark.parametrize("module_name", sorted(RETIRED_NAMES))
def test_retired_names_stay_retired(module_name):
    module = importlib.import_module(module_name)
    for name in RETIRED_NAMES[module_name]:
        assert name not in getattr(module, "__all__", ()), name
        assert not hasattr(module, name), name


@pytest.mark.parametrize(
    "module_name", ["repro.scoring.counterfactual", "repro.markov.stability"]
)
def test_retired_modules_stay_retired(module_name):
    assert importlib.util.find_spec(module_name) is None


@pytest.mark.parametrize(
    "owner, attribute",
    [
        ("repro.core.history:SimulationHistory", "append"),
        ("repro.core.history:SimulationHistory", "group_series"),
        ("repro.core.streaming:AggregateHistory", "append"),
        ("repro.core.streaming:AggregateHistory", "group_series"),
        ("repro.core.loop:ClosedLoop", "step"),
        ("repro.core.history:SimulationHistory", "record_step_precomputed"),
        ("repro.core.history:SimulationHistory", "recompute_running_default_rates"),
        ("repro.core.history:SimulationHistory", "recompute_running_action_averages"),
        ("repro.core.history:SimulationHistory", "recompute_approval_rates"),
        ("repro.core.streaming:AggregateHistory", "from_aggregator"),
        ("repro.core.streaming:AggregateHistory", "aggregator"),
        ("repro.core.streaming:BatchedStreamingAggregator", "aggregator"),
        ("repro.core.population:CreditPopulation", "import_shard_state"),
        ("repro.core.population:CreditPopulation", "export_shard_state"),
        ("repro.core.population:IFSPopulation", "import_shard_state"),
        ("repro.core.population:IFSPopulation", "export_shard_state"),
        ("repro.experiments.config:CaseStudyConfig", "income_threshold"),
    ],
)
def test_retired_methods_stay_retired(owner, attribute):
    """Histories ingest through ``record_step`` only; loops advance by ``run``.

    The grouped series come from :func:`repro.core.metrics.group_average_series`.
    A full history derives its running series from its columns, an aggregate
    history is its own recorder, every component's state hooks are
    ``export_state``/``import_state``, and the income-code threshold is the
    ``FeatureBuilder``'s, not a run knob.
    """
    module_name, class_name = owner.split(":")
    owner_class = getattr(importlib.import_module(module_name), class_name)
    assert not hasattr(owner_class, attribute)


def test_importing_the_package_leaves_out_scipy_stats_and_networkx():
    """``import repro`` stays lean: neither heavy module loads with it."""
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import sys; sys.path.insert(0, {src!r}); import repro; "
        "print(sorted(m for m in ('scipy.stats', 'networkx') if m in sys.modules))"
    ).format(src=src)
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "[]"


#: Public names no run reaches, each kept on purpose.
UNREACHED_BY_DESIGN = {
    "ConstantDecisionSystem": "the generic loop's test double of an AI system",
    "CumulativeAverageFilter": "the generic loop's test double of a filter",
    "reset_planner_caches": "test seam: forgets the planner's memoised probes",
    "install_plan": "test seam: arms a fault plan in process (testing.faults)",
    "clear_plan": "test seam: disarms the fault plan (testing.faults)",
    "shard_step_generator": (
        "the reference stream tests/utils/test_rng.py checks the engines' "
        "re-seated generators against (utils.rng)"
    ),
}

#: A dotted target string, e.g. the tracer's ``"module:Class.method"``.
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)+")


def _docstrings(tree):
    """Return the ids of the docstring nodes of a parsed module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _exported_names(path):
    """Return the names a module's ``__all__`` lists."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def _referenced_names(path):
    """Return the identifiers a file's code names (docstrings do not count).

    Counted: loaded names, attributes, imports outside package
    ``__init__`` files (an ``__init__``'s imports are its re-exports) and
    every part of a dotted string constant.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = _docstrings(tree)
    package_init = path.name == "__init__.py"
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not package_init:
            for alias in node.names:
                names.update(alias.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and _DOTTED.fullmatch(node.value)
        ):
            names.update(re.split(r"[.:]", node.value))
    return names


def test_every_public_name_is_reached_by_some_run():
    """A name in an ``__all__`` needs a caller outside the tests.

    Callers are the library itself, the examples, the benchmarks and
    ``perfbench``.  A name only the tests use is dead weight: give it a
    caller or delete it, or, if it is a deliberate test seam, list it in
    ``UNREACHED_BY_DESIGN`` with the reason.
    """
    root = Path(__file__).resolve().parent.parent
    sources = sorted((root / "src").rglob("*.py"))
    exported = set().union(*(_exported_names(path) for path in sources))
    callers = sources + [
        path
        for directory in ("examples", "benchmarks", "perfbench")
        for path in sorted((root / directory).rglob("*.py"))
    ]
    referenced = set().union(*(_referenced_names(path) for path in callers))
    assert exported - referenced == set(UNREACHED_BY_DESIGN)
