"""Sanity checks on the public API surface.

These tests guard the package's importability and the consistency of every
``__all__`` list: each advertised name must actually exist, and the
top-level package must re-export the objects the README's quickstart uses.
"""

from __future__ import annotations

import importlib

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
    import ast
    from pathlib import Path

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


def test_importing_the_package_leaves_out_scipy_stats_and_networkx():
    """``import repro`` stays lean: neither heavy module loads with it."""
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import sys; sys.path.insert(0, {src!r}); import repro; "
        "print(sorted(m for m in ('scipy.stats', 'networkx') if m in sys.modules))"
    ).format(src=src)
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "[]"
