"""Pin what the benchmark harness in ``perfbench/`` reads from the package.

``perfbench/`` changes only together with the benchmark itself, so the
names it imports and the plans it asks for must keep working between
those changes.  This suite builds each workload (no runs) and checks:

* each workload folds its explicit layouts to ``serial`` and ``batch``,
  every layout it plans can be described, and ``auto`` plans the kernel
  layout the benchmark is meant to measure;
* ``"shard"`` is a second name for ``"batch"``: the same plan except for
  its ``execution`` field, and accepted by ``CaseStudyConfig`` and
  ``CampaignSpec``;
* ``repro.core.shardmem`` still offers ``live_segments``,
  ``TransportMeter`` and ``set_transport_meter``.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec
from repro.core import planner
from repro.experiments import CaseStudyConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    """Import ``perfbench/workloads.py`` on a 2-CPU view of the host."""
    monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 2)
    # No bytecode cache may appear under perfbench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("workloads", None)
    yield importlib.import_module("workloads")
    sys.modules.pop("workloads", None)


#: The benchmark's workloads, and the layout ``auto`` plans for each on a
#: 2-CPU host: ``(layout, kernel threads or pool workers)``.
AUTO_PLANS = {"giant_trial": ("batch", 2), "campaign_grid": ("batch", 1)}


@pytest.fixture(params=sorted(AUTO_PLANS))
def built(request, workloads, tmp_path):
    """One workload, built from seed 0 into ``tmp_path``."""
    workload = workloads.build(request.param, 0, tmp_path / request.param)
    yield workload
    workload.close()


def test_the_benchmark_has_two_workloads(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(AUTO_PLANS)


def test_explicit_layouts_fold_to_serial_and_batch(workloads, built):
    assert workloads.explicit_layouts(built) == ["serial", "batch"]
    for execution in (*workloads.EXPLICIT_LAYOUTS, "auto"):
        assert built.plan(execution).describe()


def test_shard_plans_exactly_like_batch(built):
    shard = built.plan("shard")
    assert shard.execution == "shard"
    assert replace(shard, execution="batch") == built.plan("batch")
    assert not shard.shard_parallel


def test_auto_plans_what_the_benchmark_measures(built):
    plan = built.plan("auto")
    assert (plan.layout, plan.max_workers) == AUTO_PLANS[built.name]


def test_configs_accept_the_shard_name():
    assert CaseStudyConfig(execution="shard").execution == "shard"
    assert CampaignSpec(execution="shard").execution == "shard"


def test_shardmem_keeps_the_names_the_harness_imports():
    from repro.core import shardmem

    assert isinstance(shardmem.live_segments(), tuple)
    meter = shardmem.TransportMeter()
    shardmem.set_transport_meter(meter)
    try:
        assert meter.per_step_shared() == 0.0
        assert meter.per_step_pickled() == 0.0
    finally:
        shardmem.set_transport_meter(None)
