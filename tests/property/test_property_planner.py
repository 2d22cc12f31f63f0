"""Hypothesis properties of the unified execution planner.

Three families of invariants over arbitrary workload shapes and hosts:

* **Every plan is well-formed.**  For any legal ``(execution, trials,
  users, steps, modes, checkpoint knobs, cpu_count, hints)`` input,
  :func:`~repro.core.planner.plan_execution` returns an
  :class:`~repro.core.planner.ExecutionPlan` that passes its own
  ``validate()``, never pairs the batched engine with pools or
  checkpointing, never exceeds the canonical shard ceiling, and never
  pools more trial workers than trials.
* **Planning is deterministic.**  Fixed inputs (with ``calibrate=False``)
  produce equal plans — the property that makes ``execution="auto"``
  reproducible in CI matrix cells and resumable across runs.
* **Plans round-trip.**  ``from_dict(to_dict(plan)) == plan``, including
  through an actual JSON encode/decode, so a plan can be logged next to a
  bench record or checkpoint without losing identity.

Forbidden combinations are covered as rejection properties: the batch
mode with checkpoint knobs, an unknown mode, and degenerate inputs all
raise ``ValueError`` before any work starts.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import EXECUTION_MODES, ExecutionPlan, plan_execution
from repro.core.sharding import max_worker_shards

LAYOUTS = ("serial", "batch", "pool", "shard", "pool+shard")


@st.composite
def plan_inputs(draw):
    execution = draw(st.sampled_from(EXECUTION_MODES))
    if execution == "batch":
        # The only checkpoint knobs batch accepts are the disabled ones.
        checkpoint_every, resume = 0, False
    else:
        checkpoint_every = draw(st.integers(min_value=0, max_value=16))
        resume = draw(st.booleans())
    return dict(
        execution=execution,
        trials=draw(st.integers(min_value=1, max_value=64)),
        users=draw(st.integers(min_value=1, max_value=1_000_000)),
        steps=draw(st.integers(min_value=0, max_value=500)),
        history_mode=draw(st.sampled_from(("full", "aggregate"))),
        retrain_mode=draw(st.sampled_from(("exact", "compressed"))),
        checkpoint_every=checkpoint_every,
        resume=resume,
        cpu_count=draw(st.integers(min_value=1, max_value=256)),
        max_workers=draw(st.none() | st.integers(min_value=1, max_value=64)),
        num_shards=draw(st.none() | st.integers(min_value=1, max_value=64)),
    )


class TestPlansAreAlwaysWellFormed:
    @given(inputs=plan_inputs())
    @settings(max_examples=200, deadline=None)
    def test_plan_validates_and_respects_resources(self, inputs):
        plan = plan_execution(**inputs)
        plan.validate()  # no forbidden combination survives planning
        assert plan.execution == inputs["execution"]
        assert plan.layout in LAYOUTS
        assert plan.cpu_count == inputs["cpu_count"]
        # The batched engine owns every trial in one process.
        assert not (plan.trial_batch and (plan.parallel or plan.shard_parallel))
        # Checkpointing runs never land on the batched engine.
        if inputs["checkpoint_every"] > 0 or inputs["resume"]:
            assert not plan.trial_batch
        # Pool workers never outnumber trials (or the explicit cap).
        if plan.parallel:
            assert 1 <= plan.max_workers <= inputs["trials"]
            if inputs["max_workers"] is not None:
                assert plan.max_workers <= inputs["max_workers"]
        # Shard workers stay within the canonical ceiling.
        if plan.shard_parallel:
            assert 2 <= plan.num_shards <= max_worker_shards(inputs["users"])
        # A serial layout carries no stray switches.
        if plan.layout == "serial":
            assert not plan.trial_batch
            assert not plan.parallel
            assert not plan.shard_parallel
            assert plan.num_shards == 1

    @given(inputs=plan_inputs())
    @settings(max_examples=100, deadline=None)
    def test_layout_matches_switches(self, inputs):
        plan = plan_execution(**inputs)
        expected = {
            (False, False, False): "serial",
            (True, False, False): "batch",
            (False, True, False): "pool",
            (False, False, True): "shard",
            (False, True, True): "pool+shard",
        }[(plan.trial_batch, plan.parallel, plan.shard_parallel)]
        assert plan.layout == expected
        assert plan.layout.split("+")[0] in plan.describe()


class TestPlanningIsDeterministic:
    @given(inputs=plan_inputs())
    @settings(max_examples=100, deadline=None)
    def test_fixed_inputs_fix_the_plan(self, inputs):
        assert plan_execution(**inputs) == plan_execution(**inputs)


class TestPlansRoundTrip:
    @given(inputs=plan_inputs())
    @settings(max_examples=100, deadline=None)
    def test_dict_round_trip(self, inputs):
        plan = plan_execution(**inputs)
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan

    @given(inputs=plan_inputs())
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, inputs):
        plan = plan_execution(**inputs)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert ExecutionPlan.from_dict(payload) == plan


class TestForbiddenCombosAreRejected:
    @given(
        checkpoint_every=st.integers(min_value=1, max_value=16),
        resume=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_never_plans_with_checkpointing(self, checkpoint_every, resume):
        with pytest.raises(ValueError, match="incompatible with checkpointing"):
            plan_execution(
                "batch",
                trials=4,
                users=100,
                steps=10,
                checkpoint_every=checkpoint_every,
                resume=resume,
            )

    @given(trials=st.integers(max_value=0))
    @settings(max_examples=20, deadline=None)
    def test_degenerate_trials_are_rejected(self, trials):
        with pytest.raises(ValueError):
            plan_execution("auto", trials=trials, users=10, steps=5)

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="execution must be one of"):
            plan_execution("turbo", trials=1, users=10, steps=5)
