"""Hypothesis properties of the unified execution planner.

Two families of invariants over arbitrary workload shapes and hosts:

* **Every plan is well-formed.**  For any legal ``(execution, trials,
  users, steps, modes, checkpoint knobs, cpu_count, hints)`` input,
  :func:`~repro.core.planner.plan_execution` returns an
  :class:`~repro.core.planner.ExecutionPlan` that passes its own
  ``validate()``, never pairs the batched engine with pools or
  checkpointing, never runs more kernel threads than the canonical shard
  ceiling, and pools at least two and at most as many trial workers as
  trials and cores.
* **Planning is deterministic.**  Fixed inputs produce equal plans — the
  property that makes ``execution="auto"`` reproducible in CI matrix
  cells and resumable across runs.

Forbidden combinations are covered as rejection properties: the batch
mode (and its second name, ``shard``) with checkpoint knobs, an unknown
mode, and degenerate inputs all raise ``ValueError`` before any work
starts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import EXECUTION_MODES, plan_execution
from repro.core.sharding import max_worker_shards

LAYOUTS = ("serial", "batch", "pool")


@st.composite
def plan_inputs(draw):
    execution = draw(st.sampled_from(EXECUTION_MODES))
    if execution in ("batch", "shard"):
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
        checkpoint_every=checkpoint_every,
        resume=resume,
        cpu_count=draw(st.integers(min_value=1, max_value=256)),
        max_workers=draw(st.none() | st.integers(min_value=1, max_value=64)),
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
        assert not (plan.trial_batch and plan.parallel)
        # Checkpointing runs never land on the batched engine.
        if inputs["checkpoint_every"] > 0 or inputs["resume"]:
            assert not plan.trial_batch
        # A pool has at least two workers, and never more than trials or
        # usable cores (or the explicit cap): one worker is the serial loop.
        if plan.parallel:
            assert 2 <= plan.max_workers <= min(inputs["trials"], inputs["cpu_count"])
            if inputs["max_workers"] is not None:
                assert plan.max_workers <= inputs["max_workers"]
        # Kernel threads stay within the canonical ceiling.
        if plan.trial_batch:
            assert 1 <= plan.max_workers <= max_worker_shards(inputs["users"])
        # No plan runs the retired process shard pool.
        assert not plan.shard_parallel
        # A serial layout carries no stray switches.
        if plan.layout == "serial":
            assert not plan.trial_batch
            assert not plan.parallel

    @given(inputs=plan_inputs())
    @settings(max_examples=100, deadline=None)
    def test_layout_matches_switches(self, inputs):
        plan = plan_execution(**inputs)
        expected = {
            (False, False): "serial",
            (True, False): "batch",
            (False, True): "pool",
        }[(plan.trial_batch, plan.parallel)]
        assert plan.layout == expected
        assert plan.layout in plan.describe()


class TestPlanningIsDeterministic:
    @given(inputs=plan_inputs())
    @settings(max_examples=100, deadline=None)
    def test_fixed_inputs_fix_the_plan(self, inputs):
        assert plan_execution(**inputs) == plan_execution(**inputs)


class TestForbiddenCombosAreRejected:
    @given(
        execution=st.sampled_from(("batch", "shard")),
        checkpoint_every=st.integers(min_value=1, max_value=16),
        resume=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_never_plans_with_checkpointing(
        self, execution, checkpoint_every, resume
    ):
        with pytest.raises(ValueError, match="incompatible with checkpointing"):
            plan_execution(
                execution,
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
