"""Hypothesis properties of the campaign cache key.

Two families pin the content address's contract:

* **Layout invariance.**  For any grid cell, the key is identical under
  every combination of the run options (``execution``, ``max_workers``,
  ``num_shards``) — the structural
  property that lets an entry written by a serial sweep hit under pooled
  or sharded execution.  The key digests
  :func:`~repro.experiments.runner.trajectory_fingerprint_fields`, which
  simply does not contain those knobs, so the property is exact, not
  statistical.
* **Trajectory sensitivity.**  Perturbing any single trajectory-defining
  field — the seed, the population size, the calendar window, a mortgage
  or model knob, the retrain mode, the arm identity or an arm parameter —
  produces a different key.  A collision here would mean serving one
  configuration's curves as another's.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.cache import job_key
from repro.campaign.spec import ArmRef, CampaignJob
from repro.experiments.config import CaseStudyConfig

SCENARIOS = st.sampled_from(
    [
        ArmRef("baseline"),
        ArmRef("recession"),
        ArmRef("recession", params=(("downshift", 0.2),)),
        ArmRef("widening-gap", params=(("annual_downshift", 0.05),)),
    ]
)
POLICIES = st.sampled_from(
    [
        ArmRef("retraining"),
        ArmRef("static"),
        ArmRef("uniform-limit"),
        ArmRef("epsilon-greedy", params=(("epsilon", 0.1),)),
    ]
)

TRAJECTORY = st.fixed_dictionaries(
    {
        "num_users": st.integers(min_value=10, max_value=5000),
        "num_trials": st.integers(min_value=1, max_value=8),
        "start_year": st.integers(min_value=1990, max_value=2005),
        "end_year": st.integers(min_value=2006, max_value=2030),
        "seed": st.integers(min_value=0, max_value=2**31),
        "income_multiple": st.floats(min_value=1.0, max_value=6.0),
        "cutoff": st.floats(min_value=0.05, max_value=0.95),
        "warm_up_rounds": st.integers(min_value=0, max_value=4),
        "history_mode": st.sampled_from(["full", "aggregate"]),
        "retrain_mode": st.sampled_from(["exact", "compressed"]),
        "warm_start": st.booleans(),
    }
)

LAYOUTS = st.fixed_dictionaries(
    {
        "execution": st.sampled_from(["auto", "serial", "batch", "pool", "shard"]),
        "max_workers": st.sampled_from([None, 1, 2, 8]),
        "num_shards": st.sampled_from([1, 2, 8]),
    }
)


def _job(scenario: ArmRef, policy: ArmRef, config: CaseStudyConfig) -> CampaignJob:
    return CampaignJob(
        index=0, job_id="cell", scenario=scenario, policy=policy, config=config
    )


def _config(fields: dict, layout: dict | None = None) -> CaseStudyConfig:
    return CaseStudyConfig(**fields, **(layout or {}))


@settings(max_examples=60, deadline=None)
@given(scenario=SCENARIOS, policy=POLICIES, fields=TRAJECTORY, layout=LAYOUTS)
def test_key_is_invariant_under_execution_layout(scenario, policy, fields, layout):
    plain = _job(scenario, policy, _config(fields))
    dressed = _job(scenario, policy, _config(fields, layout))
    assert job_key(plain) == job_key(dressed)


@settings(max_examples=40, deadline=None)
@given(scenario=SCENARIOS, policy=POLICIES, fields=TRAJECTORY)
def test_key_is_deterministic(scenario, policy, fields):
    assert job_key(_job(scenario, policy, _config(fields))) == job_key(
        _job(scenario, policy, _config(fields))
    )


@settings(max_examples=40, deadline=None)
@given(scenario=SCENARIOS, policy=POLICIES, fields=TRAJECTORY)
def test_key_is_sensitive_to_every_trajectory_field(scenario, policy, fields):
    base_job = _job(scenario, policy, _config(fields))
    base_key = job_key(base_job)
    config = base_job.config

    perturbed = [
        dataclasses.replace(config, num_users=config.num_users + 1),
        dataclasses.replace(config, num_trials=config.num_trials + 1),
        dataclasses.replace(config, start_year=config.start_year - 1),
        dataclasses.replace(config, end_year=config.end_year + 1),
        dataclasses.replace(config, seed=config.seed + 1),
        dataclasses.replace(config, income_multiple=config.income_multiple + 0.25),
        dataclasses.replace(config, annual_rate=config.annual_rate + 0.001),
        dataclasses.replace(config, living_cost=config.living_cost + 1.0),
        dataclasses.replace(
            config, repayment_sensitivity=config.repayment_sensitivity + 0.5
        ),
        dataclasses.replace(config, cutoff=min(0.99, config.cutoff + 0.01)),
        dataclasses.replace(config, warm_up_rounds=config.warm_up_rounds + 1),
        dataclasses.replace(config, income_threshold=config.income_threshold + 1.0),
        dataclasses.replace(
            config,
            retrain_mode="compressed" if config.retrain_mode == "exact" else "exact",
        ),
        dataclasses.replace(config, warm_start=not config.warm_start),
        dataclasses.replace(
            config,
            history_mode="aggregate" if config.history_mode == "full" else "full",
        ),
    ]
    keys = [job_key(_job(scenario, policy, variant)) for variant in perturbed]
    assert base_key not in keys
    assert len(set(keys)) == len(keys)


@settings(max_examples=40, deadline=None)
@given(fields=TRAJECTORY)
def test_key_is_sensitive_to_the_arm_identity(fields):
    config = _config(fields)
    cells = [
        (ArmRef("baseline"), ArmRef("retraining")),
        (ArmRef("recession"), ArmRef("retraining")),
        (ArmRef("recession", params=(("downshift", 0.2),)), ArmRef("retraining")),
        (ArmRef("baseline"), ArmRef("static")),
        (ArmRef("baseline"), ArmRef("epsilon-greedy", params=(("epsilon", 0.1),))),
        (ArmRef("baseline"), ArmRef("epsilon-greedy", params=(("epsilon", 0.2),))),
    ]
    keys = [job_key(_job(scenario, policy, config)) for scenario, policy in cells]
    assert len(set(keys)) == len(keys)
