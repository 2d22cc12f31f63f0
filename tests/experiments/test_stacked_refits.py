"""The kernel's stacked refits, end to end.

Each lockstep-kernel step solves all of its trials' refits in one stacked
Newton solve: the kernel opens a :func:`~repro.credit.lender.refit_batch`
around its update step, and each table's fit in the stack has the bits of
its one-table fit.  The ``parity``, ``steering`` and ``static`` arms are not
the kernel's default decision stack, so they take its generic per-trial
path, where each trial's ``update`` records its refit in the batch.  The
suite pins:

* under ``batch`` those arms equal their serial twins trial by trial, bit
  for bit: group series, approvals and the final card's coefficients;
* trial ``t`` of a 2-trial ``batch`` run equals trial ``t`` of a 5-trial
  run, on the fused path and the generic one: a trial's series does not
  depend on ``num_trials``, though its refits share a stack with the
  others'.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign.spec import ArmRef, build_policy_factory
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment

from tests.experiments.harness import assert_group_series_identical

CONFIG = CaseStudyConfig(num_users=300, num_trials=3, seed=4242)


def _run(config: CaseStudyConfig, arm: str, execution: str):
    """Run ``arm`` under ``execution``; return the trials and their final fits."""
    systems = []
    factory = build_policy_factory(ArmRef(arm))

    def recording(config, population):
        system = factory(config, population)
        systems.append(system)
        return system

    result = run_experiment(replace(config, execution=execution), policy_factory=recording)
    fits = [system.lender.export_state()["model"].fit_result for system in systems]
    return result.trials, fits


def _assert_same_fit(left, right) -> None:
    assert left.intercept == right.intercept
    np.testing.assert_array_equal(left.coefficients, right.coefficients)
    assert left.iterations == right.iterations


@pytest.mark.parametrize("arm", ["parity", "steering", "static"])
def test_generic_arms_equal_their_serial_twins(arm):
    serial_trials, serial_fits = _run(CONFIG, arm, "serial")
    batch_trials, batch_fits = _run(CONFIG, arm, "batch")
    assert len(batch_trials) == len(serial_trials) == CONFIG.num_trials
    for serial_trial, batch_trial in zip(serial_trials, batch_trials):
        assert_group_series_identical(serial_trial, batch_trial)
        assert np.array_equal(
            serial_trial.history.decisions_matrix(),
            batch_trial.history.decisions_matrix(),
        )
    for serial_fit, batch_fit in zip(serial_fits, batch_fits):
        _assert_same_fit(serial_fit, batch_fit)


@pytest.mark.parametrize("arm", ["retraining", "parity"])
def test_a_trial_does_not_depend_on_the_trial_count(arm):
    few_trials, few_fits = _run(replace(CONFIG, num_trials=2), arm, "batch")
    many_trials, many_fits = _run(replace(CONFIG, num_trials=5), arm, "batch")
    for trial in range(2):
        assert_group_series_identical(few_trials[trial], many_trials[trial])
        assert np.array_equal(
            few_trials[trial].user_default_rates, many_trials[trial].user_default_rates
        )
        _assert_same_fit(few_fits[trial], many_fits[trial])
