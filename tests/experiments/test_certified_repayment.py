"""The kernel's repayment decisions keep their bits through the exact branch.

:meth:`~repro.credit.repayment.GaussianRepaymentModel.repays` evaluates
the probit only for the users whose uniform falls inside their cell's
bracket: about 9 in a million at the paper's states, so the golden runs
barely reach that branch.  Here the table is patched to cells 4 wide in
``z`` (a grid of 1/4 cell per unit), so about a third of the user-steps
go through it, and the lockstep kernel
must still reproduce, digest for digest, its run on the real table and
the serial loop (which samples repayments from the probabilities
themselves).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.credit import repayment
from repro.credit.repayment import GaussianRepaymentModel
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment

from tests.experiments.harness import experiment_digests


def test_exact_branch_keeps_every_trajectory(monkeypatch):
    config = CaseStudyConfig().scaled(num_users=20_000, num_trials=3)
    serial = experiment_digests(run_experiment(replace(config, execution="serial")))
    batch = experiment_digests(run_experiment(replace(config, execution="batch")))

    evaluated = []
    original = GaussianRepaymentModel.repayment_probability

    def counting(self, affordability, out=None):
        evaluated.append(np.size(affordability))
        return original(self, affordability, out=out)

    monkeypatch.setattr(repayment, "_BRACKETS", repayment._probit_brackets(0.25))
    monkeypatch.setattr(GaussianRepaymentModel, "repayment_probability", counting)
    coarse = experiment_digests(run_experiment(replace(config, execution="batch")))

    assert coarse == batch
    assert batch == serial
    user_steps = config.num_trials * config.num_users * config.num_steps
    assert sum(evaluated) > user_steps // 4, (sum(evaluated), user_steps)
