"""Properties every run of the credit loop keeps, whatever its configuration.

Scores are scorecard points, not probabilities, so no cut-off value makes
the lender approve everyone, or no one, after warm-up.  What holds for any
cut-off is checked here on the serial loop and the lockstep kernel, in both
history modes: the warm-up approves everyone, and every approval rate and
average default rate lies in [0, 1].
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.census import Race
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment

#: Race weights, zero allowed (an empty race has an all-NaN ``ADR_s``).
RACE_MIXES = st.tuples(
    *[st.sampled_from([0.0, 0.05, 0.3, 1.0])] * len(Race)
).filter(any)

CONFIGS = st.builds(
    lambda users, trials, years, warm_up, cutoff, weights, seed: CaseStudyConfig(
        num_users=users,
        num_trials=trials,
        start_year=2002,
        end_year=2002 + years - 1,
        warm_up_rounds=warm_up,
        cutoff=cutoff,
        race_mix={race: weight / sum(weights) for race, weight in zip(Race, weights)},
        seed=seed,
    ),
    users=st.integers(min_value=2, max_value=40),
    trials=st.integers(min_value=1, max_value=3),
    years=st.integers(min_value=1, max_value=6),
    warm_up=st.integers(min_value=1, max_value=3),
    cutoff=st.floats(min_value=-2.0, max_value=8.0),
    weights=RACE_MIXES,
    seed=st.integers(min_value=0, max_value=2**31),
)


def _in_unit_interval(values: np.ndarray) -> bool:
    return bool(np.all((values >= 0.0) & (values <= 1.0)))


@pytest.mark.parametrize("history_mode", ["full", "aggregate"])
@pytest.mark.parametrize("execution", ["serial", "batch"])
@settings(max_examples=40, deadline=None)
@given(config=CONFIGS)
def test_warm_up_approves_everyone_and_every_rate_is_a_rate(
    execution, history_mode, config
):
    warm_up = min(config.warm_up_rounds, config.num_steps)
    result = run_experiment(
        replace(config, execution=execution, history_mode=history_mode)
    )
    for trial in result.trials:
        approvals = trial.approval_rate_series()
        assert np.all(approvals[:warm_up] == 1.0)
        assert _in_unit_interval(approvals)
        if history_mode == "full":
            assert _in_unit_interval(trial.user_default_rates)
        for series in trial.group_default_rates.values():
            assert _in_unit_interval(series[~np.isnan(series)])
