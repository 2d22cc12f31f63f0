"""Consolidated golden registry and differential helpers for the equivalence suites.

Five suites pin the engine's pinned random stream from different angles —
the sharded engine itself (``test_engine_equivalence``), streaming
aggregation (``test_streaming_equivalence``), the engine refit against
the row-level reference (``test_retrain_equivalence``), the
trial-batched engine (``test_batch_equivalence``) and its thread counts
(``test_kernel_threads``) — and the planner-facing
``test_execution_equivalence`` pins every ``execution`` mode to the same
stream.  They all share ONE source of truth, this module:

* :data:`ENGINE_GOLDEN` — the golden SHA-256 digests of
  ``run_experiment(CaseStudyConfig().scaled(num_users=200, num_trials=2))``.
  Re-captured exactly once since the seed commit (the intra-trial sharding
  refactor's deliberate stream break; see ``test_engine_equivalence``).
* :func:`digest` and the observed-digest builders
  (:func:`full_trial_digests`, :func:`experiment_digests`,
  :func:`group_digests`) plus their expected-subset selectors, so every
  suite hashes the same accessors the same way.
* The differential assertions (:func:`assert_experiments_identical`,
  :func:`assert_full_trials_identical`, :func:`assert_group_series_identical`)
  used to compare two runs array for array.
* :func:`execution_modes` — the planner's execution-mode axis, overridable
  per CI matrix cell with ``REPRO_TEST_EXECUTION_MODE``.

The shared fixtures (``golden_config``, ``golden_serial_result``) live in
``tests/experiments/conftest.py`` so the 200-user serial reference run is
computed once per session, not once per suite.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.data.census import Race
from repro.experiments.config import CaseStudyConfig

#: Scale of the golden reference experiment.
GOLDEN_USERS = 200
GOLDEN_TRIALS = 2


def golden_config() -> CaseStudyConfig:
    """Return the configuration the golden digests were captured from."""
    return CaseStudyConfig().scaled(num_users=GOLDEN_USERS, num_trials=GOLDEN_TRIALS)


def digest(array: np.ndarray) -> str:
    """Return a short SHA-256 digest of an array's exact float contents."""
    data = np.ascontiguousarray(np.asarray(array, dtype=float))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


#: Captured from the sharded engine (the pre-sharding goldens from seed
#: commit 445c387 were retired with the derived-stream break).  One set of
#: hashes pins every engine generation: serial, streaming-aggregate, the
#: trial-batched tensor engine at any thread count, and every layout the
#: execution planner picks from them.
ENGINE_GOLDEN = {
    "trial0_decisions": "b8837abc827e91fd",
    "trial0_actions": "dbd00c78385e948a",
    "trial0_income": "d0093a48aa12b38d",
    "trial0_user_rates": "6b17e39189558b00",
    "trial0_obs_rates": "6b17e39189558b00",
    "trial0_portfolio": "112f7a712fa7a645",
    "trial0_running_actions": "b3e05cb2e044fcef",
    "trial0_approvals": "2d3ab12c55b9dd43",
    "trial0_group_BLACK": "2c7da37edcc62af4",
    "trial0_group_WHITE": "99ae0f9adbeabd21",
    "trial0_group_ASIAN": "85ada57e1f601e96",
    "trial1_decisions": "6750e1ef53c96a5c",
    "trial1_actions": "a479ea4044abc6ae",
    "trial1_income": "ba6ccea6352ea9ed",
    "trial1_user_rates": "67d1d1b8af953971",
    "trial1_obs_rates": "67d1d1b8af953971",
    "trial1_portfolio": "2121aaf952a725b1",
    "trial1_running_actions": "2ea7ffa96a1cc626",
    "trial1_approvals": "d7072999a25e09b7",
    "trial1_group_BLACK": "bd7adfa42dbd2a87",
    "trial1_group_WHITE": "b24cec3dfffb243d",
    "trial1_group_ASIAN": "4d15515f88a65170",
}


#: Every value of the ``execution`` knob, in the order the suites sweep it
#: (``shard`` is a second name for ``batch``).
EXECUTION_MODES = ("serial", "batch", "pool", "shard", "auto")


def execution_modes() -> tuple:
    """Return the execution modes to cover, honouring the CI matrix cell.

    The consolidated-harness CI job runs one cell per mode with
    ``REPRO_TEST_EXECUTION_MODE`` set; without the variable every mode is
    covered in one process.
    """
    override = os.environ.get("REPRO_TEST_EXECUTION_MODE")
    if override:
        return (override,)
    return EXECUTION_MODES


# ----------------------------------------------------------------------
# Observed-digest builders and expected-subset selectors
# ----------------------------------------------------------------------


def portfolio_series(trial) -> np.ndarray:
    """Return the trial's portfolio-rate series in either history mode."""
    history = trial.history
    if hasattr(history, "portfolio_rate_series"):
        return history.portfolio_rate_series()
    return history.observation_series("portfolio_rate")


def full_trial_digests(trial, index: int = 0) -> dict:
    """Digest every golden-pinned series of one full-history trial."""
    history = trial.history
    observed = {
        f"trial{index}_decisions": digest(history.decisions_matrix()),
        f"trial{index}_actions": digest(history.actions_matrix()),
        f"trial{index}_income": digest(history.public_feature_matrix("income")),
        f"trial{index}_user_rates": digest(trial.user_default_rates),
        f"trial{index}_obs_rates": digest(
            history.observation_series("user_default_rates")
        ),
        f"trial{index}_portfolio": digest(
            history.observation_series("portfolio_rate")
        ),
        f"trial{index}_running_actions": digest(history.running_action_averages()),
        f"trial{index}_approvals": digest(history.approval_rates()),
    }
    for race in Race:
        observed[f"trial{index}_group_{race.name}"] = digest(
            trial.group_default_rates[race]
        )
    return observed


def experiment_digests(result) -> dict:
    """Digest every trial of a full-history experiment (all golden keys)."""
    observed = {}
    for index, trial in enumerate(result.trials):
        observed.update(full_trial_digests(trial, index))
    return observed


def group_digests(trial, index: int = 0, portfolio: bool = False) -> dict:
    """Digest the group-level series available in *both* history modes."""
    observed = {}
    for race in Race:
        observed[f"trial{index}_group_{race.name}"] = digest(
            trial.group_default_rates[race]
        )
    observed[f"trial{index}_approvals"] = digest(trial.approval_rate_series())
    if portfolio:
        observed[f"trial{index}_portfolio"] = digest(portfolio_series(trial))
    return observed


def expected_trial_digests(index: int = 0) -> dict:
    """Return the golden subset for one trial (every key)."""
    return {
        key: value
        for key, value in ENGINE_GOLDEN.items()
        if key.startswith(f"trial{index}_")
    }


def expected_group_digests(index: int = 0, portfolio: bool = False) -> dict:
    """Return the golden subset :func:`group_digests` must reproduce."""
    extras = {f"trial{index}_approvals"}
    if portfolio:
        extras.add(f"trial{index}_portfolio")
    return {
        key: value
        for key, value in ENGINE_GOLDEN.items()
        if key.startswith(f"trial{index}_group_") or key in extras
    }


# ----------------------------------------------------------------------
# Differential assertions (two runs, array for array)
# ----------------------------------------------------------------------


def assert_experiments_identical(left, right) -> None:
    """Assert two full-history experiments are bit-identical trial by trial."""
    assert len(left.trials) == len(right.trials)
    for trial_left, trial_right in zip(left.trials, right.trials):
        assert np.array_equal(
            trial_left.history.decisions_matrix(),
            trial_right.history.decisions_matrix(),
        )
        assert np.array_equal(
            trial_left.history.actions_matrix(),
            trial_right.history.actions_matrix(),
        )
        assert np.array_equal(
            trial_left.user_default_rates, trial_right.user_default_rates
        )
        assert np.array_equal(trial_left.races, trial_right.races)
        for race in Race:
            assert np.array_equal(
                trial_left.group_default_rates[race],
                trial_right.group_default_rates[race],
            )


def assert_full_trials_identical(serial_trial, other_trial) -> None:
    """Assert one full-history trial equals another across every accessor."""
    serial_history, other_history = serial_trial.history, other_trial.history
    assert np.array_equal(
        serial_history.decisions_matrix(), other_history.decisions_matrix()
    )
    assert np.array_equal(
        serial_history.actions_matrix(), other_history.actions_matrix()
    )
    assert np.array_equal(
        serial_history.public_feature_matrix("income"),
        other_history.public_feature_matrix("income"),
    )
    assert np.array_equal(
        serial_trial.user_default_rates, other_trial.user_default_rates
    )
    assert np.array_equal(
        serial_history.observation_series("user_default_rates"),
        other_history.observation_series("user_default_rates"),
    )
    assert np.array_equal(
        serial_history.observation_series("portfolio_rate"),
        other_history.observation_series("portfolio_rate"),
    )
    assert np.array_equal(
        serial_history.running_action_averages(),
        other_history.running_action_averages(),
    )
    assert np.array_equal(
        serial_history.approval_rates(), other_history.approval_rates()
    )
    assert np.array_equal(serial_trial.races, other_trial.races)


def assert_group_series_identical(serial_trial, other_trial) -> None:
    """Assert the group-level series agree bit for bit (either history mode)."""
    for race in Race:
        assert np.array_equal(
            serial_trial.group_default_rates[race],
            other_trial.group_default_rates[race],
        )
        assert np.array_equal(
            serial_trial.group_action_averages()[race],
            other_trial.group_action_averages()[race],
        )
        assert np.array_equal(
            serial_trial.group_approval_series()[race],
            other_trial.group_approval_series()[race],
        )
    assert np.array_equal(
        serial_trial.approval_rate_series(), other_trial.approval_rate_series()
    )
