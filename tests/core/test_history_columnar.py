"""Columnar-engine behaviour of :class:`repro.core.history.SimulationHistory`.

The basic accessor semantics are covered in ``test_history.py``; this module
exercises what the columnar rewrite added: geometric growth across the
preallocation boundary, chunked ingestion, the series derived from the
columns (asserted bit-identical to the per-user oracle in
``tests/oracle/series.py``), the lazy records view, and the ``ndim``-based
observation-shape rule.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.history import SimulationHistory, StepRecord
from tests.oracle.series import running_series


def random_history(
    steps: int, users: int, seed: int = 0, with_extras: bool = True
) -> SimulationHistory:
    rng = np.random.default_rng(seed)
    history = SimulationHistory()
    for step in range(steps):
        decisions = (rng.random(users) < 0.7).astype(float)
        actions = (rng.random(users) < 0.5).astype(float) * decisions
        features = {"income": rng.random(users) * 100.0} if with_extras else {}
        observation = (
            {"user_default_rates": rng.random(users), "portfolio_rate": float(rng.random())}
            if with_extras
            else {}
        )
        history.record_step(step, features, decisions, actions, observation)
    return history


def oracle_series(history: SimulationHistory):
    """Return the per-user oracle's series of ``history``'s columns."""
    return running_series(
        history.decisions_matrix().tolist(), history.actions_matrix().tolist()
    )


class TestDerivedSeries:
    """The series derived from the columns equal the per-user oracle bit for bit."""

    @pytest.mark.parametrize("steps,users", [(1, 1), (3, 2), (50, 7), (130, 11)])
    def test_series_match_the_per_user_oracle(self, steps, users):
        history = random_history(steps, users, seed=steps * 31 + users)
        adr, cesaro, approvals = oracle_series(history)
        assert history.running_default_rates().tobytes() == np.array(adr).tobytes()
        assert history.running_action_averages().tobytes() == np.array(cesaro).tobytes()
        assert history.approval_rates().tobytes() == np.array(approvals).tobytes()

    def test_queries_are_stable_across_repeats(self):
        history = random_history(10, 4)
        first = history.running_default_rates().copy()
        assert np.array_equal(first, history.running_default_rates())


class TestGrowth:
    """Preallocation must be invisible: growth happens past the initial capacity."""

    def test_growth_past_initial_capacity(self):
        steps = 200  # well past the initial 32-row allocation
        history = random_history(steps, users=3, seed=5)
        assert history.num_steps == steps
        assert history.decisions_matrix().shape == (steps, 3)
        assert history.public_feature_matrix("income").shape == (steps, 3)
        assert history.observation_series("portfolio_rate").shape == (steps,)
        adr, _, _ = oracle_series(history)
        assert np.array_equal(history.running_default_rates(), np.array(adr))

    def test_chunked_appends_match_single_pass(self):
        rng = np.random.default_rng(9)
        rows = [((rng.random(4) < 0.6).astype(float), rng.random(4)) for _ in range(70)]
        whole = SimulationHistory()
        chunked = SimulationHistory()
        for step, (decisions, actions) in enumerate(rows):
            whole.record_step(step, {}, decisions, actions, {})
        for step, (decisions, actions) in enumerate(rows[:33]):
            chunked.record_step(step, {}, decisions, actions, {})
        for step, (decisions, actions) in enumerate(rows[33:], start=33):
            chunked.record_step(step, {}, decisions, actions, {})
        assert np.array_equal(whole.decisions_matrix(), chunked.decisions_matrix())
        assert np.array_equal(
            whole.running_default_rates(), chunked.running_default_rates()
        )

    def test_views_taken_before_growth_keep_their_content(self):
        history = random_history(10, 2, seed=3)
        early = history.decisions_matrix()
        snapshot = early.copy()
        for step in range(10, 100):
            history.record_step(step, {}, np.ones(2), np.zeros(2), {})
        # The early view may now alias a retired buffer, but its content is
        # still the first ten steps.
        assert np.array_equal(early, snapshot)


class TestEdgeCases:
    def test_empty_history_raises_everywhere(self):
        history = SimulationHistory()
        assert history.num_steps == 0
        assert len(history.records) == 0
        for call in (
            history.decisions_matrix,
            history.actions_matrix,
            history.running_default_rates,
            history.running_action_averages,
            history.approval_rates,
            lambda: history.num_users,
        ):
            with pytest.raises(ValueError):
                call()

    def test_user_count_mismatch_raises(self):
        history = random_history(2, 3)
        with pytest.raises(ValueError):
            history.record_step(2, {}, np.ones(4), np.ones(4), {})
        with pytest.raises(ValueError):
            history.record_step(2, {}, np.ones(3), np.ones(4), {})

    def test_views_are_read_only(self):
        history = random_history(5, 2)
        for matrix in (
            history.decisions_matrix(),
            history.actions_matrix(),
            history.running_default_rates(),
            history.running_action_averages(),
            history.approval_rates(),
            history.public_feature_matrix("income"),
        ):
            with pytest.raises(ValueError):
                matrix[0] = 99.0

    def test_failed_append_leaves_columns_intact(self):
        """A bad-width value must not half-write the step or poison columns."""
        history = SimulationHistory()
        history.record_step(
            0, {"income": np.ones(3)}, np.ones(3), np.ones(3), {"rates": np.ones(3)}
        )
        with pytest.raises(ValueError):
            history.record_step(
                1, {"income": np.ones(3)}, np.ones(3), np.ones(3), {"rates": np.ones(5)}
            )
        assert history.num_steps == 1
        # A subsequent good step keeps full column coverage.
        history.record_step(
            1, {"income": np.ones(3)}, np.ones(3), np.ones(3), {"rates": np.ones(3)}
        )
        assert history.public_feature_matrix("income").shape == (2, 3)
        assert history.observation_series("rates").shape == (2, 3)

    def test_partial_feature_coverage_raises_key_error(self):
        history = SimulationHistory()
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        history.record_step(1, {"wealth": np.ones(2)}, np.ones(2), np.ones(2), {})
        with pytest.raises(KeyError):
            history.public_feature_matrix("wealth")

    def test_failed_first_append_does_not_lock_user_count(self):
        history = SimulationHistory()
        with pytest.raises(ValueError):
            history.record_step(0, {}, np.ones(3), np.ones(2), {})
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        assert history.num_users == 2

    def test_scalar_public_feature_stays_a_matrix(self):
        """Scalar features are width-1 series, keeping the (steps, users) contract."""
        history = SimulationHistory()
        for step in range(3):
            history.record_step(step, {"rate": 0.5}, np.ones(2), np.ones(2), {})
        assert history.public_feature_matrix("rate").shape == (3, 1)

    def test_vanishing_and_reappearing_key_warns(self):
        history = SimulationHistory()
        history.record_step(0, {}, np.ones(2), np.ones(2), {"x": 1.0})
        history.record_step(1, {}, np.ones(2), np.ones(2), {})
        with pytest.warns(RuntimeWarning, match="skipped steps"):
            history.record_step(2, {}, np.ones(2), np.ones(2), {"x": 3.0})

    def test_history_round_trips_through_pickle(self):
        history = random_history(40, 3, seed=2)
        payload = pickle.dumps(history)
        clone = pickle.loads(payload)
        assert clone.num_steps == history.num_steps
        assert np.array_equal(
            clone.running_default_rates(), history.running_default_rates()
        )
        assert np.array_equal(
            clone.public_feature_matrix("income"),
            history.public_feature_matrix("income"),
        )
        clone.record_step(40, {"income": np.ones(3)}, np.ones(3), np.ones(3), {})
        assert clone.num_steps == 41

    def test_pickle_ships_only_filled_rows(self):
        """The over-allocated capacity must not travel between processes."""
        history = random_history(33, 50, seed=1)  # just past one growth (cap 64)
        assert history._capacity == 64
        state = history.__getstate__()
        assert state["_decisions"].shape == (33, 50)
        assert state["_steps"].shape == (33,)
        assert state["_features"]["income"].data.shape == (33, 50)
        clone = pickle.loads(pickle.dumps(history))
        assert clone._capacity == clone.num_steps == 33
        assert history._capacity == 64  # original retains its buffers
        assert np.array_equal(clone.actions_matrix(), history.actions_matrix())


class TestObservationShapes:
    def test_single_user_observation_stays_a_matrix(self):
        """A per-user array from a 1-user population must not flatten to a scalar series."""
        history = SimulationHistory()
        for step in range(3):
            history.record_step(
                step,
                {},
                np.array([1.0]),
                np.array([0.0]),
                {"user_default_rates": np.array([0.25 * step]), "portfolio_rate": 0.1},
            )
        per_user = history.observation_series("user_default_rates")
        assert per_user.shape == (3, 1)
        scalar = history.observation_series("portfolio_rate")
        assert scalar.shape == (3,)

    def test_scalar_numpy_observation_is_scalar_series(self):
        history = SimulationHistory()
        history.record_step(
            0, {}, np.ones(2), np.ones(2), {"aggregate": np.float64(0.5)}
        )
        assert history.observation_series("aggregate").shape == (1,)


class TestRecordsView:
    def test_indexing_and_iteration(self):
        history = random_history(6, 2, seed=21)
        records = history.records
        assert len(records) == 6
        assert [record.step for record in records] == list(range(6))
        assert records[-1].step == 5
        assert isinstance(records[0], StepRecord)
        assert [r.step for r in records[2:4]] == [2, 3]
        with pytest.raises(IndexError):
            records[6]
        with pytest.raises(IndexError):
            records[-7]

    def test_records_round_trip_the_columns(self):
        history = random_history(4, 3, seed=8)
        record = history.records[2]
        assert np.array_equal(record.decisions, history.decisions_matrix()[2])
        assert np.array_equal(record.actions, history.actions_matrix()[2])
        assert np.array_equal(
            record.public_features["income"], history.public_feature_matrix("income")[2]
        )
        assert record.observation["portfolio_rate"] == pytest.approx(
            float(history.observation_series("portfolio_rate")[2])
        )

    def test_materialised_records_are_copies(self):
        history = random_history(3, 2, seed=4)
        record = history.records[0]
        record.decisions[0] = 42.0
        assert history.decisions_matrix()[0, 0] != 42.0
