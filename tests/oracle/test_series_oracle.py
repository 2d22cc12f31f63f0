"""Both history modes' derived series against the per-user oracle, bit for bit.

:mod:`tests.oracle.series` computes ``ADR_i(k)``, the Cesàro averages,
the approval rates and group means with a Python loop over steps and
users.  :class:`~repro.core.history.SimulationHistory` derives the per-user
series from its columns, and :class:`~repro.core.streaming.AggregateHistory`
keeps the group series as it records; on small random 0/1 streams both
must equal the oracle exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import SimulationHistory
from repro.core.streaming import AggregateHistory
from tests.oracle.series import group_means, running_series


@st.composite
def recorded_streams(draw):
    """A 0/1 ``(steps, users)`` stream, repayments only where offered, and groups.

    Users may be in no group, and a group may be empty.
    """
    steps = draw(st.integers(min_value=1, max_value=12))
    users = draw(st.integers(min_value=1, max_value=15))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    offer_share = draw(st.sampled_from([0.0, 0.4, 0.9, 1.0]))
    decisions = (rng.random((steps, users)) < offer_share).astype(float)
    actions = (rng.random((steps, users)) < 0.6) * decisions
    labels = rng.integers(-1, 3, size=users)
    groups = {f"g{j}": np.flatnonzero(labels == j) for j in range(3)}
    return decisions, actions, groups


def _record(history, decisions, actions):
    for step, (offered, repaid) in enumerate(zip(decisions, actions)):
        history.record_step(step, {}, offered, repaid, {})
    return history


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestSimulationHistory:
    @given(recorded_streams())
    @settings(max_examples=60, deadline=None)
    def test_derived_series_equal_the_oracle(self, stream):
        decisions, actions, _ = stream
        history = _record(SimulationHistory(), decisions, actions)
        adr, cesaro, approvals = running_series(decisions.tolist(), actions.tolist())
        assert _bits(history.running_default_rates()) == _bits(adr)
        assert _bits(history.running_action_averages()) == _bits(cesaro)
        assert _bits(history.approval_rates()) == _bits(approvals)

    def test_series_past_the_preallocated_rows_equal_the_oracle(self):
        rng = np.random.default_rng(4)
        decisions = (rng.random((75, 6)) < 0.7).astype(float)
        actions = (rng.random((75, 6)) < 0.5) * decisions
        history = _record(SimulationHistory(), decisions, actions)
        adr, cesaro, approvals = running_series(decisions.tolist(), actions.tolist())
        assert _bits(history.running_default_rates()) == _bits(adr)
        assert _bits(history.running_action_averages()) == _bits(cesaro)
        assert _bits(history.approval_rates()) == _bits(approvals)


class TestAggregateHistory:
    @given(recorded_streams())
    @settings(max_examples=60, deadline=None)
    def test_group_series_equal_the_oracle(self, stream):
        decisions, actions, groups = stream
        history = _record(
            AggregateHistory(decisions.shape[1], groups=groups), decisions, actions
        )
        adr, cesaro, approvals = running_series(decisions.tolist(), actions.tolist())
        for recorded, per_user in (
            (history.group_default_rate_series(), adr),
            (history.group_action_average_series(), cesaro),
            (history.group_approval_series(), decisions.tolist()),
        ):
            expected = group_means(per_user, groups)
            assert recorded.keys() == expected.keys()
            for key, series in expected.items():
                assert _bits(recorded[key]) == _bits(series), key
        assert _bits(history.approval_rates()) == _bits(approvals)
