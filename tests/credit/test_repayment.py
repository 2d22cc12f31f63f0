"""Tests for repro.credit.repayment (equation 11)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from repro.credit import repayment
from repro.credit.repayment import GaussianRepaymentModel


class TestRepaymentProbability:
    def test_matches_probit_formula(self):
        model = GaussianRepaymentModel(sensitivity=5.0)
        state = 0.3
        assert model.repayment_probability(state)[0] == pytest.approx(norm.cdf(5.0 * state))

    def test_non_positive_state_never_repays(self):
        model = GaussianRepaymentModel()
        np.testing.assert_allclose(model.repayment_probability([-0.5, 0.0]), [0.0, 0.0])

    def test_probability_is_monotone_in_the_state(self):
        model = GaussianRepaymentModel()
        probabilities = model.repayment_probability(np.linspace(0.01, 0.9, 20))
        assert np.all(np.diff(probabilities) > 0)

    def test_higher_sensitivity_sharpens_the_response(self):
        state = 0.2
        soft = GaussianRepaymentModel(sensitivity=1.0).repayment_probability(state)[0]
        sharp = GaussianRepaymentModel(sensitivity=10.0).repayment_probability(state)[0]
        assert sharp > soft

    def test_rejects_non_positive_sensitivity(self):
        with pytest.raises(ValueError):
            GaussianRepaymentModel(sensitivity=0.0)

    def test_ndtr_bit_identical_to_norm_cdf(self):
        # The hot path evaluates the probit through scipy.special.ndtr;
        # it must reproduce the retired scipy.stats.norm.cdf call bit for
        # bit across the whole realistic state range (plus extremes), or
        # every engine golden would shift.
        model = GaussianRepaymentModel(sensitivity=5.0)
        rng = np.random.default_rng(1234)
        states = np.concatenate(
            [
                rng.uniform(-2.0, 1.0, size=5000),
                np.array([-1e6, -50.0, -1e-12, 0.0, 1e-12, 0.5, 50.0, 1e6]),
            ]
        )
        reference = np.where(states <= 0.0, 0.0, norm.cdf(5.0 * states))
        np.testing.assert_array_equal(
            model.repayment_probability(states), reference
        )

    def test_probability_supports_batched_2d_states(self):
        # The trial-batched engine evaluates (trials, users) blocks in one
        # call; rows must equal the per-trial 1-D evaluations bitwise.
        model = GaussianRepaymentModel()
        states = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 40))
        batched = model.repayment_probability(states)
        assert batched.shape == states.shape
        for row in range(states.shape[0]):
            np.testing.assert_array_equal(
                batched[row], model.repayment_probability(states[row])
            )


class TestSampleRepayments:
    def test_no_mortgage_means_no_repayment(self):
        model = GaussianRepaymentModel()
        repayments = model.sample_repayments([0.9, 0.9], [0, 1], rng=0)
        assert repayments[0] == 0

    def test_wealthy_users_almost_always_repay(self):
        model = GaussianRepaymentModel()
        repayments = model.sample_repayments(np.full(2000, 0.8), np.ones(2000), rng=1)
        assert repayments.mean() > 0.99

    def test_underwater_users_never_repay(self):
        model = GaussianRepaymentModel()
        repayments = model.sample_repayments(np.full(100, -0.2), np.ones(100), rng=2)
        assert repayments.sum() == 0

    def test_empirical_rate_matches_probability(self):
        model = GaussianRepaymentModel()
        state = 0.1
        expected = norm.cdf(5.0 * state)
        repayments = model.sample_repayments(np.full(20000, state), np.ones(20000), rng=3)
        assert repayments.mean() == pytest.approx(expected, abs=0.01)

    def test_reproducible_with_seed(self):
        model = GaussianRepaymentModel()
        a = model.sample_repayments(np.full(50, 0.1), np.ones(50), rng=9)
        b = model.sample_repayments(np.full(50, 0.1), np.ones(50), rng=9)
        np.testing.assert_array_equal(a, b)

    def test_misaligned_inputs_are_rejected(self):
        with pytest.raises(ValueError):
            GaussianRepaymentModel().sample_repayments([0.1, 0.2], [1])


class TestExpectedDefaultRate:
    def test_matches_one_minus_mean_probability(self):
        model = GaussianRepaymentModel()
        states = np.array([0.1, 0.3, -0.5])
        expected = 1.0 - model.repayment_probability(states).mean()
        assert model.expected_default_rate(states) == pytest.approx(expected)

    def test_rejects_empty_portfolio(self):
        with pytest.raises(ValueError):
            GaussianRepaymentModel().expected_default_rate([])


#: The largest double below 1: the top of a uniform draw's range.
BELOW_ONE = np.nextafter(1.0, 0.0)


def _decision_states(sensitivity: float, nodes, realistic) -> np.ndarray:
    """States at the edge of every case the bracket decision tells apart.

    Each grid node ``j / (cells * s)`` and one ulp either side of it; the
    states that never repay (``-0.0``, the ``-1e6`` floor, ``-inf``,
    NaN); subnormals, one of which rounds ``s * x`` to 0 at ``s <= 0.5``
    while ``x > 0``; ``z`` past the table's end; and realistic states.
    """
    cells = repayment._BRACKETS.cells_per_unit
    grid = np.asarray(nodes, dtype=float) / (cells * sensitivity)
    special = [
        0.0, -0.0, -1e-300, -1.0, -1e6, np.nan, np.inf, -np.inf,
        5e-324, -5e-324, 1e-310, 2.2e-308, 8.3 / sensitivity,
        9.0 / sensitivity, 10.0 / sensitivity, 1e300, 1e308,
    ]
    return np.concatenate(
        [
            grid,
            np.nextafter(grid, -np.inf),
            np.nextafter(grid, np.inf),
            special,
            np.asarray(realistic, dtype=float),
        ]
    )


def _decision_uniforms(model, states, seed: int) -> tuple:
    """Pair every state with the uniforms that test its bracket.

    0.0, ``P``, one ulp either side of ``P``, the largest double below 1
    and a random draw, each clipped into ``[0, 1)``.
    """
    with np.errstate(over="ignore"):  # s * 1e308
        probabilities = model.repayment_probability(states)
    random = np.random.default_rng(seed).random(states.size)
    uniforms = np.stack(
        [
            np.zeros_like(states),
            probabilities,
            np.nextafter(probabilities, -np.inf),
            np.nextafter(probabilities, np.inf),
            np.full_like(states, BELOW_ONE),
            random,
        ]
    )
    uniforms = np.nan_to_num(uniforms, nan=0.5)
    np.clip(uniforms, 0.0, BELOW_ONE, out=uniforms)
    return np.broadcast_to(states, uniforms.shape).reshape(-1), uniforms.reshape(-1)


def _layouts(states, uniforms, layout: str, with_work: bool):
    """Lay ``states`` and ``uniforms`` out as 1-D, 2-D or strided views."""
    size = states.size
    if layout == "1d":
        x, u = states.copy(), uniforms.copy()
        out = np.empty(size, dtype=bool)
    elif layout == "2d":
        x, u = states.reshape(6, -1).copy(), uniforms.reshape(6, -1).copy()
        out = np.empty(x.shape, dtype=bool)
    else:
        # Every other column of wider rows, as the kernel's block columns
        # of (trials, users) rows are.
        shape = (6, size // 6)
        wide = (6, 2 * (size // 6) + 1)
        x = np.full(wide, 7.0)[:, 1::2]
        u = np.full(wide, 0.25)[:, 1::2]
        x[...] = states.reshape(shape)
        u[...] = uniforms.reshape(shape)
        out = np.zeros(wide, dtype=bool)[:, ::2][:, : shape[1]]
    work = (np.empty(x.shape), np.empty(x.shape)) if with_work else None
    return x, u, out, work


class TestCertifiedDecision:
    """``repays`` is the definition ``u < repayment_probability(x)``, exactly."""

    @given(
        sensitivity=st.floats(0.5, 50.0),
        nodes=st.lists(st.integers(0, 9 * 1024 + 4), min_size=1, max_size=12),
        realistic=st.lists(st.floats(-2.0, 1.5), max_size=20),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(["1d", "2d", "strided"]),
        with_work=st.booleans(),
    )
    @example(
        sensitivity=0.5, nodes=[0, 1, 1024, 8491], realistic=[0.0], seed=0,
        layout="1d", with_work=False,
    )
    @example(
        sensitivity=0.5, nodes=[0, 1, 1024, 8491], realistic=[0.0], seed=0,
        layout="strided", with_work=True,
    )
    @example(
        sensitivity=50.0, nodes=[0, 9216, 9220], realistic=[0.5], seed=1,
        layout="2d", with_work=True,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_definition(
        self, sensitivity, nodes, realistic, seed, layout, with_work
    ):
        model = GaussianRepaymentModel(sensitivity=sensitivity)
        states = _decision_states(sensitivity, nodes, realistic)
        states, uniforms = _decision_uniforms(model, states, seed)
        x, u, out, work = _layouts(states, uniforms, layout, with_work)
        x_before, u_before = x.copy(), u.copy()
        result = model.repays(u, x, out=out, work=work)
        assert result is out
        with np.errstate(over="ignore"):
            expected = u < model.repayment_probability(x)
        np.testing.assert_array_equal(result, expected)
        # The inputs are read, never written.
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(u, u_before)

    def test_positivity_is_read_from_the_state(self):
        # At sensitivity 0.5 the smallest subnormal state gives s * x = 0
        # while x > 0, so P = ndtr(0) = 0.5: a user with u < 0.5 repays.
        model = GaussianRepaymentModel(sensitivity=0.5)
        states = np.array([5e-324, 0.0, -0.0, -5e-324])
        assert 0.5 * states[0] == 0.0
        uniforms = np.full(4, 0.25)
        np.testing.assert_array_equal(
            model.repays(uniforms, states), [True, False, False, False]
        )
        np.testing.assert_array_equal(
            model.repayment_probability(states), [0.5, 0.0, 0.0, 0.0]
        )

    def test_without_out_allocates_a_boolean_result(self):
        model = GaussianRepaymentModel()
        result = model.repays([0.1, 0.9, 0.2], [0.5, 0.1, -0.3])
        assert result.dtype == bool
        np.testing.assert_array_equal(result, [True, False, False])

    def test_rejects_misaligned_inputs_and_work(self):
        model = GaussianRepaymentModel()
        with pytest.raises(ValueError, match="align"):
            model.repays(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="work"):
            model.repays(np.zeros(3), np.zeros(3), work=(np.empty(3), np.empty(4)))
        with pytest.raises(ValueError, match="work"):
            model.repays(
                np.zeros(3), np.zeros(3), work=(np.empty(3), np.empty(3, np.float32))
            )

    def test_table_brackets_ndtr_over_every_cell(self):
        brackets = repayment._BRACKETS
        cells = brackets.cells_per_unit
        assert cells == 1024 and brackets.lower.size == 9 * cells
        # The last node is where ndtr saturates, so the last cell's top
        # also covers every z past the table.
        assert brackets.upper[-1] > 1.0 == ndtr(9.0)
        # Dense points inside each cell stay within its bracket.
        rng = np.random.default_rng(11)
        cell = rng.integers(0, brackets.lower.size, size=200_000)
        z = (cell + rng.random(cell.size)) / cells
        values = ndtr(z)
        assert np.all(brackets.lower[cell] <= values)
        assert np.all(values <= brackets.upper[cell])

    def test_table_takes_power_of_two_grids(self):
        coarse = repayment._probit_brackets(0.25)
        # Nodes 0, 4, 8 and 12: the first past 9 closes the grid.
        np.testing.assert_array_equal(coarse.lower, ndtr([0.0, 4.0, 8.0]) - 1e-9)
        np.testing.assert_array_equal(coarse.upper, ndtr([4.0, 8.0, 12.0]) + 1e-9)
        for bad in (1000, 0.3, 0.0, -4.0):
            with pytest.raises(ValueError, match="power of two"):
                repayment._probit_brackets(bad)

    def test_bracketed_users_are_rare_at_the_paper_states(self, monkeypatch):
        # The exact branch sees only the users whose uniform falls inside
        # their cell's bracket.
        evaluated = []
        original = GaussianRepaymentModel.repayment_probability

        def counting(self, affordability, out=None):
            evaluated.append(np.size(affordability))
            return original(self, affordability, out=out)

        monkeypatch.setattr(GaussianRepaymentModel, "repayment_probability", counting)
        rng = np.random.default_rng(3)
        states = rng.uniform(0.0, 1.0, size=200_000)
        GaussianRepaymentModel().repays(rng.random(states.size), states)
        assert sum(evaluated) < 200
