"""Tests for repro.scoring.logistic (from-scratch logistic regression)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scoring.logistic import LogisticRegression, fit_stack


def make_separable_data(n: int = 400, seed: int = 0):
    """Two Gaussian clouds: label 1 when the feature mean is positive."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(loc=-1.0, scale=1.0, size=(n // 2, 2))
    x1 = rng.normal(loc=+1.0, scale=1.0, size=(n // 2, 2))
    features = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    return features, labels


class TestFitting:
    def test_learns_the_sign_of_an_informative_feature(self):
        features, labels = make_separable_data()
        model = LogisticRegression()
        fit = model.fit(features, labels)
        assert fit.converged
        assert np.all(fit.coefficients > 0)

    def test_predicts_well_on_training_data(self):
        features, labels = make_separable_data()
        model = LogisticRegression()
        model.fit(features, labels)
        accuracy = float(np.mean(model.predict(features) == labels))
        assert accuracy > 0.85

    def test_probabilities_are_in_unit_interval(self):
        features, labels = make_separable_data()
        model = LogisticRegression()
        model.fit(features, labels)
        probabilities = model.predict_probability(features)
        assert probabilities.min() >= 0.0
        assert probabilities.max() <= 1.0

    def test_1d_feature_input_is_accepted(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        y = (x > 0).astype(int)
        model = LogisticRegression()
        model.fit(x, y)
        assert model.coefficients.shape == (1,)
        assert model.coefficients[0] > 0

    def test_intercept_tracks_class_imbalance(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(500, 1)) * 0.01  # uninformative
        labels = (rng.random(500) < 0.9).astype(int)
        model = LogisticRegression()
        model.fit(features, labels)
        implied = 1.0 / (1.0 + np.exp(-model.intercept))
        assert implied == pytest.approx(0.9, abs=0.05)

    def test_sample_weights_shift_the_fit(self):
        features = np.array([[0.0], [0.0]])
        labels = np.array([0, 1])
        heavy_on_one = LogisticRegression()
        heavy_on_one.fit(features, labels, sample_weights=[1.0, 10.0])
        balanced = LogisticRegression()
        balanced.fit(features, labels, sample_weights=[1.0, 1.0])
        assert heavy_on_one.intercept > balanced.intercept

    def test_recovers_known_coefficients_approximately(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(5000, 2))
        logits = 1.5 * features[:, 0] - 2.0 * features[:, 1] + 0.25
        labels = (rng.random(5000) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
        model = LogisticRegression(l2_penalty=1e-6)
        fit = model.fit(features, labels)
        assert fit.coefficients[0] == pytest.approx(1.5, abs=0.2)
        assert fit.coefficients[1] == pytest.approx(-2.0, abs=0.2)
        assert fit.intercept == pytest.approx(0.25, abs=0.2)


class TestDegenerateCases:
    def test_all_positive_labels_yield_intercept_only_model(self):
        features = np.random.default_rng(0).normal(size=(50, 2))
        model = LogisticRegression()
        fit = model.fit(features, np.ones(50))
        assert np.all(fit.coefficients == 0.0)
        assert fit.intercept > 0
        assert np.all(model.predict_probability(features) > 0.99)

    def test_all_negative_labels_yield_negative_intercept(self):
        features = np.random.default_rng(0).normal(size=(50, 2))
        model = LogisticRegression()
        fit = model.fit(features, np.zeros(50))
        assert fit.intercept < 0

    def test_perfectly_separable_data_stays_finite(self):
        features = np.concatenate([-np.ones(30), np.ones(30)])[:, None]
        labels = np.concatenate([np.zeros(30), np.ones(30)])
        model = LogisticRegression(l2_penalty=1e-3)
        fit = model.fit(features, labels)
        assert np.all(np.isfinite(fit.coefficients))
        assert np.isfinite(fit.intercept)

    def test_collinear_columns_stay_finite(self):
        rng = np.random.default_rng(4)
        column = rng.normal(size=200)
        features = np.column_stack([column, column])
        labels = (column > 0).astype(int)
        model = LogisticRegression()
        fit = model.fit(features, labels)
        assert np.all(np.isfinite(fit.coefficients))


class TestValidation:
    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.empty((0, 2)), [])

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 1)), [0, 1, 2])

    def test_rejects_misaligned_labels(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 1)), [0, 1])

    def test_rejects_negative_sample_weights(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((2, 1)), [0, 1], sample_weights=[-1.0, 1.0])

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError):
            LogisticRegression(l2_penalty=-0.1)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_probability(np.zeros((2, 1)))

    def test_wrong_feature_count_at_prediction_raises(self):
        model = LogisticRegression()
        model.fit(np.zeros((10, 2)), [0, 1] * 5)
        with pytest.raises(ValueError):
            model.decision_function(np.zeros((5, 3)))

    @given(st.integers(min_value=5, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_fit_always_returns_finite_parameters(self, n):
        rng = np.random.default_rng(n)
        features = rng.normal(size=(n, 2))
        labels = rng.integers(0, 2, size=n)
        model = LogisticRegression()
        fit = model.fit(features, labels)
        assert np.all(np.isfinite(fit.coefficients))
        assert np.isfinite(fit.intercept)


class TestSharedLinearPredictorIterates:
    """The IRLS produces byte-identical iterates to a naive reference.

    The reference below fits one table the slow, plain way, with the
    solver's arithmetic spelled out: each row's linear predictor is one dot
    product of its design row and the parameters; each gradient and
    Hessian entry is a running sum over the rows in order, then minus
    ``penalty * theta`` or plus the ridge diagonal; the log-likelihood is a
    running sum too.  Every Newton step and the final fit must match byte
    for byte.
    """

    @staticmethod
    def _reference_fit(features, labels, sample_weights=None):
        _CLIP = 30.0

        def running_sum(values):
            total = 0.0
            for value in values:
                total += value
            return total

        def linear_predictor(design, theta):
            return np.array([np.dot(row, theta) for row in design])

        def log_likelihood(design, y, weights, theta, penalty):
            z = np.clip(linear_predictor(design, theta), -_CLIP, _CLIP)
            log_p = -np.log1p(np.exp(-z))
            log_one_minus_p = -np.log1p(np.exp(z))
            likelihood = running_sum(
                weights * (y * log_p + (1.0 - y) * log_one_minus_p)
            )
            return likelihood - 0.5 * sum((penalty * theta**2).tolist())

        x = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float).ravel()
        weights = (
            np.ones_like(y)
            if sample_weights is None
            else np.asarray(sample_weights, dtype=float).ravel()
        )
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        width = design.shape[1]
        theta = np.zeros(width)
        penalty = np.full(width, 1e-3)
        penalty[0] = 0.0
        ridge = np.diag(np.maximum(penalty, 1e-12))
        tolerance = 1e-8
        converged = False
        iterations = 0
        raw_updates = []
        for iterations in range(1, 201):
            z = linear_predictor(design, theta)
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -_CLIP, _CLIP)))
            residuals = weights * (y - p)
            w = np.maximum(weights * p * (1.0 - p), 1e-10)
            gradient = np.array(
                [
                    running_sum(design[:, a] * residuals) - penalty[a] * theta[a]
                    for a in range(width)
                ]
            )
            hessian = np.array(
                [
                    [
                        running_sum(design[:, a] * design[:, b] * w) + ridge[a, b]
                        for b in range(width)
                    ]
                    for a in range(width)
                ]
            )
            update = np.linalg.solve(hessian, gradient)
            raw_updates.append(update.copy())
            theta = theta + update
            if float(np.max(np.abs(update))) < tolerance:
                converged = True
                break
        return {
            "theta": theta,
            "iterations": iterations,
            "converged": converged,
            "log_likelihood": log_likelihood(design, y, weights, theta, penalty),
            "raw_updates": raw_updates,
        }

    def _assert_byte_identical(self, features, labels, weights=None):
        import repro.scoring.logistic as logistic_module

        reference = self._reference_fit(features, labels, sample_weights=weights)
        recorded = []
        true_solve = np.linalg.solve

        def recording_solve(a, b):
            result = true_solve(a, b)
            recorded.append(np.array(result, copy=True))
            return result

        model = LogisticRegression(l2_penalty=1e-3)
        # Route every Newton step through the public wrapper so the solve
        # outputs can be recorded (the raw-gufunc fast path is pinned
        # against the wrapper separately below).
        raw_solve1 = logistic_module._raw_solve1
        logistic_module._raw_solve1 = None
        np.linalg.solve = recording_solve
        try:
            fit = model.fit(features, labels, sample_weights=weights)
        finally:
            np.linalg.solve = true_solve
            logistic_module._raw_solve1 = raw_solve1
        assert fit.iterations == reference["iterations"]
        assert fit.converged == reference["converged"]
        assert fit.intercept == reference["theta"][0]
        np.testing.assert_array_equal(fit.coefficients, reference["theta"][1:])
        assert fit.log_likelihood == reference["log_likelihood"]
        # Every raw Newton step the solver computed, byte for byte — this
        # pins the whole iterate sequence, not just the final parameters.
        assert len(recorded) == len(reference["raw_updates"])
        for new_update, old_update in zip(recorded, reference["raw_updates"]):
            np.testing.assert_array_equal(new_update, old_update)

    def test_cold_start_iterates_byte_identical(self):
        features, labels = make_separable_data(n=120, seed=3)
        self._assert_byte_identical(features, labels)

    def test_weighted_fit_iterates_byte_identical(self):
        rng = np.random.default_rng(8)
        features = np.column_stack(
            [rng.integers(0, 2, 31).astype(float), rng.random(31)]
        )
        labels = rng.integers(0, 2, 31).astype(float)
        weights = rng.integers(1, 4000, 31).astype(float)
        self._assert_byte_identical(features, labels, weights=weights)

    def test_raw_solve_fast_path_matches_public_wrapper(self):
        # The tiny-system fast path calls the gufunc behind
        # np.linalg.solve directly; the whole fit must come out identical.
        import repro.scoring.logistic as logistic_module

        if logistic_module._raw_solve1 is None:
            pytest.skip("raw linalg gufunc unavailable in this numpy build")
        features, labels = make_separable_data(n=150, seed=11)
        fast = LogisticRegression(l2_penalty=1e-3).fit(features, labels)
        raw_solve1 = logistic_module._raw_solve1
        logistic_module._raw_solve1 = None
        try:
            slow = LogisticRegression(l2_penalty=1e-3).fit(features, labels)
        finally:
            logistic_module._raw_solve1 = raw_solve1
        assert fast.intercept == slow.intercept
        np.testing.assert_array_equal(fast.coefficients, slow.coefficients)
        assert fast.iterations == slow.iterations
        assert fast.log_likelihood == slow.log_likelihood

    def test_final_log_likelihood_matches_reference_formula(self):
        features, labels = make_separable_data(n=60, seed=9)
        model = LogisticRegression(l2_penalty=1e-3)
        fit = model.fit(features, labels)
        design = np.hstack([np.ones((features.shape[0], 1)), features])
        theta = np.concatenate([[fit.intercept], fit.coefficients])
        penalty = np.full(3, 1e-3)
        penalty[0] = 0.0
        expected = LogisticRegression._log_likelihood(
            design, np.asarray(labels, dtype=float), np.ones(len(labels)), theta, penalty
        )
        assert fit.log_likelihood == expected


def _singular_table():
    """A table whose Hessian is singular at every step (two equal columns).

    With no ridge, weights this large absorb the 1e-12 diagonal guard, so
    the raw solve signals singularity, the public solve raises, and each
    step is the scaled gradient.
    """
    column = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    return (
        np.column_stack([column, column]),
        np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]),
        np.full(6, 1e5),
    )


@st.composite
def _tables(draw):
    """One weighted table of the count-table shape: a 0/1 code and a rate."""
    kind = draw(st.sampled_from(["mixed", "single-class", "separable", "singular"]))
    if kind == "singular":
        return _singular_table()
    rows = draw(st.integers(min_value=1, max_value=30))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rates = np.round(rng.random(rows) * 10) / 10
    features = np.column_stack([rng.integers(0, 2, rows).astype(float), rates])
    if kind == "single-class":
        labels = np.full(rows, float(rng.integers(0, 2)))
    elif kind == "separable":
        labels = (rates >= 0.5).astype(float)
    else:
        labels = rng.integers(0, 2, rows).astype(float)
    weights = (
        rng.integers(1, 4000, rows).astype(float)
        if draw(st.booleans())
        else None
    )
    return features, labels, weights


def _assert_same_fit(left, right):
    assert left.intercept == right.intercept
    np.testing.assert_array_equal(left.coefficients, right.coefficients)
    assert left.iterations == right.iterations
    assert left.converged == right.converged
    assert left.log_likelihood == right.log_likelihood


class TestStackedSolve:
    """A table's fit does not depend on the stack it is solved in."""

    @given(
        st.lists(_tables(), min_size=1, max_size=8),
        st.sampled_from([0.0, 1e-3]),
        st.sampled_from([4, 12, 200]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_fit_equals_its_one_table_fit(self, tables, l2, budget, random):
        # Budgets of 4 and 12 stop the separable and singular tables (and
        # some others) before they converge, while the rest converge.
        alone = [
            LogisticRegression(l2_penalty=l2, max_iterations=budget).fit(x, y, w)
            for x, y, w in tables
        ]
        order = list(range(len(tables)))
        random.shuffle(order)
        models = [
            LogisticRegression(l2_penalty=l2, max_iterations=budget) for _ in order
        ]
        stacked = fit_stack(models, [tables[index] for index in order])
        for model, fit, index in zip(models, stacked, order):
            assert model.fit_result is fit
            _assert_same_fit(fit, alone[index])

    def test_models_with_different_settings_share_one_call(self):
        tables = [make_separable_data(n=40, seed=seed) for seed in range(4)]
        models = [
            LogisticRegression(l2_penalty=penalty, max_iterations=budget)
            for penalty, budget in [(1e-3, 200), (1e-2, 200), (1e-3, 3), (1e-3, 200)]
        ]
        stacked = fit_stack(models, [(x, y, None) for x, y in tables])
        for model, fit, (x, y) in zip(models, stacked, tables):
            twin = LogisticRegression(
                l2_penalty=model._l2_penalty, max_iterations=model._max_iterations
            )
            _assert_same_fit(fit, twin.fit(x, y))
        assert stacked[2].iterations == 3 and not stacked[2].converged

    def test_a_singular_table_takes_the_fallbacks_inside_a_stack(self, monkeypatch):
        outcomes = []
        true_solve = np.linalg.solve

        def recording_solve(a, b):
            try:
                result = true_solve(a, b)
            except np.linalg.LinAlgError:
                outcomes.append("singular")
                raise
            outcomes.append("solved")
            return result

        singular = _singular_table()
        regular = (*make_separable_data(n=30, seed=2), None)
        alone = LogisticRegression(l2_penalty=0.0).fit(*singular)
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        models = [LogisticRegression(l2_penalty=0.0) for _ in range(3)]
        fits = fit_stack(models, [regular, singular, regular])
        # Only the singular table leaves the raw solve, every time.
        assert outcomes == ["singular"] * alone.iterations
        _assert_same_fit(fits[1], alone)
        _assert_same_fit(fits[0], fits[2])

    def test_the_public_solve_path_stacks_alike(self, monkeypatch):
        import repro.scoring.logistic as logistic_module

        tables = [
            (*make_separable_data(n=20 + 5 * seed, seed=seed), None)
            for seed in range(3)
        ]
        fast = fit_stack([LogisticRegression() for _ in tables], tables)
        monkeypatch.setattr(logistic_module, "_raw_solve1", None)
        slow = fit_stack([LogisticRegression() for _ in tables], tables)
        alone = [LogisticRegression().fit(*table) for table in tables]
        for left, right, single in zip(fast, slow, alone):
            _assert_same_fit(left, right)
            _assert_same_fit(right, single)

    def test_single_class_tables_stay_outside_the_stack(self):
        features, labels = make_separable_data(n=40, seed=5)
        single = (features[:10], np.ones(10), None)
        fits = fit_stack(
            [LogisticRegression(), LogisticRegression()],
            [single, (features, labels, None)],
        )
        assert fits[0].iterations == 0 and fits[0].converged
        _assert_same_fit(fits[0], LogisticRegression().fit(*single))
        _assert_same_fit(fits[1], LogisticRegression().fit(features, labels))

    def test_one_problem_per_model(self):
        with pytest.raises(ValueError, match="one problem per model"):
            fit_stack([LogisticRegression()], [])

    def test_every_table_is_validated(self):
        features, labels = make_separable_data(n=20, seed=1)
        with pytest.raises(ValueError, match="binary"):
            fit_stack(
                [LogisticRegression(), LogisticRegression()],
                [(features, labels, None), (features, labels * 2, None)],
            )
