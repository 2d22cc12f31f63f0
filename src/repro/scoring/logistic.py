"""Logistic regression implemented from scratch.

The paper retrains a logistic model every year on a small design matrix
(income code and previous average default rate), so the solver must be
robust to the degenerate situations that retraining-in-the-loop produces:
perfectly separable data, single-class labels, and collinear columns.  The
implementation uses iteratively reweighted least squares (Newton's method)
with an L2 ridge term and a gradient-descent fallback, and guards the
single-class case by returning an intercept-only model at the empirical log
odds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.validation import require_non_negative, require_positive

__all__ = ["LogisticFit", "LogisticRegression"]

_CLIP = 30.0  # logit clipping to keep exp() finite

# The raw gufunc behind ``np.linalg.solve`` for a single right-hand side.
# The yearly refits solve thousands of tiny (3, 3) Newton systems, where the
# public wrapper's argument checking costs several times the LAPACK call;
# invoking the gufunc directly produces the identical bits (it IS the
# computation the wrapper performs).  Guarded: the import is best-effort
# (private numpy module), and a non-finite result — the raw gufunc's
# signature for a singular system, which the wrapper would turn into
# ``LinAlgError`` — reroutes through the public wrapper so the exception
# semantics are unchanged.
try:  # pragma: no cover - depends on the numpy build
    from numpy.linalg import _umath_linalg as _raw_linalg_module

    # Resolve the gufunc itself defensively: numpy has reshaped this
    # private module before, so a build where it exists without ``solve1``
    # must land on the public wrapper below, not crash every fit.
    _raw_solve1 = getattr(_raw_linalg_module, "solve1", None)
    if _raw_solve1 is not None and not callable(_raw_solve1):
        _raw_solve1 = None
except Exception:  # pragma: no cover - older/newer numpy layouts
    _raw_solve1 = None


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    clipped = np.clip(z, -_CLIP, _CLIP)
    return 1.0 / (1.0 + np.exp(-clipped))


@dataclass(frozen=True)
class LogisticFit:
    """Result of fitting a logistic regression.

    Attributes
    ----------
    coefficients:
        Weights of each feature column, in input order.
    intercept:
        Intercept term.
    converged:
        Whether the optimiser reached its tolerance within the iteration
        budget.
    iterations:
        Number of optimiser iterations performed.
    log_likelihood:
        Penalised log-likelihood at the returned parameters.
    """

    coefficients: np.ndarray
    intercept: float
    converged: bool
    iterations: int
    log_likelihood: float


class LogisticRegression:
    """Binary logistic regression with L2 regularisation.

    Parameters
    ----------
    l2_penalty:
        Ridge penalty applied to the coefficients (not the intercept); a
        small positive default keeps the Newton step well-posed when the
        yearly retraining data happens to be separable.
    max_iterations:
        Iteration budget for the IRLS solver.
    tolerance:
        Convergence tolerance on the infinity norm of the parameter update.
    """

    def __init__(
        self,
        l2_penalty: float = 1e-3,
        max_iterations: int = 200,
        tolerance: float = 1e-8,
    ) -> None:
        self._l2_penalty = require_non_negative(l2_penalty, "l2_penalty")
        self._max_iterations = int(require_positive(max_iterations, "max_iterations"))
        self._tolerance = require_positive(tolerance, "tolerance")
        self._fit: LogisticFit | None = None

    @property
    def fit_result(self) -> LogisticFit:
        """Return the last fit, raising if the model has not been fitted."""
        if self._fit is None:
            raise RuntimeError("the model has not been fitted yet")
        return self._fit

    @property
    def coefficients(self) -> np.ndarray:
        """Return the fitted feature weights."""
        return self.fit_result.coefficients

    @property
    def intercept(self) -> float:
        """Return the fitted intercept."""
        return self.fit_result.intercept

    def fit(
        self,
        features: np.ndarray,
        labels: Sequence[int] | np.ndarray,
        sample_weights: Sequence[float] | np.ndarray | None = None,
    ) -> LogisticFit:
        """Fit the model on a design matrix and binary labels.

        Parameters
        ----------
        features:
            Array of shape ``(n, d)``; a 1-D input is treated as one column.
        labels:
            Binary labels in {0, 1}.
        sample_weights:
            Optional non-negative per-sample weights.  Integer multiplicities
            make the fit the exact weighted-likelihood equivalent of
            repeating each row ``weight`` times — the sufficient-statistics
            route of :mod:`repro.scoring.suffstats`.

        Returns
        -------
        LogisticFit
            The fitted parameters and solver diagnostics.  The fit is also
            stored on the estimator for use by :meth:`predict_probability`.
        """
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        y = np.asarray(labels, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and labels must have the same number of rows")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty data set")
        if np.any((y != 0.0) & (y != 1.0)):
            raise ValueError("labels must be binary (0 or 1)")
        if sample_weights is None:
            weights = np.ones_like(y)
        else:
            weights = np.asarray(sample_weights, dtype=float).ravel()
            if weights.shape != y.shape or np.any(weights < 0):
                raise ValueError("sample_weights must be non-negative, one per sample")

        if np.all(y == y[0]):
            self._fit = self._single_class_fit(x, y, weights)
            return self._fit

        design = np.hstack([np.ones((x.shape[0], 1)), x])
        theta = np.zeros(design.shape[1])
        penalty = np.full(design.shape[1], self._l2_penalty)
        penalty[0] = 0.0  # do not shrink the intercept

        converged = False
        iterations = 0
        # The linear predictor of the current iterate is computed once per
        # theta (here, and after each step) and shared by the sigmoid and
        # the final reported log-likelihood.
        z = design @ theta
        # Loop-invariant pieces, hoisted: the ridge diagonal added to every
        # Hessian and the transposed design are constants of the fit.
        # The errstate guard covers the raw solve gufunc (whose singular
        # signature is a quiet nan, checked after each solve) — entered
        # once per fit rather than per iteration; none of the other loop
        # operations can raise floating-point warnings (the linear
        # predictor is clipped before the exponentials).
        design_transpose = design.T
        penalty_diagonal = np.diag(np.maximum(penalty, 1e-12))
        with np.errstate(all="ignore"):
            for iterations in range(1, self._max_iterations + 1):
                z_clipped = z.clip(-_CLIP, _CLIP)
                p = 1.0 / (1.0 + np.exp(-z_clipped))  # _sigmoid(z), sharing the clip
                gradient = design_transpose @ (weights * (y - p)) - penalty * theta
                w = np.maximum(weights * p * (1.0 - p), 1e-10)
                hessian = (design * w[:, None]).T @ design + penalty_diagonal
                update = None
                if _raw_solve1 is not None:
                    candidate = _raw_solve1(
                        hessian, gradient, signature="dd->d"
                    )
                    if np.isfinite(candidate).all():
                        update = candidate
                if update is None:
                    try:
                        update = np.linalg.solve(hessian, gradient)
                    except np.linalg.LinAlgError:
                        update = gradient / max(
                            float(np.max(np.abs(np.diag(hessian)))), 1.0
                        )
                theta = theta + update
                z = design @ theta
                if float(np.abs(update).max()) < self._tolerance:
                    converged = True
                    break

        self._fit = LogisticFit(
            coefficients=theta[1:].copy(),
            intercept=float(theta[0]),
            converged=converged,
            iterations=iterations,
            log_likelihood=self._penalised_log_likelihood(
                z.clip(-_CLIP, _CLIP), y, weights, theta, penalty
            ),
        )
        return self._fit

    def _single_class_fit(
        self, x: np.ndarray, y: np.ndarray, weights: np.ndarray
    ) -> LogisticFit:
        """Return an intercept-only fit when all labels coincide.

        With no variation in the label there is nothing for the slope terms
        to learn; the intercept is set at a clipped empirical log odds so
        downstream scoring still produces sensible probabilities near 0 or 1.
        """
        positive_rate = float(np.clip(np.average(y, weights=weights), 1e-4, 1 - 1e-4))
        intercept = float(np.log(positive_rate / (1.0 - positive_rate)))
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        theta = np.zeros(design.shape[1])
        theta[0] = intercept
        penalty = np.zeros(design.shape[1])
        return LogisticFit(
            coefficients=np.zeros(x.shape[1]),
            intercept=intercept,
            converged=True,
            iterations=0,
            log_likelihood=self._log_likelihood(design, y, weights, theta, penalty),
        )

    @staticmethod
    def _penalised_log_likelihood(
        z_clipped: np.ndarray,
        y: np.ndarray,
        weights: np.ndarray,
        theta: np.ndarray,
        penalty: np.ndarray,
    ) -> float:
        """Penalised log-likelihood from a pre-clipped linear predictor."""
        log_p = -np.log1p(np.exp(-z_clipped))
        log_one_minus_p = -np.log1p(np.exp(z_clipped))
        likelihood = float(np.sum(weights * (y * log_p + (1.0 - y) * log_one_minus_p)))
        return likelihood - 0.5 * float(np.sum(penalty * theta**2))

    @staticmethod
    def _log_likelihood(
        design: np.ndarray,
        y: np.ndarray,
        weights: np.ndarray,
        theta: np.ndarray,
        penalty: np.ndarray,
    ) -> float:
        z = np.clip(design @ theta, -_CLIP, _CLIP)
        return LogisticRegression._penalised_log_likelihood(
            z, y, weights, theta, penalty
        )

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Return the linear predictor (log odds) for each row of ``features``."""
        fit = self.fit_result
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != fit.coefficients.shape[0]:
            raise ValueError(
                f"expected {fit.coefficients.shape[0]} feature columns, got {x.shape[1]}"
            )
        return x @ fit.coefficients + fit.intercept

    def predict_probability(self, features: np.ndarray) -> np.ndarray:
        """Return the predicted probability of the positive class."""
        return _sigmoid(self.decision_function(features))

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Return hard 0/1 predictions at the given probability threshold."""
        return (self.predict_probability(features) >= threshold).astype(int)
