"""Logistic regression implemented from scratch.

The paper retrains a logistic model every year on a small design matrix
(income code and previous average default rate), so the solver must be
robust to the degenerate situations that retraining-in-the-loop produces:
perfectly separable data, single-class labels, and collinear columns.  The
implementation uses iteratively reweighted least squares (Newton's method)
with an L2 ridge term and a gradient-descent fallback, and guards the
single-class case by returning an intercept-only model at the empirical log
odds.

Stacked fits
------------

The loop refits one tiny count table (about 14 unique rows) per trial and
step, so a Newton iteration costs numpy dispatch, not arithmetic.
:func:`fit_stack` fits a whole stack of weighted tables in one Newton
loop: their rows are concatenated, and each table's gradient and Hessian
sums are ``np.bincount`` accumulations keyed by ``(table, entry)``, so
every sum runs in row order over that table's own rows, and every
per-row quantity is computed row by row (the linear predictor as one dot
product per row).  A table's bits therefore do not depend on which
tables share its stack: it stops at its own convergence iteration with
the coefficients, iteration count, convergence flag and log-likelihood
of its one-table fit.
:meth:`LogisticRegression.fit` is the stack of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.utils.validation import require_non_negative, require_positive

__all__ = ["LogisticFit", "LogisticRegression", "fit_stack"]

_CLIP = 30.0  # logit clipping to keep exp() finite
# The clip bounds as arrays: the Newton loop clips with two ufunc calls,
# the bits of ``np.clip`` without its wrapper's cost on tiny arrays.
_LOW, _HIGH = np.array(-_CLIP), np.array(_CLIP)

# The raw gufunc behind ``np.linalg.solve`` for a single right-hand side.
# The yearly refits solve thousands of tiny (3, 3) Newton systems, where the
# public wrapper's argument checking costs several times the LAPACK call;
# invoking the gufunc directly produces the identical bits (it IS the
# computation the wrapper performs), and it solves a stack of systems one
# by one in a single call.  Guarded: the import is best-effort (private
# numpy module), and a non-finite result — the raw gufunc's signature for a
# singular system, which the wrapper would turn into ``LinAlgError`` —
# reroutes that table through the public wrapper so the exception
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

#: One table to fit: features, binary labels and optional sample weights.
Problem = Tuple[np.ndarray, np.ndarray, np.ndarray | None]


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    clipped = np.clip(z, -_CLIP, _CLIP)
    return 1.0 / (1.0 + np.exp(-clipped))


def _penalised_log_likelihoods(
    z_clipped: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    owner: np.ndarray,
    theta: np.ndarray,
    penalty: np.ndarray,
) -> List[float]:
    """Return each table's penalised log-likelihood.

    ``z_clipped`` is every row's pre-clipped linear predictor, ``owner``
    the table of each row and ``theta`` one parameter row per table.  Each
    table's sums run in order, over its rows and over its parameters.
    """
    log_p = -np.log1p(np.exp(-z_clipped))
    log_one_minus_p = -np.log1p(np.exp(z_clipped))
    terms = weights * (y * log_p + (1.0 - y) * log_one_minus_p)
    likelihoods = np.bincount(owner, terms, theta.shape[0]).tolist()
    return [
        likelihood - 0.5 * sum(shrinkage)
        for likelihood, shrinkage in zip(likelihoods, (penalty * theta**2).tolist())
    ]


@functools.lru_cache(maxsize=None)
def _stack_constants(
    l2_penalty: float, width: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return the constants of a stack of ``width``-parameter tables.

    The penalty (none on the intercept), the ridge diagonal added to each
    Hessian and the negated penalty whose product with ``theta`` is each
    gradient's shrinkage, both flattened into columns, and the column of
    entry indices that the sum keys start from.  Read-only: every stack
    with these settings shares them.
    """
    penalty = np.full(width, l2_penalty)
    penalty[0] = 0.0  # do not shrink the intercept
    constants = (
        penalty,
        np.diag(np.maximum(penalty, 1e-12)).reshape(-1, 1),
        -penalty[:, None],
        np.arange(width + width * width)[:, None],
    )
    for array in constants:
        array.setflags(write=False)
    return constants


def _newton_steps(
    hessian: np.ndarray, gradient: np.ndarray
) -> Tuple[np.ndarray, List[float]]:
    """Solve each table's Newton system; return the steps and their sizes.

    A step's size is its largest absolute entry.  The raw gufunc solves the
    whole stack; a table whose step comes out non-finite (its system is
    singular) falls back to the public solve, and where that raises, to
    the gradient scaled by the Hessian's largest diagonal entry.
    """
    if _raw_solve1 is None:
        update = np.full_like(gradient, np.nan)  # every table takes the fallback
    else:
        update = _raw_solve1(hessian, gradient, signature="dd->d")
    sizes = []
    for table, row in enumerate(np.abs(update).tolist()):
        if math.isfinite(sum(row)):
            sizes.append(max(row))
            continue
        try:
            update[table] = np.linalg.solve(hessian[table], gradient[table])
        except np.linalg.LinAlgError:
            update[table] = gradient[table] / max(
                float(np.max(np.abs(np.diag(hessian[table])))), 1.0
            )
        sizes.append(float(np.abs(update[table]).max()))
    return update, sizes


def _newton(
    rows_design: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    sizes: Sequence[int],
    l2_penalty: float,
    max_iterations: int,
    tolerance: float,
) -> List[Tuple[np.ndarray, bool, int, float]]:
    """Run the IRLS on a stack of tables, each from a cold start.

    ``rows_design`` holds the tables' design rows, the intercept's column
    of ones first, one table after another; ``sizes`` holds each table's
    row count.  Returns, per table, its parameters, whether it converged,
    its iteration count and its penalised log-likelihood.  A table leaves
    the stack at the iteration its step's largest entry falls below
    ``tolerance``, or when the budget is spent.

    A row's linear predictor is one dot product of its design row and its
    table's parameters (``np.vecdot`` over a row-major design, so every row
    takes the same path whatever the stack).  Each iteration writes every
    row's gradient and Hessian terms into one ``(entries, rows + tables)``
    buffer, whose last column per table holds that table's penalty terms,
    and one ``np.bincount`` keyed by ``(table, entry)`` sums the buffer.  A
    key's terms are its table's rows in order, then its penalty term, so
    each sum is the table's sum over its rows minus ``penalty * theta``
    (gradient) or plus the ridge diagonal (Hessian).
    """
    width = rows_design.shape[1]
    entries = width + width * width
    penalty, ridge, negative_penalty, entry_keys = _stack_constants(l2_penalty, width)
    design = rows_design.T.copy()  # the terms read the design by column
    # Each row's Hessian terms are its weight times these products.
    products = (design[:, None, :] * design[None, :, :]).reshape(width * width, -1)
    tables = list(range(len(sizes)))  # the stack index of each active table
    owner = np.repeat(np.arange(len(sizes)), sizes)
    theta = np.zeros((len(sizes), width))
    z = np.zeros(owner.shape[0])
    results: List[Tuple[np.ndarray, bool, int, float]] = [None] * len(sizes)

    def layout():
        """Return the sum keys and the terms buffer's parts for the stack."""
        count, rows = len(tables), owner.shape[0]
        terms = np.empty((entries, rows + count))
        terms[width:, rows:] = ridge
        keys = entry_keys + entries * np.concatenate([owner, np.arange(count)])
        return (
            keys.reshape(-1),
            terms,
            terms[:width, :rows],
            terms[width:, :rows],
            terms[:width, rows:],
        )

    keys, terms, gradient_terms, hessian_terms, penalty_terms = layout()
    # The raw solve's singular signature is a quiet nan, checked after
    # each solve; no other operation of the loop can raise a warning (the
    # linear predictor is clipped before the exponentials).
    with np.errstate(all="ignore"):
        for iteration in range(1, max_iterations + 1):
            active = len(tables)
            z_clipped = np.minimum(np.maximum(z, _LOW), _HIGH)
            p = 1.0 / (1.0 + np.exp(-z_clipped))  # _sigmoid(z), sharing the clip
            np.multiply(design, weights * (y - p), out=gradient_terms)
            w = np.maximum(weights * p * (1.0 - p), 1e-10)
            np.multiply(products, w, out=hessian_terms)
            np.multiply(negative_penalty, theta.T, out=penalty_terms)
            # Every key occurs (each table has its penalty column), so the
            # sums come out ``active * entries`` long.
            sums = np.bincount(keys, terms.reshape(-1)).reshape(active, entries)
            update, steps = _newton_steps(
                sums[:, width:].reshape(active, width, width), sums[:, :width]
            )
            theta = theta + update
            z = np.vecdot(rows_design, theta if active == 1 else theta[owner])
            converged = [step < tolerance for step in steps]
            if iteration == max_iterations or False not in converged:
                finished = None  # every table
                rows, finished_owner, finished_theta = slice(None), owner, theta
            elif True in converged:
                finished = np.array(converged)
                rows = finished[owner]
                finished_owner = (np.cumsum(finished) - 1)[owner[rows]]
                finished_theta = theta[finished]
            else:
                continue
            likelihoods = iter(
                _penalised_log_likelihoods(
                    np.minimum(np.maximum(z[rows], _LOW), _HIGH),
                    y[rows],
                    weights[rows],
                    finished_owner,
                    finished_theta,
                    penalty,
                )
            )
            for index, flag in enumerate(converged):
                if finished is None or flag:
                    results[tables[index]] = (
                        theta[index],
                        flag,
                        iteration,
                        next(likelihoods),
                    )
            if finished is None:
                break
            kept, rows = ~finished, ~rows
            rows_design, design, products = (
                rows_design[rows],
                design[:, rows],
                products[:, rows],
            )
            y, weights, z = y[rows], weights[rows], z[rows]
            owner = (np.cumsum(kept) - 1)[owner[rows]]
            theta = theta[kept]
            tables = [table for table, flag in zip(tables, converged) if not flag]
            keys, terms, gradient_terms, hessian_terms, penalty_terms = layout()
    return results


def _prepare(
    features: np.ndarray,
    labels: Sequence[int] | np.ndarray,
    sample_weights: Sequence[float] | np.ndarray | None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Validate one table.

    Returns its features, labels and weights as floats, and whether its
    labels are all one class.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(labels, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels must have the same number of rows")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty data set")
    positives = np.count_nonzero(y == 1.0)
    if positives + np.count_nonzero(y == 0.0) != y.shape[0]:
        raise ValueError("labels must be binary (0 or 1)")
    if sample_weights is None:
        weights = np.ones_like(y)
    else:
        weights = np.asarray(sample_weights, dtype=float).ravel()
        if weights.shape != y.shape or np.count_nonzero(weights < 0):
            raise ValueError("sample_weights must be non-negative, one per sample")
    return x, y, weights, positives in (0, y.shape[0])


def fit_stack(
    models: Sequence["LogisticRegression"], problems: Sequence[Problem]
) -> List[LogisticFit]:
    """Fit each model on its own table, the tables in one Newton loop.

    ``problems[i]`` is ``(features, labels, sample_weights)`` for
    ``models[i]``, validated as :meth:`LogisticRegression.fit` validates
    it.  A single-class table gets the intercept-only fit; the others are
    solved together, one Newton loop per distinct ``(l2_penalty,
    max_iterations, tolerance, feature count)`` among the models.  Every
    fit equals the model's one-table fit bit for bit (see the module
    docstring).  Returns the fits in input order and stores each on its
    model.
    """
    if len(models) != len(problems):
        raise ValueError("fit_stack needs one problem per model")
    tables = [_prepare(*problem) for problem in problems]
    fits: List[LogisticFit | None] = [None] * len(models)
    stacks: Dict[Tuple[float, int, float, int], List[int]] = {}
    for index, (model, (x, y, weights, single_class)) in enumerate(zip(models, tables)):
        if single_class:
            fits[index] = model._single_class_fit(x, y, weights)
        else:
            settings = (model._l2_penalty, model._max_iterations, model._tolerance)
            stacks.setdefault((*settings, x.shape[1]), []).append(index)
    for (l2_penalty, max_iterations, tolerance, columns), members in stacks.items():
        stack = [tables[index] for index in members]
        if len(stack) == 1:
            (x, y, weights, _), = stack
        else:
            x = np.concatenate([table[0] for table in stack])
            y = np.concatenate([table[1] for table in stack])
            weights = np.concatenate([table[2] for table in stack])
        rows_design = np.empty((x.shape[0], columns + 1))
        rows_design[:, 0] = 1.0  # the intercept's column
        rows_design[:, 1:] = x
        solved = _newton(
            rows_design,
            y,
            weights,
            [table[0].shape[0] for table in stack],
            l2_penalty,
            max_iterations,
            tolerance,
        )
        for index, (theta, converged, iterations, likelihood) in zip(members, solved):
            fits[index] = LogisticFit(
                coefficients=theta[1:].copy(),
                intercept=float(theta[0]),
                converged=converged,
                iterations=iterations,
                log_likelihood=likelihood,
            )
    for model, fit in zip(models, fits):
        model._fit = fit
    return fits


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

    :meth:`fit` solves one table; :func:`fit_stack` fits many estimators,
    each on its own table, in one Newton loop, and every fit comes out as
    the estimator's own :meth:`fit` would have it.
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
            It is :func:`fit_stack` on a stack of one table.
        """
        return fit_stack([self], [(features, labels, sample_weights)])[0]

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
    def _log_likelihood(
        design: np.ndarray,
        y: np.ndarray,
        weights: np.ndarray,
        theta: np.ndarray,
        penalty: np.ndarray,
    ) -> float:
        """Penalised log-likelihood of one table at ``theta``, as a fit computes it."""
        z = np.vecdot(np.ascontiguousarray(design), theta).clip(-_CLIP, _CLIP)
        owner = np.zeros(y.shape[0], dtype=np.intp)
        return _penalised_log_likelihoods(
            z, y, weights, owner, theta[None, :], penalty
        )[0]

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
