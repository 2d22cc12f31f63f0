"""The retraining lender: the paper's AI system for the credit case study.

Each year the lender

1. assembles the design matrix (income code, previous average default rate)
   for every user,
2. refits a logistic regression whose label is last year's repayment action,
3. converts the fitted model into a scorecard (the yearly "Table I"), and
4. approves every user whose score exceeds the fixed cut-off (0.4).

During the warm-up years (the paper's 2002-2003) no scorecard exists and
everyone is approved, which initialises the average default rates the later
scorecards are trained on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.scoring.cutoff import CutoffPolicy
from repro.scoring.features import FeatureBuilder, clipped_default_rates
from repro.scoring.logistic import LogisticRegression
from repro.scoring.scorecard import Scorecard
from repro.scoring.suffstats import CompressedDesign

__all__ = ["LenderDecision", "Lender"]

_RETRAIN_MODES = ("exact", "compressed")


@dataclass(frozen=True)
class LenderDecision:
    """Outcome of one lender decision round.

    Attributes
    ----------
    decisions:
        0/1 approval per user.
    scores:
        Score per user (``nan`` during warm-up rounds with no scorecard).
    scorecard:
        The scorecard used this round, or ``None`` during warm-up.
    warm_up:
        Whether this round applied the approve-everyone warm-up rule.
    """

    decisions: np.ndarray
    scores: np.ndarray
    scorecard: Scorecard | None
    warm_up: bool

    @property
    def approval_rate(self) -> float:
        """Return the fraction of users approved this round."""
        return float(np.mean(self.decisions))


class Lender:
    """Scorecard lender retrained every round on the filtered loop signal.

    Parameters
    ----------
    cutoff:
        Decision cut-off on the scorecard score (paper: 0.4).
    warm_up_rounds:
        Number of initial rounds during which everyone is approved
        (paper: 2, the years 2002 and 2003).
    feature_builder:
        Builder of the (income code, previous ADR) design matrix.
    l2_penalty:
        Ridge penalty of the yearly logistic refit.
    retrain_mode:
        ``"exact"`` (default) refits on the row-level training set;
        ``"compressed"`` first deduplicates it into a
        :class:`~repro.scoring.suffstats.CompressedDesign` count table and
        routes the refit through the weighted IRLS path, so each Newton
        iteration costs O(unique rows) instead of O(users).  Both modes
        optimise the same objective; the compressed coefficients agree with
        the exact ones to solver tolerance (the equivalence suite pins
        identical decision vectors at paper scale).
    warm_start:
        Seed each refit's Newton iteration at the previous year's
        parameters instead of zero.  Opt-in: it changes the iteration path
        (not the optimum), so it stays off the default reproduction path.
    """

    def __init__(
        self,
        cutoff: float = 0.4,
        warm_up_rounds: int = 2,
        feature_builder: FeatureBuilder | None = None,
        l2_penalty: float = 1e-3,
        retrain_mode: str = "exact",
        warm_start: bool = False,
    ) -> None:
        if warm_up_rounds < 0:
            raise ValueError("warm_up_rounds must be non-negative")
        if retrain_mode not in _RETRAIN_MODES:
            raise ValueError(
                f'retrain_mode must be one of {_RETRAIN_MODES}, got {retrain_mode!r}'
            )
        self._cutoff_policy = CutoffPolicy(cutoff=cutoff)
        self._warm_up_rounds = warm_up_rounds
        self._feature_builder = feature_builder or FeatureBuilder()
        self._l2_penalty = l2_penalty
        self._retrain_mode = retrain_mode
        self._warm_start = bool(warm_start)
        self._rounds_seen = 0
        self._scorecard: Scorecard | None = None
        self._model: LogisticRegression | None = None

    @property
    def cutoff(self) -> float:
        """Return the decision cut-off."""
        return self._cutoff_policy.cutoff

    @property
    def retrain_mode(self) -> str:
        """Return the refit strategy (``"exact"`` or ``"compressed"``)."""
        return self._retrain_mode

    @property
    def warm_start(self) -> bool:
        """Return whether refits warm-start at the previous parameters."""
        return self._warm_start

    @property
    def feature_builder(self) -> FeatureBuilder:
        """Return the builder of the (income code, previous ADR) matrix."""
        return self._feature_builder

    @property
    def scorecard(self) -> Scorecard | None:
        """Return the most recently trained scorecard (``None`` before training)."""
        return self._scorecard

    @property
    def rounds_seen(self) -> int:
        """Return the number of decision rounds performed."""
        return self._rounds_seen

    @property
    def in_warm_up(self) -> bool:
        """Return whether the next decision round is still a warm-up round."""
        return self._rounds_seen < self._warm_up_rounds

    def retrain(
        self,
        incomes: Sequence[float] | np.ndarray,
        previous_default_rates: Sequence[float] | np.ndarray,
        repayments: Sequence[int] | np.ndarray,
        offered: Sequence[int] | np.ndarray | None = None,
    ) -> Scorecard:
        """Refit the logistic model and refresh the scorecard.

        Parameters
        ----------
        incomes:
            Last year's incomes (the features the new card will be trained
            on use the *income code*, not the raw income).
        previous_default_rates:
            The users' average default rates entering last year.
        repayments:
            Last year's observed repayment actions (the training label).
        offered:
            Optional 0/1 mask restricting the training set to users who were
            actually offered a mortgage (only they produce an observable
            label).  When omitted every user is used, which matches the
            paper's warm-up where everyone is approved.  A mask selecting
            fewer than 2 users keeps the previous scorecard (there is no
            informative label to refit on), or raises :class:`ValueError`
            when no scorecard exists yet.

        Returns
        -------
        Scorecard
            The freshly trained scorecard (also stored on the lender).
        """
        if self._retrain_mode == "compressed":
            return self._retrain_compressed(
                incomes, previous_default_rates, repayments, offered
            )
        features = self._feature_builder.design_matrix(incomes, previous_default_rates)
        labels = np.asarray(repayments, dtype=float).ravel()
        if offered is not None:
            mask = np.asarray(offered, dtype=float).ravel() == 1.0
            if mask.shape[0] != features.shape[0]:
                raise ValueError("offered mask must have one entry per user")
            if mask.sum() < 2:
                return self._degenerate_offered_mask()
            features = features[mask]
            labels = labels[mask]
        model = LogisticRegression(l2_penalty=self._l2_penalty)
        model.fit(features, labels, initial_parameters=self._warm_start_parameters())
        return self._install_model(model)

    def _retrain_compressed(
        self,
        incomes: Sequence[float] | np.ndarray,
        previous_default_rates: Sequence[float] | np.ndarray,
        repayments: Sequence[int] | np.ndarray,
        offered: Sequence[int] | np.ndarray | None,
    ) -> Scorecard:
        """The O(unique rows) refit: compress first, never build (n, 2).

        Semantically this is the exact path with
        :class:`~repro.scoring.suffstats.CompressedDesign` in between —
        same feature definitions (income code, rates clipped to [0, 1]
        after the same tolerance check), same ``offered`` handling — but it
        skips materialising the row-level design matrix, so the whole step
        is a few O(users) passes plus one sort of packed 64-bit keys.
        """
        # The boolean comparison IS the income code (income_code merely
        # casts it to float); CompressedDesign takes the bool column
        # without a cast or a redundant binary check.
        codes = (
            np.asarray(incomes, dtype=float).ravel()
            >= self._feature_builder.income_threshold
        )
        rates = np.asarray(previous_default_rates, dtype=float).ravel()
        if codes.shape != rates.shape:
            raise ValueError("incomes and previous_default_rates must align")
        labels = np.asarray(repayments, dtype=float).ravel()
        if offered is not None:
            mask_array = np.asarray(offered, dtype=float).ravel()
            if mask_array.shape[0] != codes.shape[0]:
                raise ValueError("offered mask must have one entry per user")
        table = CompressedDesign.from_arrays(
            codes, clipped_default_rates(rates), labels, offered=offered
        )
        if offered is not None and table.num_rows < 2:
            return self._degenerate_offered_mask()
        return self._fit_from_table(table)

    def _degenerate_offered_mask(self) -> Scorecard:
        """Handle an offered mask selecting fewer than 2 users.

        Almost nobody was offered credit this round, so there is no
        informative label to learn from: keep the previous card rather than
        refitting on labels that are zero by construction for every denied
        user.  With no previous card either, refitting on the *unmasked*
        population (the old silent fall-through) would train on labels the
        lender never observed — refuse explicitly instead.
        """
        if self._scorecard is not None:
            return self._scorecard
        raise ValueError(
            "the offered mask selects fewer than 2 users and no "
            "previous scorecard exists to fall back on; train at "
            "least once on an informative round (or omit `offered` "
            "to reproduce the approve-everyone warm-up)"
        )

    def retrain_from_suffstats(self, table: CompressedDesign) -> Scorecard:
        """Refit from a pre-aggregated count table (chunked retraining).

        The lockstep kernel builds one
        :class:`~repro.scoring.suffstats.CompressedDesign` per user block
        and merges them by exact integer addition; this entry point runs the
        tiny O(unique rows) central fit on the merged table.  The degenerate
        cases mirror :meth:`retrain`'s `offered` handling: a table with
        fewer than 2 represented rows keeps the previous card, or raises
        when none exists.
        """
        if table.num_rows < 2:
            if self._scorecard is not None:
                return self._scorecard
            raise ValueError(
                "the count table represents fewer than 2 offered users and "
                "no previous scorecard exists to fall back on"
            )
        return self._fit_from_table(table)

    def _warm_start_parameters(self) -> np.ndarray | None:
        """Return the previous fit's ``[intercept, *coefficients]``, or None."""
        if not self._warm_start or self._model is None:
            return None
        fit = self._model.fit_result
        return np.concatenate([[fit.intercept], fit.coefficients])

    def _fit_from_table(self, table: CompressedDesign) -> Scorecard:
        """Run the weighted O(unique rows) refit on a count table."""
        model = LogisticRegression(l2_penalty=self._l2_penalty)
        model.fit(
            table.design_matrix(),
            table.labels,
            sample_weights=table.counts,
            initial_parameters=self._warm_start_parameters(),
        )
        return self._install_model(model)

    def _install_model(self, model: LogisticRegression) -> Scorecard:
        """Store a freshly fitted model and rebuild the scorecard from it."""
        self._model = model
        self._scorecard = Scorecard.from_logistic(
            model,
            feature_names=list(self._feature_builder.feature_names),
            descriptions={
                "income_code": "income code 1{income >= $15K}",
                "average_default_rate": "x average default rate",
            },
        )
        return self._scorecard

    def export_state(self) -> Dict[str, object]:
        """Return a picklable snapshot of the lender's learning state.

        The state is the round counter plus the fitted model; the scorecard
        is *derived* (rebuilt deterministically from the model's
        coefficients on import), and the constructor knobs (cutoff, warm-up
        length, penalty, modes) are deliberately excluded — a restored
        lender must be constructed with the same configuration, which the
        checkpoint layer guards with its config fingerprint.
        """
        return {"rounds_seen": self._rounds_seen, "model": self._model}

    def import_state(self, state: Mapping[str, object]) -> None:
        """Restore the learning state captured by :meth:`export_state`."""
        self._rounds_seen = int(state["rounds_seen"])
        model = state.get("model")
        if model is None:
            self._model = None
            self._scorecard = None
        else:
            self._install_model(model)

    def decide(
        self,
        incomes: Sequence[float] | np.ndarray,
        previous_default_rates: Sequence[float] | np.ndarray,
    ) -> LenderDecision:
        """Produce this round's credit decisions.

        During warm-up rounds everyone is approved and scores are ``nan``;
        afterwards the stored scorecard scores the (income code, previous
        ADR) features and the cut-off policy converts scores to decisions.
        A lender past warm-up with no trained scorecard raises
        :class:`RuntimeError` — callers must retrain first.
        """
        incomes_array = np.asarray(incomes, dtype=float).ravel()
        rates_array = np.asarray(previous_default_rates, dtype=float).ravel()
        if incomes_array.shape != rates_array.shape:
            raise ValueError("incomes and previous_default_rates must align")
        if self.in_warm_up:
            decision = LenderDecision(
                decisions=np.ones(incomes_array.size, dtype=int),
                scores=np.full(incomes_array.size, np.nan),
                scorecard=None,
                warm_up=True,
            )
        else:
            if self._scorecard is None:
                raise RuntimeError("the lender must be retrained before deciding")
            features = self._feature_builder.design_matrix(incomes_array, rates_array)
            scores = self._scorecard.score_matrix(features)
            decision = LenderDecision(
                decisions=self._cutoff_policy.decide(scores),
                scores=scores,
                scorecard=self._scorecard,
                warm_up=False,
            )
        self._rounds_seen += 1
        return decision
