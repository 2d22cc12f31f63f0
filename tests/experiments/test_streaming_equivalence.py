"""Cross-mode equivalence suite: streaming aggregation vs. full history.

``history_mode="aggregate"`` exists so million-user trials fit in memory,
but the reproduction guarantee must survive the refactor: every group-level
series the paper's figures consume has to be *bit-identical* to the
full-history path.  This suite pins that claim at two scales:

* the small scale of ``test_engine_equivalence.py`` (200 users, 2 trials),
  where the aggregate-mode group series must also reproduce the sharded
  engine's golden SHA-256 digests (``ENGINE_GOLDEN`` — extended here to
  the streaming path, so full, aggregate and sharded execution pin to one
  set of hashes);
* the paper scale (1000 users, 5 trials) of Figures 3-5 — including the
  fig5 density, which aggregate mode now reconstructs bit-identically from
  the streaming per-step rate histograms.

Also covered: the figure drivers end-to-end in aggregate mode, the clear
``FullHistoryRequiredError`` surface for per-user accessors, parallel
execution in aggregate mode, and chunked aggregate runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.history import FullHistoryRequiredError
from repro.core.streaming import AggregateHistory
from repro.data.census import Race
from repro.experiments.config import CaseStudyConfig
from repro.experiments.fig3_race_adr import fig3_race_adr
from repro.experiments.fig4_user_adr import fig4_user_adr
from repro.experiments.fig5_density import fig5_density
from repro.experiments.runner import run_experiment

from tests.experiments.harness import expected_group_digests, group_digests


@pytest.fixture(scope="module")
def small_config(golden_config) -> CaseStudyConfig:
    return golden_config

@pytest.fixture(scope="module")
def paper_config() -> CaseStudyConfig:
    return CaseStudyConfig()


@pytest.fixture(scope="module")
def full_small(golden_serial_result):
    return golden_serial_result


@pytest.fixture(scope="module")
def aggregate_small(small_config):
    return run_experiment(replace(small_config, history_mode="aggregate"))


@pytest.fixture(scope="module")
def full_paper(paper_config):
    return run_experiment(paper_config)


@pytest.fixture(scope="module")
def aggregate_paper(paper_config):
    return run_experiment(replace(paper_config, history_mode="aggregate"))


def assert_group_series_bit_identical(full_experiment, aggregate_experiment):
    """Assert every group-level series agrees bit for bit across modes."""
    assert len(full_experiment.trials) == len(aggregate_experiment.trials)
    for full_trial, aggregate_trial in zip(
        full_experiment.trials, aggregate_experiment.trials
    ):
        assert aggregate_trial.history_mode == "aggregate"
        assert isinstance(aggregate_trial.history, AggregateHistory)
        for race in Race:
            assert np.array_equal(
                full_trial.group_default_rates[race],
                aggregate_trial.group_default_rates[race],
            )
        assert np.array_equal(
            full_trial.approval_rate_series(), aggregate_trial.approval_rate_series()
        )
        assert np.array_equal(
            full_trial.history.observation_series("portfolio_rate"),
            aggregate_trial.history.portfolio_rate_series(),
        )
        full_actions = full_trial.group_action_averages()
        aggregate_actions = aggregate_trial.group_action_averages()
        full_approvals = full_trial.group_approval_series()
        aggregate_approvals = aggregate_trial.group_approval_series()
        for race in Race:
            assert np.array_equal(full_actions[race], aggregate_actions[race])
            assert np.array_equal(full_approvals[race], aggregate_approvals[race])
        assert np.array_equal(full_trial.races, aggregate_trial.races)


class TestSmallScaleEquivalence:
    """200 users x 2 trials: the scale of the seed golden digests."""

    def test_group_series_bit_identical(self, full_small, aggregate_small):
        assert_group_series_bit_identical(full_small, aggregate_small)

    def test_aggregate_mode_reproduces_engine_goldens(self, aggregate_small):
        """The streaming group series hash to the engine's pinned goldens.

        ``ENGINE_GOLDEN`` pins the sharded full-history engine; asserting
        the same digests against the streaming path extends the pin across
        both recording modes (and, via ``test_execution_equivalence.py``,
        every execution layout).
        """
        observed = {}
        expected = {}
        for index, trial in enumerate(aggregate_small.trials):
            observed.update(group_digests(trial, index, portfolio=True))
            expected.update(expected_group_digests(index, portfolio=True))
        assert observed == expected

    def test_aggregate_approvals_match_full_history(self, full_small, aggregate_small):
        for full_trial, aggregate_trial in zip(
            full_small.trials, aggregate_small.trials
        ):
            assert np.array_equal(
                full_trial.history.approval_rates(),
                aggregate_trial.history.approval_rates(),
            )


class TestPaperScaleEquivalence:
    """1000 users x 5 trials: the configuration behind Figures 3-5."""

    def test_group_series_bit_identical(self, full_paper, aggregate_paper):
        assert_group_series_bit_identical(full_paper, aggregate_paper)

    def test_fig3_bit_identical(self, full_paper, aggregate_paper):
        full_figure = fig3_race_adr(result=full_paper)
        aggregate_figure = fig3_race_adr(result=aggregate_paper)
        assert full_figure.years == aggregate_figure.years
        for race in Race:
            assert np.array_equal(
                full_figure.mean_series[race], aggregate_figure.mean_series[race]
            )
            assert np.array_equal(
                full_figure.std_series[race], aggregate_figure.std_series[race]
            )
        assert full_figure.initial_gap == aggregate_figure.initial_gap
        assert full_figure.final_gap == aggregate_figure.final_gap

    def test_fig4_group_series_and_spreads_bit_identical(
        self, full_paper, aggregate_paper
    ):
        full_figure = fig4_user_adr(result=full_paper)
        aggregate_figure = fig4_user_adr(result=aggregate_paper)
        assert full_figure.num_series == aggregate_figure.num_series
        for race in Race:
            assert np.array_equal(
                full_figure.group_mean_series[race],
                aggregate_figure.group_mean_series[race],
            )
        # max/min pool exactly across trials, so the spreads are bit-equal.
        assert full_figure.initial_spread == aggregate_figure.initial_spread
        assert full_figure.final_spread == aggregate_figure.final_spread
        # The pooled std uses the one-pass moment formula in aggregate mode:
        # equal to reassociation error, not bit-equal.
        np.testing.assert_allclose(
            full_figure.dispersion_series,
            aggregate_figure.dispersion_series,
            rtol=1e-9,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            full_figure.mean_series, aggregate_figure.mean_series, rtol=1e-12
        )
        assert aggregate_figure.user_series is None
        assert aggregate_figure.user_races is None
        assert "cross-user spread" in aggregate_figure.summary()


class TestAggregateModeSurface:
    """Aggregate mode fails loudly where per-user rows would be needed."""

    def test_per_user_accessors_raise(self, aggregate_small):
        trial = aggregate_small.trials[0]
        assert trial.user_default_rates is None
        with pytest.raises(FullHistoryRequiredError):
            trial.history.decisions_matrix()
        with pytest.raises(FullHistoryRequiredError):
            trial.history.actions_matrix()
        with pytest.raises(FullHistoryRequiredError):
            trial.history.running_default_rates()
        with pytest.raises(FullHistoryRequiredError):
            trial.history.public_feature_matrix("income")
        with pytest.raises(FullHistoryRequiredError):
            trial.history.observation_series("user_default_rates")
        with pytest.raises(FullHistoryRequiredError):
            trial.require_user_default_rates()

    def test_stacked_user_series_raises(self, aggregate_small):
        with pytest.raises(FullHistoryRequiredError):
            aggregate_small.stacked_user_series()

    def test_fig5_bit_identical_across_modes(self, full_small, aggregate_small):
        """fig5 now runs in aggregate mode: pooled integer histograms.

        Counts are integers, so the streamed density equals the
        full-history histogram of the concatenated user stack bit for bit.
        """
        full_figure = fig5_density(result=full_small)
        aggregate_figure = fig5_density(result=aggregate_small)
        assert np.array_equal(full_figure.bin_edges, aggregate_figure.bin_edges)
        assert np.array_equal(full_figure.density, aggregate_figure.density)
        assert np.array_equal(
            full_figure.modal_bin_centers, aggregate_figure.modal_bin_centers
        )
        assert np.array_equal(
            full_figure.mass_below_010, aggregate_figure.mass_below_010
        )

    def test_fig5_aggregate_rejects_mismatched_binning(self, aggregate_small):
        with pytest.raises(ValueError, match="rate histograms"):
            fig5_density(result=aggregate_small, num_bins=33)

    def test_error_message_names_the_knob(self, aggregate_small):
        with pytest.raises(FullHistoryRequiredError, match='history_mode="full"'):
            aggregate_small.trials[0].history.decisions_matrix()

    def test_history_mode_is_reported(self, full_small, aggregate_small):
        assert full_small.history_mode == "full"
        assert aggregate_small.history_mode == "aggregate"
        assert full_small.trials[0].history_mode == "full"

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(history_mode="columnar")
        with pytest.raises(ValueError):
            replace(CaseStudyConfig(num_users=10), history_mode="nope")


class TestAggregateParallelAndChunked:
    """Scheduling and chunking do not perturb the streaming series."""

    def test_parallel_aggregate_matches_serial(self, small_config, aggregate_small):
        parallel = run_experiment(
            replace(
                small_config, history_mode="aggregate", execution="pool", max_workers=2
            )
        )
        for serial_trial, parallel_trial in zip(
            aggregate_small.trials, parallel.trials
        ):
            for race in Race:
                assert np.array_equal(
                    serial_trial.group_default_rates[race],
                    parallel_trial.group_default_rates[race],
                )
            assert np.array_equal(
                serial_trial.approval_rate_series(),
                parallel_trial.approval_rate_series(),
            )

    def test_chunked_aggregate_run_matches_single_run(self):
        from repro.core.ai_system import CreditScoringSystem
        from repro.core.filters import DefaultRateFilter
        from repro.core.loop import ClosedLoop
        from repro.core.population import CreditPopulation
        from repro.credit.lender import Lender
        from repro.data.synthetic import PopulationSpec, generate_population

        def build_loop(seed: int) -> ClosedLoop:
            rng = np.random.default_rng(seed)
            population = CreditPopulation(
                population=generate_population(PopulationSpec(size=50), rng)
            )
            return ClosedLoop(
                ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
                population=population,
                loop_filter=DefaultRateFilter(num_users=50),
            )

        groups = {"even": np.arange(0, 50, 2), "odd": np.arange(1, 50, 2)}
        rng_whole = np.random.default_rng(77)
        whole = build_loop(1).run(
            10, rng=rng_whole, history_mode="aggregate", groups=groups
        )

        rng_chunks = np.random.default_rng(77)
        loop = build_loop(1)
        history = loop.run(4, rng=rng_chunks, history_mode="aggregate", groups=groups)
        history = loop.run(6, history=history)

        assert history.num_steps == whole.num_steps == 10
        assert np.array_equal(whole.approval_rates(), history.approval_rates())
        for key in groups:
            assert np.array_equal(
                whole.group_default_rate_series()[key],
                history.group_default_rate_series()[key],
            )
