"""Content-addressed cache: key semantics, round-trips, torn-entry chaos."""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.campaign.cache import CACHE_VERSION, CampaignJobSeries, ResultCache, job_key
from repro.campaign.spec import CampaignSpec, expand_campaign
from repro.core.checkpoint import write_checkpoint
from repro.data.census import Race
from repro.experiments.runner import run_experiment


def _single_job(**spec_kwargs):
    defaults = dict(
        population_sizes=(60,),
        seeds=(5,),
        num_trials=2,
        start_year=2002,
        end_year=2005,
    )
    defaults.update(spec_kwargs)
    (job,) = expand_campaign(CampaignSpec(**defaults))
    return job


@pytest.fixture(scope="module")
def job():
    return _single_job()


@pytest.fixture(scope="module")
def series(job):
    result = run_experiment(
        job.config,
        policy_factory=job.policy_factory(),
        income_table=job.income_table(),
    )
    return CampaignJobSeries.from_experiment(result)


class TestJobKey:
    def test_key_is_a_full_sha256_hexdigest(self, job):
        key = job_key(job)
        assert len(key) == 64
        assert key == job_key(job)  # deterministic

    def test_key_invariant_under_every_run_option(self, job):
        base = job_key(job)
        for options in (
            dict(execution="serial"),
            dict(execution="pool", max_workers=4),
            dict(execution="shard", num_shards=2),
            dict(execution="batch"),
            dict(execution="auto", num_shards=8, max_workers=2),
        ):
            (twin,) = expand_campaign(
                CampaignSpec(
                    population_sizes=(60,),
                    seeds=(5,),
                    num_trials=2,
                    start_year=2002,
                    end_year=2005,
                    **options,
                )
            )
            assert job_key(twin) == base, options

    def test_key_sensitive_to_trajectory_fields(self, job):
        base = job_key(job)
        variants = [
            _single_job(seeds=(6,)),
            _single_job(population_sizes=(61,)),
            _single_job(num_trials=3),
            _single_job(end_year=2006),
            _single_job(start_year=2003),
            _single_job(retrain_modes=("compressed",)),
            _single_job(warm_start=True),
            _single_job(history_mode="full"),
            _single_job(policies=("static",)),
            _single_job(scenarios=("recession",)),
            _single_job(scenarios=({"name": "recession", "downshift": 0.2},)),
            _single_job(policies=({"name": "epsilon-greedy", "epsilon": 0.2},)),
        ]
        keys = [job_key(variant) for variant in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys)


class TestCampaignJobSeries:
    def test_bit_identical_to_fresh_experiment(self, job, series):
        fresh = run_experiment(
            job.config,
            policy_factory=job.policy_factory(),
            income_table=job.income_table(),
        )
        for race in Race:
            stacked = np.stack(
                [trial.group_default_rates[race] for trial in fresh.trials]
            )
            assert np.array_equal(
                series.group_default_rates[race], stacked, equal_nan=True
            )
            # The cached mean is the experiment's mean, bit for bit.
            assert np.array_equal(
                series.group_mean_series()[race],
                fresh.group_mean_series()[race],
                equal_nan=True,
            )
            assert np.array_equal(
                series.group_std_series()[race],
                fresh.group_std_series()[race],
                equal_nan=True,
            )
        assert series.num_trials == len(fresh.trials)
        assert series.years == tuple(fresh.years)

    def test_requires_retained_trials(self, job):
        trimmed = run_experiment(
            job.config,
            policy_factory=job.policy_factory(),
            income_table=job.income_table(),
            keep_trials=False,
        )
        with pytest.raises(ValueError, match="keep_trials"):
            CampaignJobSeries.from_experiment(trimmed)


class TestResultCache:
    def test_round_trip(self, tmp_path, job, series):
        cache = ResultCache(tmp_path)
        key = job_key(job)
        assert key not in cache
        assert cache.load(key) is None
        cache.store(key, series)
        assert key in cache
        assert len(cache) == 1
        assert cache.total_bytes() > 0
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.years == series.years
        for race in Race:
            assert np.array_equal(
                loaded.group_default_rates[race],
                series.group_default_rates[race],
                equal_nan=True,
            )
        assert np.array_equal(loaded.approval_rates, series.approval_rates)

    def test_torn_entry_recomputes_with_warning(self, tmp_path, job, series):
        cache = ResultCache(tmp_path)
        key = job_key(job)
        path = cache.store(key, series)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # tear the file
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert cache.load(key) is None

    def test_garbage_entry_recomputes_with_warning(self, tmp_path, job):
        cache = ResultCache(tmp_path)
        key = job_key(job)
        cache.path_for(key).write_bytes(os.urandom(64))
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert cache.load(key) is None

    def test_foreign_payload_never_hits(self, tmp_path, job):
        cache = ResultCache(tmp_path)
        key = job_key(job)
        # An intact checkpoint file that is not a campaign result.
        write_checkpoint(cache.path_for(key), {"kind": "trial_result"})
        with pytest.warns(RuntimeWarning, match="expected campaign payload"):
            assert cache.load(key) is None

    def test_entry_under_wrong_key_never_hits(self, tmp_path, job, series):
        cache = ResultCache(tmp_path)
        key = job_key(job)
        cache.store(key, series)
        other = _single_job(seeds=(6,))
        other_key = job_key(other)
        # Simulate a mis-filed entry: copy the valid file to the wrong key.
        cache.path_for(other_key).write_bytes(cache.path_for(key).read_bytes())
        with pytest.warns(RuntimeWarning, match="expected campaign payload"):
            assert cache.load(other_key) is None

    def test_version_skew_never_hits(self, tmp_path, job, series, monkeypatch):
        cache = ResultCache(tmp_path)
        key = job_key(job)
        cache.store(key, series)
        monkeypatch.setattr("repro.campaign.cache.CACHE_VERSION", CACHE_VERSION + 1)
        with pytest.warns(RuntimeWarning, match="expected campaign payload"):
            assert cache.load(key) is None

    def test_valid_entries_load_silently(self, tmp_path, job, series):
        cache = ResultCache(tmp_path)
        key = job_key(job)
        cache.store(key, series)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(key) is not None
