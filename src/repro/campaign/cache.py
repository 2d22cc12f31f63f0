"""Content-addressed cache of completed campaign job results.

The cache key is a full sha256 digest over exactly the fields that steer a
job's trajectory — the arm references plus
:func:`~repro.experiments.runner.trajectory_fingerprint_fields` and the
trial count — joined with the same ``\\x1f``-separated ``repr`` discipline
as :func:`~repro.core.checkpoint.config_fingerprint`.  Execution layout
(``execution``, worker caps, kernel threads) never enters the digest:
every layout is bit-identical by construction, so an entry written by a
serial run hits under pooled or batched execution and vice versa.

Entries are crash-consistent files written through the checkpoint envelope
(temp file + fsync + atomic rename + payload digest), holding the compact
across-trial group series — the quantities every figure consumes — never
per-user matrices.  A torn or foreign file degrades to a recompute with a
:class:`RuntimeWarning`; a wrong hit is structurally impossible because
the payload carries its own key.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.core.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from repro.campaign.spec import CampaignJob
from repro.data.census import Race
from repro.experiments.runner import ExperimentResult, trajectory_fingerprint_fields

__all__ = ["CACHE_VERSION", "CampaignJobSeries", "ResultCache", "job_key"]

#: Bump to invalidate every existing cache entry on a format change.
#: Version 2: the refit knobs left the trajectory fields, so every key moved.
#: Version 3: ``income_threshold`` left them too.
CACHE_VERSION = 3


def job_key(job: CampaignJob) -> str:
    """Return the content address of one campaign job's result.

    The digest covers the arm identities (name + canonical parameters),
    the trial count, and the trajectory-defining config fields in the
    frozen :func:`trajectory_fingerprint_fields` order.  Nothing about
    *how* the job executes is included — layout invariance is structural,
    not filtered after the fact.
    """
    parts: Tuple[object, ...] = (
        "repro-campaign",
        CACHE_VERSION,
        job.scenario.name,
        job.scenario.params,
        job.policy.name,
        job.policy.params,
        job.config.num_trials,
        *trajectory_fingerprint_fields(job.config),
    )
    joined = "\x1f".join(repr(part) for part in parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CampaignJobSeries:
    """Compact across-trial series of one completed campaign job.

    Attributes
    ----------
    years:
        Calendar years of the steps.
    group_default_rates:
        Per race, the stacked ``(trials, steps)`` matrix of ``ADR_s(k)``
        series — the rows are the individual trials, in trial order.
    approval_rates:
        The stacked ``(trials, steps)`` per-step approval-rate series.
    """

    years: Tuple[int, ...]
    group_default_rates: Dict[Race, np.ndarray]
    approval_rates: np.ndarray

    @property
    def num_trials(self) -> int:
        """Return how many trials the series stack."""
        return int(self.approval_rates.shape[0])

    def group_mean_series(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the across-trial mean of ``ADR_s(k)``.

        ``np.mean`` over the stacked rows is the same reduction (bit for
        bit) as :meth:`ExperimentResult.group_mean_series` applied to the
        retained trials, so cached and fresh results are interchangeable.
        """
        return {
            race: np.mean(series, axis=0)
            for race, series in self.group_default_rates.items()
        }

    def group_std_series(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the across-trial standard deviation."""
        return {
            race: np.std(series, axis=0)
            for race, series in self.group_default_rates.items()
        }

    def mean_approval_series(self) -> np.ndarray:
        """Return the across-trial mean approval-rate series."""
        return np.mean(self.approval_rates, axis=0)

    @classmethod
    def from_experiment(cls, result: ExperimentResult) -> "CampaignJobSeries":
        """Stack a :class:`ExperimentResult`'s retained trials into series.

        Requires ``keep_trials=True`` (the campaign runner always keeps
        them — the per-trial group series are tiny).
        """
        if not result.trials:
            raise ValueError(
                "CampaignJobSeries needs retained trials; run the experiment "
                "with keep_trials=True"
            )
        group_rates = {
            race: np.stack(
                [trial.group_default_rates[race] for trial in result.trials]
            )
            for race in Race
        }
        approvals = np.stack(
            [trial.approval_rate_series() for trial in result.trials]
        )
        return cls(
            years=tuple(result.years),
            group_default_rates=group_rates,
            approval_rates=approvals,
        )


class ResultCache:
    """Directory of content-addressed campaign job results.

    One file per key, written crash-consistently; concurrent writers of
    the *same* key are harmless (the payload is deterministic, the rename
    atomic) — which is what lets campaign job workers publish their own
    results and a killed sweep keep everything already finished.
    """

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Path:
        """Return the cache directory."""
        return self._directory

    def path_for(self, key: str) -> Path:
        """Return the entry file of one key."""
        return self._directory / f"{key}.result"

    def __contains__(self, key: str) -> bool:
        """Cheap existence probe (no integrity check — use :meth:`load`)."""
        return self.path_for(key).exists()

    def store(self, key: str, series: CampaignJobSeries) -> Path | None:
        """Persist one job's series under its key, atomically.

        Returns the entry's path, or ``None`` when the write failed (a
        full disk): the failure is reported with a :class:`RuntimeWarning`
        instead of raised, because the series it would have cached is
        still valid — the job just recomputes on the next sweep.
        """
        path = self.path_for(key)
        payload = {
            "kind": "campaign_result",
            "version": CACHE_VERSION,
            "key": key,
            "years": tuple(series.years),
            "group_default_rates": {
                race.name: np.asarray(rates)
                for race, rates in series.group_default_rates.items()
            },
            "approval_rates": np.asarray(series.approval_rates),
        }
        try:
            write_checkpoint(path, payload)
        except OSError as error:
            warnings.warn(
                f"could not publish campaign job result {path} ({error}); "
                "the job recomputes on the next sweep",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return path

    def load(self, key: str) -> CampaignJobSeries | None:
        """Return the cached series of one key, or ``None`` to recompute.

        Every failure mode — missing file, torn envelope, foreign payload,
        version skew — degrades to a recompute (with a
        :class:`RuntimeWarning` when a file existed but could not be
        trusted).  A wrong hit is never returned: the payload's embedded
        key must match the requested one.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            payload = read_checkpoint(path)
        except CheckpointError as error:
            warnings.warn(
                f"recomputing campaign job: cache entry {path.name} is "
                f"unreadable ({error})",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != "campaign_result"
            or payload.get("version") != CACHE_VERSION
            or payload.get("key") != key
        ):
            warnings.warn(
                f"recomputing campaign job: cache entry {path.name} does not "
                "carry the expected campaign payload (foreign file, or a "
                "cache-format version bump)",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return CampaignJobSeries(
            years=tuple(payload["years"]),
            group_default_rates={
                Race[name]: np.asarray(rates)
                for name, rates in payload["group_default_rates"].items()
            },
            approval_rates=np.asarray(payload["approval_rates"]),
        )

    def total_bytes(self) -> int:
        """Return the total size of every entry file, in bytes."""
        return sum(
            entry.stat().st_size for entry in self._directory.glob("*.result")
        )

    def __len__(self) -> int:
        """Return the number of entry files."""
        return sum(1 for _ in self._directory.glob("*.result"))
