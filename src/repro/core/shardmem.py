"""What is left of the retired shard pool's shared-memory transport.

The process shard pool moved each step's feature, decision and action rows
through a POSIX shared-memory segment.  The pool is gone: the lockstep
kernel (:mod:`repro.experiments.batch`) spreads a trial's users over
threads of one process, so nothing crosses a process boundary per step and
nothing is allocated in ``/dev/shm``.

Kept for the benchmark harness until its next change: ``perfbench/run.py``
imports these three names, checks for leaked segments and reports the two
per-step byte counts, which now always read zero.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

__all__ = ["TransportMeter", "set_transport_meter", "live_segments"]

#: Name prefix of the segments the retired shard pool created.
_SEGMENT_PREFIX = "repro-shm-"


def live_segments() -> Tuple[str, ...]:
    """Return the names of ``/dev/shm`` entries with the shard pool's prefix.

    Nothing in the package creates one any more, so a name listed here was
    left behind by another process.  Returns an empty tuple on platforms
    without a ``/dev/shm``.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return ()
    return tuple(sorted(name for name in entries if name.startswith(_SEGMENT_PREFIX)))


class TransportMeter:
    """Per-step bytes moved between processes: none, so both figures are 0."""

    def per_step_pickled(self) -> float:
        """Return the pickled payload bytes per loop step."""
        return 0.0

    def per_step_shared(self) -> float:
        """Return the shared-memory bytes per loop step."""
        return 0.0


def set_transport_meter(meter: Optional[TransportMeter]) -> None:
    """Accept a meter (or ``None``); no transport reports to it."""
