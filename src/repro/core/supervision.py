"""Supervised worker-pool execution: timeouts, retries, backoff, teardown.

Two supervised process pools are left: the trial pool in
:mod:`repro.experiments.runner` and the campaign job pool in
:mod:`repro.campaign.runner`.  They share one failure model: a worker can
*die* (OOM kill, SIGKILL — surfaces as ``BrokenProcessPool``), *hang*
(surfaces as a future that never completes), or *raise*.  The supervisor
contract is the same in both pools:

1. every gather goes through a deadline so a hung worker becomes a
   detected failure instead of a stuck experiment;
2. a detected failure is retried — after an exponential backoff — from the
   last consistent snapshot (a trial's checkpoint boundary, or the start
   of the unit of work), with the broken pool torn down and rebuilt;
3. when the retry budget is exhausted the work degrades to the
   bit-identical serial path with a structured :class:`RuntimeWarning`,
   never a crashed experiment.

:class:`SupervisorPolicy` carries the knobs; :class:`WorkerPoolFailure` is
the internal signal that unifies death/hang/raise so the retry loop has a
single except clause.
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass

__all__ = [
    "SupervisorPolicy",
    "WorkerPoolFailure",
    "is_picklable",
    "kill_executor",
]

#: Upper bound on how long :func:`kill_executor` waits for terminated
#: workers to be reaped (a SIGTERM'd worker exits in milliseconds).
_REAP_TIMEOUT_S = 10.0


class WorkerPoolFailure(RuntimeError):
    """A pooled work unit died, hung, or raised; carries the cause."""

    def __init__(self, reason: str, cause: BaseException | None = None) -> None:
        super().__init__(reason if cause is None else f"{reason}: {cause!r}")
        self.reason = reason
        self.cause = cause


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout/backoff policy of a supervised worker pool.

    Attributes
    ----------
    max_retries:
        How many times a failed unit of work is retried before it degrades
        to the serial path.  ``0`` disables retries (first failure degrades
        immediately); the failure itself is still detected and contained.
    timeout:
        Liveness deadline in seconds for worker futures.  ``None`` (the
        default) waits forever — hung-worker detection is opt-in because a
        correct deadline is workload-dependent.  Both pools treat it as
        "some unit of work must complete within this window" and reset it
        on every completion, so it bounds *stall*, not total runtime.
    backoff_base, backoff_factor, backoff_max:
        Exponential backoff between retries: attempt ``n`` sleeps
        ``min(backoff_base * backoff_factor**(n-1), backoff_max)`` seconds.
        The default climbs 0.05 s → 0.1 s → 0.2 s …, enough to let a
        transiently overloaded host drain without turning tests sluggish.
    """

    max_retries: int = 2
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive when given")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1.0")

    def backoff_delay(self, attempt: int) -> float:
        """Return the sleep before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        return min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )

    def sleep_before_retry(self, attempt: int) -> None:
        """Sleep the backoff delay of retry ``attempt`` (1-based)."""
        delay = self.backoff_delay(attempt)
        if delay > 0:
            time.sleep(delay)


def is_picklable(value: object) -> bool:
    """Return whether ``value`` pickles, i.e. can travel to a pool worker.

    Both pools probe their first payload with this before they spawn, and
    run in process when it fails.
    """
    try:
        pickle.dumps(value)
        return True
    except Exception:
        return False


def kill_executor(executor) -> None:
    """Tear down a process-pool executor that may hold hung workers.

    ``shutdown(wait=False)`` alone leaves a worker stuck in an injected (or
    organic) hang alive indefinitely; terminating the worker processes
    first makes teardown prompt.  On return the pool's management thread
    has reaped the terminated workers (waiting at most
    ``_REAP_TIMEOUT_S``), so their exit codes are set.  Without that wait
    the management thread and a caller's own ``Process.join`` race to
    ``waitpid`` the same child, and the loser reports a dead worker as
    alive.  Best-effort by design: the private ``_processes`` map and
    management thread are CPython's, so their absence simply degrades to
    the plain shutdown.
    """
    processes = getattr(executor, "_processes", None)
    # shutdown() drops the executor's reference to its management thread.
    manager = getattr(executor, "_executor_manager_thread", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead process races
                pass
    executor.shutdown(wait=False, cancel_futures=True)
    if manager is not None and manager is not threading.current_thread():
        # The management thread joins every worker once it sees the pool
        # break or shut down, then exits.
        manager.join(_REAP_TIMEOUT_S)
