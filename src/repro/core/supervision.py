"""Supervised worker-pool execution: timeouts, retries, backoff, teardown.

:func:`supervised_map` is the one supervised process pool.  The trial pool
in :mod:`repro.experiments.runner` and the campaign job pool in
:mod:`repro.campaign.runner` are both calls to it.  A worker can *die*
(OOM kill, SIGKILL — surfaces as ``BrokenProcessPool``), *hang* (surfaces
as a future that never completes), or *raise*.  The contract:

1. every gather goes through a deadline so a hung worker becomes a
   detected failure instead of a stuck run;
2. a detected failure is retried from the last consistent snapshot (a
   trial's checkpoint boundary, or the start of the unit of work); a
   death or hang also tears the pool down and rebuilds it after an
   exponential backoff;
3. when the retry budget is exhausted the work degrades to the
   bit-identical in-process path with a :class:`RuntimeWarning`, never a
   crashed run.

:class:`SupervisorPolicy` carries the knobs.
"""

from __future__ import annotations

import pickle
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, TypeVar

__all__ = [
    "SupervisorPolicy",
    "is_picklable",
    "kill_executor",
    "supervised_map",
]

#: Upper bound on how long :func:`kill_executor` waits for terminated
#: workers to be reaped (a SIGTERM'd worker exits in milliseconds).
_REAP_TIMEOUT_S = 10.0

K = TypeVar("K")
R = TypeVar("R")


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
        correct deadline is workload-dependent.  :func:`supervised_map`
        treats it as "some unit of work must complete within this window"
        and resets it on every completion, so it bounds *stall*, not total
        runtime.
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

    :func:`supervised_map` probes its first payload with this before it
    spawns, and its caller runs in process when it fails.
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


def supervised_map(
    worker: Callable[[Any], R],
    keys: Iterable[K],
    payload: Callable[[K, int], Any],
    fallback: Callable[[K], R],
    *,
    workers: int,
    policy: SupervisorPolicy | None,
    pool: str,
    label: Callable[[K], str],
) -> Dict[K, R] | None:
    """Run ``worker`` on every key's payload in a supervised process pool.

    Parameters
    ----------
    worker:
        The module-level function a pool worker runs on one payload.
    keys:
        The units of work (trial indices, job positions).
    payload:
        ``payload(key, failures)`` builds the argument a worker gets for
        ``key`` after ``failures`` failed attempts, so a retry can resume
        from what the failed attempt left behind.
    fallback:
        ``fallback(key)`` runs ``key`` in process once it has exhausted the
        retry budget; it must compute what the worker would.
    workers:
        The most worker processes to start.
    policy:
        The retry, timeout and backoff budget (``None`` takes the
        defaults).
    pool, label:
        The pool's name and ``label(key)``, one key's name, in warnings.

    Returns ``None``, before any process starts, when fewer than two keys
    or workers leave nothing to spread, or when the first payload does not
    pickle: the caller then runs the keys in process.  Otherwise returns
    every key's result, in completion order.  A raise inside a worker
    warns and resubmits that key.  A worker death, or ``policy.timeout``
    seconds without a completion, warns, kills the pool and reruns the
    lost keys on a new one after a backoff.  Each counts as a failure of
    every key it hit; a key past ``policy.max_retries`` failures runs
    ``fallback`` instead, with a warning.  An exception leaving this
    function (a fallback's own error, an interrupt) kills the pool first.
    """
    keys = list(keys)
    if min(len(keys), workers) < 2 or not is_picklable(payload(keys[0], 0)):
        return None
    policy = policy or SupervisorPolicy()
    failures = dict.fromkeys(keys, 0)
    results: Dict[K, R] = {}
    executor: ProcessPoolExecutor | None = None
    rebuilds = 0
    try:
        while True:
            for key in keys:
                if key not in results and failures[key] > policy.max_retries:
                    warnings.warn(
                        f"{label(key)} exhausted its retry budget "
                        f"({policy.max_retries} retries) in the {pool}; "
                        "running it in process",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    results[key] = fallback(key)
            waiting = [key for key in keys if key not in results]
            if not waiting:
                break
            broken = None
            try:
                if executor is None:
                    executor = ProcessPoolExecutor(
                        max_workers=min(workers, len(waiting))
                    )
                futures = {
                    executor.submit(worker, payload(key, failures[key])): key
                    for key in waiting
                }
            except BrokenProcessPool as error:
                broken, futures = f"submitting to it failed: {error!r}", {}
            outstanding = set(futures)
            while outstanding and broken is None:
                done, outstanding = wait(
                    outstanding, timeout=policy.timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    broken = (
                        f"no task completed within the {policy.timeout:g} s "
                        "supervision timeout"
                    )
                for future in done:
                    key = futures[future]
                    try:
                        results[key] = future.result()
                    except BrokenProcessPool as error:
                        broken = f"a worker process died: {error!r}"
                    except Exception as error:
                        failures[key] += 1
                        warnings.warn(
                            f"{label(key)} raised {error!r}; retrying it",
                            RuntimeWarning,
                            stacklevel=3,
                        )
            lost = [key for key in waiting if key not in results]
            if broken is not None and lost:
                rebuilds += 1
                for key in lost:
                    failures[key] += 1
                kill_executor(executor)
                executor = None
                warnings.warn(
                    f"{pool} failure ({broken}); rebuilding the pool and "
                    f"re-running {len(lost)} lost task(s) (pool failure "
                    f"{rebuilds})",
                    RuntimeWarning,
                    stacklevel=3,
                )
                policy.sleep_before_retry(rebuilds)
    except BaseException:
        # Workers may be hung, or still running keys nobody will read.
        if executor is not None:
            kill_executor(executor)
        raise
    if executor is not None:
        # Every worker is idle, so waiting is instant and lets the pool's
        # management thread close its wakeup pipe before the interpreter's
        # atexit hook races it.
        executor.shutdown(wait=True, cancel_futures=True)
    return results
