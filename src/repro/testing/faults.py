"""Deterministic fault injection for the fault-tolerance chaos suite.

The execution layer (serial loop, trial worker pool, campaign job pool,
checkpoint writer) calls :func:`fire` at well-known *sites*.  When no plan
is installed the hook is a single module-global check — production runs pay
nothing.  A test installs a plan of :class:`FaultSpec` entries, each naming
a site plus optional ``(trial, shard, step)`` coordinates, and the matching
call then *deterministically* injects one of four failure kinds:

``raise``
    Raise :class:`FaultInjected` (an ordinary worker exception).
``kill``
    ``os._exit`` the current process — from a pool worker this is
    indistinguishable from an OOM kill or SIGKILL and breaks the pool.
``hang``
    Sleep for ``delay`` seconds, simulating a hung worker so supervision
    timeouts can be exercised.
``torn_write``
    Truncate the file named by the firing site (the checkpoint writer
    passes the freshly renamed path), simulating a torn write / partial
    flush that the checkpoint reader must detect and skip.

Plans travel to pool workers through the ``REPRO_FAULTS`` environment
variable (a JSON document; worker processes inherit the parent's
environment), so a single test can arrange for e.g. *the worker running
trial 1 to die* without cooperating code in the worker.

``once`` semantics (the default) arm a fault for exactly one firing *across
processes*: before executing, the harness claims a marker file in the
plan's ``state_dir`` with an atomic exclusive create — so the retried or
resumed worker that replays the same (site, trial, shard, step) coordinates
passes through cleanly, which is precisely the recovery the chaos suite
needs to observe.  Plans installed in-process without a ``state_dir`` fall
back to a per-process claim set (sufficient for single-process tests).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "FAULTS_ENV",
    "KILL_EXIT_CODE",
    "FaultInjected",
    "FaultSpec",
    "clear_plan",
    "fire",
    "install_plan",
    "plan_environment",
]

#: Environment variable carrying a JSON fault plan into worker processes.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status used by ``kill`` faults (distinctive, so a test harness can
#: tell an injected kill from an organic crash).
KILL_EXIT_CODE = 86

_KINDS = ("raise", "kill", "hang", "torn_write")


class FaultInjected(RuntimeError):
    """The exception raised by a ``raise``-kind injected fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where it fires, what it does.

    ``trial``/``shard``/``step`` are matched against the coordinates the
    firing site supplies; ``None`` is a wildcard.  A site that does not
    supply a coordinate (e.g. the serial loop knows no trial index) only
    matches specs leaving that coordinate ``None``.
    """

    site: str
    kind: str
    trial: int | None = None
    shard: int | None = None
    step: int | None = None
    delay: float = 3600.0
    once: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    def matches(
        self,
        site: str,
        trial: int | None,
        shard: int | None,
        step: int | None,
    ) -> bool:
        if site != self.site:
            return False
        for want, have in ((self.trial, trial), (self.shard, shard), (self.step, step)):
            if want is not None and have != want:
                return False
        return True

    def identity(self) -> str:
        """Return a stable id naming this spec across processes."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _parse_plan(document: Mapping[str, object]) -> Tuple[List[FaultSpec], str | None]:
    specs = [
        entry if isinstance(entry, FaultSpec) else FaultSpec(**entry)
        for entry in document.get("faults", ())
    ]
    state_dir = document.get("state_dir")
    return specs, (str(state_dir) if state_dir else None)


def plan_environment(
    faults: Iterable[FaultSpec | Mapping[str, object]],
    state_dir: str | os.PathLike | None = None,
) -> Dict[str, str]:
    """Return the ``{REPRO_FAULTS: json}`` mapping encoding a plan.

    Tests set this on ``os.environ`` (or pass it to a subprocess) so pool
    workers — which inherit the environment — arm the same plan.  Give a
    ``state_dir`` whenever a killed-and-retried worker must see the fault
    exactly once.
    """
    entries = [
        asdict(spec) if isinstance(spec, FaultSpec) else dict(spec)
        for spec in faults
    ]
    document: Dict[str, object] = {"faults": entries}
    if state_dir is not None:
        document["state_dir"] = str(state_dir)
    return {FAULTS_ENV: json.dumps(document, sort_keys=True)}


# ----------------------------------------------------------------------
# Plan installation.  Two channels: an explicit in-process plan (wins when
# set) and the environment variable (picked up lazily, cached per value so
# repeated fire() calls don't re-parse JSON).
# ----------------------------------------------------------------------

_LOCAL_PLAN: Tuple[List[FaultSpec], str | None] | None = None
_ENV_CACHE: Tuple[str, Tuple[List[FaultSpec], str | None]] | None = None
_PROCESS_CLAIMS: set[str] = set()


def install_plan(
    faults: Iterable[FaultSpec | Mapping[str, object]],
    state_dir: str | os.PathLike | None = None,
) -> None:
    """Arm a fault plan in this process (overrides the environment)."""
    global _LOCAL_PLAN
    specs = [
        spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
        for spec in faults
    ]
    _LOCAL_PLAN = (specs, str(state_dir) if state_dir is not None else None)


def clear_plan() -> None:
    """Disarm the in-process plan and forget per-process once-claims."""
    global _LOCAL_PLAN, _ENV_CACHE
    _LOCAL_PLAN = None
    _ENV_CACHE = None
    _PROCESS_CLAIMS.clear()


def _active_plan() -> Tuple[List[FaultSpec], str | None] | None:
    global _ENV_CACHE
    if _LOCAL_PLAN is not None:
        return _LOCAL_PLAN
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return None
    if _ENV_CACHE is not None and _ENV_CACHE[0] == raw:
        return _ENV_CACHE[1]
    try:
        parsed = _parse_plan(json.loads(raw))
    except (ValueError, TypeError) as error:
        raise ValueError(f"malformed {FAULTS_ENV} fault plan: {error}") from error
    _ENV_CACHE = (raw, parsed)
    return parsed


def _claim(spec: FaultSpec, state_dir: str | None) -> bool:
    """Atomically claim a once-fault; return whether this firing owns it."""
    if state_dir is None:
        key = spec.identity()
        if key in _PROCESS_CLAIMS:
            return False
        _PROCESS_CLAIMS.add(key)
        return True
    os.makedirs(state_dir, exist_ok=True)
    marker = os.path.join(state_dir, f"fired-{spec.identity()}")
    try:
        # O_CREAT|O_EXCL: exactly one process wins, even when the winner is
        # about to os._exit without any cleanup.
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _execute(spec: FaultSpec, path: str | None) -> None:
    if spec.kind == "raise":
        raise FaultInjected(
            f"injected fault at site {spec.site!r} "
            f"(trial={spec.trial}, shard={spec.shard}, step={spec.step})"
        )
    if spec.kind == "kill":
        os._exit(KILL_EXIT_CODE)
    if spec.kind == "hang":
        time.sleep(spec.delay)
        return
    # torn_write: chop the just-written file so its integrity check fails.
    if path is None:
        raise ValueError("a torn_write fault fired at a site without a path")
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(1, size // 2))


def fire(
    site: str,
    *,
    trial: int | None = None,
    shard: int | None = None,
    step: int | None = None,
    path: str | None = None,
) -> None:
    """Fire any armed fault matching ``site`` and the given coordinates.

    The known sites are ``"loop_step"`` (serial loop, per step),
    ``"trial_worker"`` (inside a trial-pool worker, per trial),
    ``"campaign_job"`` (before a campaign job runs — pooled worker or
    in-process; ``trial`` carries the job index), and
    ``"checkpoint_write"`` (after a checkpoint file lands on disk; supplies
    ``path`` for torn writes).
    """
    plan = _active_plan()
    if plan is None:
        return
    specs, state_dir = plan
    for spec in specs:
        if not spec.matches(site, trial, shard, step):
            continue
        if spec.once and not _claim(spec, state_dir):
            continue
        _execute(spec, path)
