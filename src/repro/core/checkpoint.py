"""Crash-consistent checkpointing of closed-loop runs.

A checkpoint is a self-verifying file: an 8-byte magic, a format version, the
payload length, a SHA-256 digest of the payload, then the pickled payload
itself.  :func:`write_checkpoint` lands it crash-consistently — write to a
temp file in the destination directory, flush, ``fsync``, then an atomic
``os.replace`` (plus a directory fsync so the rename itself is durable) — so
readers only ever see either the previous complete checkpoint or the new
complete checkpoint, never a torn one.  A write that *does* tear (power
loss mid-rename on a non-atomic filesystem, or the chaos suite's
``torn_write`` fault) fails the digest check and is skipped by
:func:`load_latest_checkpoint`, which falls back to the next-newest intact
file — that is why :class:`CheckpointSpec` keeps the last ``keep`` files
instead of one.

Because the engine's random streams are stateless per ``(trial, shard,
step)`` (:mod:`repro.utils.rng`), a run restored from a step-boundary
snapshot and continued replays the *exact* byte-for-byte trajectory of the
uninterrupted run; the fault-tolerance suite pins this against the engine
goldens.

A payload is whatever :meth:`repro.core.loop.ClosedLoop.export_snapshot`
produced, plus a ``fingerprint`` identifying the configuration that wrote
it: :func:`load_latest_checkpoint` refuses (with an actionable error) to
resume a run whose fingerprint differs — resuming step 7 of somebody
else's simulation would silently produce garbage.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

from repro.testing.faults import fire as _fire_fault

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointSpec",
    "checkpoint_path",
    "config_fingerprint",
    "deserialize_payload",
    "list_checkpoints",
    "load_latest_checkpoint",
    "prune_checkpoints",
    "read_checkpoint",
    "serialize_payload",
    "write_checkpoint",
]

#: Bump on any incompatible payload-layout change; readers refuse every
#: other version with a clear error instead of unpickling garbage.
#: Version 2: ``AggregateHistory`` absorbed the retired
#: ``StreamingAggregator`` and ``SimulationHistory`` dropped its running
#: rows, so version-1 snapshots and results pickle classes and layouts
#: this build no longer has.
CHECKPOINT_VERSION = 2

_MAGIC = b"RPROCKPT"
#: magic(8) | version(u16) | payload length(u64) | sha256(32), big-endian.
_HEADER = struct.Struct(">8sHQ32s")

_STEP_FILE = re.compile(r"\.step(\d{8})\.ckpt$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be read, verified, or matched to its run."""


def serialize_payload(payload: Mapping[str, object]) -> bytes:
    """Return the self-verifying on-disk byte representation of ``payload``."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(
        _MAGIC, CHECKPOINT_VERSION, len(blob), hashlib.sha256(blob).digest()
    )
    return header + blob


def deserialize_payload(data: bytes) -> Dict[str, object]:
    """Decode and verify checkpoint bytes; raise :class:`CheckpointError`."""
    if len(data) < _HEADER.size:
        raise CheckpointError(
            f"truncated checkpoint: {len(data)} bytes is shorter than the header"
        )
    magic, version, length, digest = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    if version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{version} is newer than this build's "
            f"v{CHECKPOINT_VERSION}; upgrade before resuming"
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{version} is older than this build's "
            f"v{CHECKPOINT_VERSION}, which does not read it"
        )
    blob = data[_HEADER.size :]
    if len(blob) != length:
        raise CheckpointError(
            f"torn checkpoint: payload holds {len(blob)} of {length} bytes"
        )
    if hashlib.sha256(blob).digest() != digest:
        raise CheckpointError("corrupt checkpoint: payload digest mismatch")
    return pickle.loads(blob)


def write_checkpoint(path: str | os.PathLike, payload: Mapping[str, object]) -> Path:
    """Write ``payload`` to ``path`` crash-consistently and return the path.

    Temp file in the destination directory + flush + fsync + atomic
    ``os.replace`` + directory fsync: a crash at any instant leaves either
    no file or a complete, digest-verified file at ``path``.
    """
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    data = serialize_payload(payload)
    temp = destination.with_name(f"{destination.name}.tmp.{os.getpid()}")
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, destination)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    _fsync_directory(destination.parent)
    # Chaos-suite hook: a torn_write fault truncates the landed file here,
    # simulating the non-atomic-filesystem tear the digest check exists for.
    _fire_fault("checkpoint_write", path=str(destination))
    return destination


def _fsync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. network filesystems
        pass
    finally:
        os.close(fd)


def read_checkpoint(path: str | os.PathLike) -> Dict[str, object]:
    """Read and verify one checkpoint file."""
    try:
        data = Path(path).read_bytes()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    return deserialize_payload(data)


def checkpoint_path(directory: str | os.PathLike, stem: str, step: int) -> Path:
    """Return the canonical file path of ``stem``'s step-``step`` snapshot."""
    return Path(directory) / f"{stem}.step{int(step):08d}.ckpt"


def list_checkpoints(
    directory: str | os.PathLike, stem: str
) -> List[Tuple[int, Path]]:
    """Return ``(step, path)`` of ``stem``'s snapshots, newest first."""
    base = Path(directory)
    if not base.is_dir():
        return []
    found: List[Tuple[int, Path]] = []
    prefix = f"{stem}.step"
    for entry in base.iterdir():
        if not entry.name.startswith(prefix):
            continue
        match = _STEP_FILE.search(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    found.sort(key=lambda item: item[0], reverse=True)
    return found


def load_latest_checkpoint(
    directory: str | os.PathLike,
    stem: str,
    expected_fingerprint: str | None = None,
) -> Dict[str, object] | None:
    """Return the newest intact snapshot payload of ``stem``, or ``None``.

    Corrupt or torn files are skipped with a :class:`RuntimeWarning`
    (recovery falls back to the next-newest intact checkpoint — this is
    the torn-write story end to end).  A fingerprint mismatch raises
    :class:`CheckpointError` instead: the files exist and are intact, they
    just belong to a different configuration, and silently restarting from
    scratch would mask the operator error.
    """
    for step, path in list_checkpoints(directory, stem):
        try:
            payload = read_checkpoint(path)
        except CheckpointError as error:
            warnings.warn(
                f"skipping unreadable checkpoint {path.name}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        if expected_fingerprint is not None:
            found = payload.get("fingerprint")
            if found != expected_fingerprint:
                raise CheckpointError(
                    f"checkpoint {path.name} was written by a different "
                    f"configuration (fingerprint {found!r} != expected "
                    f"{expected_fingerprint!r}); point --checkpoint-dir at a "
                    "fresh directory, or rerun with the original configuration"
                )
        return payload
    return None


def prune_checkpoints(
    directory: str | os.PathLike, stem: str, keep: int = 2
) -> None:
    """Delete all but the ``keep`` newest snapshots of ``stem``.

    ``keep >= 2`` is the torn-write safety margin: if the newest file is
    later found damaged, recovery falls back one boundary instead of to
    scratch.  ``keep=0`` removes every snapshot (used once a trial's final
    result has been persisted).  Deletion failures are ignored — pruning
    is an economy, never a correctness requirement.
    """
    for _, path in list_checkpoints(directory, stem)[max(0, keep):]:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - concurrent prune / permissions
            pass


def config_fingerprint(*parts: object) -> str:
    """Return a stable hex fingerprint of the run-defining parameters.

    Built from ``repr`` of each part, so any picklable parameter mix
    works; the caller chooses which knobs define trajectory identity
    (seeds, population shape, model knobs — not execution layout, which is
    bit-identical by construction).
    """
    payload = "\x1f".join(repr(part) for part in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class CheckpointSpec:
    """Where, how often, and under what identity a run checkpoints.

    ``due(steps_recorded)`` is true at every ``every``-th step boundary;
    :meth:`write` stamps the payload with the spec's fingerprint, lands it
    crash-consistently under the step-numbered name, and prunes old
    snapshots down to ``keep``.
    """

    directory: str
    stem: str
    every: int
    fingerprint: str | None = None
    keep: int = 2

    def __post_init__(self) -> None:
        if self.every <= 0:
            raise ValueError("checkpoint_every must be positive on a CheckpointSpec")
        if self.keep < 1:
            raise ValueError("keep must be at least 1")
        if not self.stem:
            raise ValueError("stem must be non-empty")

    def due(self, steps_recorded: int) -> bool:
        """Return whether a snapshot is due after ``steps_recorded`` steps."""
        return steps_recorded > 0 and steps_recorded % self.every == 0

    def write(self, payload: Mapping[str, object]) -> Path:
        """Persist one snapshot payload (must carry a ``"step"`` entry)."""
        stamped = dict(payload)
        stamped["fingerprint"] = self.fingerprint
        path = write_checkpoint(
            checkpoint_path(self.directory, self.stem, int(stamped["step"])), stamped
        )
        prune_checkpoints(self.directory, self.stem, keep=self.keep)
        return path

    def load_latest(self) -> Dict[str, object] | None:
        """Return the newest intact snapshot matching this spec, or ``None``."""
        return load_latest_checkpoint(
            self.directory, self.stem, expected_fingerprint=self.fingerprint
        )
