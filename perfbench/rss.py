"""Peak memory of a process and its pool workers, sampled from /proc.

The measure is the proportional set size (PSS) summed over the process and
every process below it: pages shared between a parent and its forked
workers are split among them instead of counted once per process, so the
sum is the memory the run actually holds.  The kernel keeps no high-water
mark of PSS, so this helper samples it every ``INTERVAL_S`` seconds.  It
runs as its own process, never taking the measured interpreter's lock.

    python3 rss.py <root pid>

Commands on stdin, one per line:

``start``  reset the peak and start sampling;
``stop``   stop sampling and answer the peak (bytes) on stdout;
``quit``   exit (end of input does the same).

Only pids above the root's are scanned for workers: pool workers start
after the process that owns them.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
from pathlib import Path

INTERVAL_S = 0.02


def _ppid(pid: int):
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    return int(data[data.rindex(b")") + 2 :].split()[1])


def _pss(pid: int) -> int:
    """Return one process's PSS in bytes (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
            for line in handle:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def tree_pss(root: int, exclude: int) -> int:
    """Return the summed PSS of ``root`` and its descendants, in bytes."""
    parents = {}
    for name in os.listdir("/proc"):
        if name.isdigit() and int(name) > root and int(name) != exclude:
            ppid = _ppid(int(name))
            if ppid is not None:
                parents[int(name)] = ppid
    members = {root}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parents.items():
            if ppid in members and pid not in members:
                members.add(pid)
                grew = True
    return sum(_pss(pid) for pid in members)


def serve(root: int) -> None:
    me = os.getpid()
    sampling = False
    peak = 0
    stdin = sys.stdin.buffer
    while True:
        ready, _, _ = select.select([stdin], [], [], INTERVAL_S if sampling else None)
        if ready:
            line = stdin.readline().strip()
            if line == b"start":
                sampling, peak = True, 0
            elif line == b"stop":
                peak = max(peak, tree_pss(root, me))
                sampling = False
                sys.stdout.write(f"{peak}\n")
                sys.stdout.flush()
            else:  # "quit" or end of input
                return
        if sampling:
            peak = max(peak, tree_pss(root, me))


class PeakRss:
    """Client side: starts the helper and brackets runs with it."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(os.getpid())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def start(self) -> None:
        self._send(b"start")

    def stop(self) -> int:
        """Return the peak summed PSS since :meth:`start`, in bytes."""
        self._send(b"stop")
        return int(self._process.stdout.readline())

    def _send(self, command: bytes) -> None:
        self._process.stdin.write(command + b"\n")
        self._process.stdin.flush()

    def close(self) -> None:
        """Stop the helper and wait for it to exit."""
        try:
            self._send(b"quit")
        except (BrokenPipeError, ValueError):
            pass
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()


if __name__ == "__main__":
    serve(int(sys.argv[1]))
