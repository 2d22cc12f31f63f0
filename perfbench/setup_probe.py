"""Time one set-up: import ``repro`` and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>

Prints the seconds from the start of this script (the interpreter's own
start-up excluded) until the inputs are built.  ``run.py`` runs it several
times in fresh interpreters, because an import is paid once per process.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.build(name, seed, work)
    elapsed = time.perf_counter() - _START
    workload.close()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
