"""One cold set-up of a workload in a fresh process.

Prints the seconds from before the first import of the program to the
moment the first operation could start, then tears the workload down
(untimed).  ``run.py`` runs several of these and reports the median as
``setup_s``.

    python3 hostbench/probe_setup.py <workload> <seed> <workdir>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    bench_dir = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench_dir.parent / "src"), str(bench_dir)]
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed, workdir)
    try:
        workload.setup()
        elapsed = time.perf_counter() - START
    finally:
        workload.close()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
