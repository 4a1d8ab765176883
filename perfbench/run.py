"""Benchmark of carnot: one workload per process, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload beta-mc --seed 1 --seconds 35 --trace 0

The workloads and metrics are declared in BENCHMARK.json; what each one
stresses, and which end-to-end metric each per-layer metric should move,
is in perfbench/NOTES.md.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

This launcher caps the BLAS / OpenMP thread pools at the number of usable
cores before numpy is imported, so the figures measure carnot rather than
an oversubscribed scheduler.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "NUMBA_NUM_THREADS", "CARNOT_THREADS")


def cap_threads(nproc):
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, ""))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))


if __name__ == "__main__":
    cap_threads(len(os.sched_getaffinity(0)))
    from harness import main  # imports numpy, so only after the caps

    sys.exit(main(sys.argv[1:]))
