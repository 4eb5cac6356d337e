"""CPU count and BLAS thread variables, with no numpy import.

run.py pins the BLAS pools to one thread before anything loads numpy,
so the parent and every child run single-threaded BLAS. The program's
matrices are 9x9, far below the size at which OpenBLAS splits work
across threads, so a larger pool does no work; on a 2-CPU machine its
idle worker still spun at start-up, took about 10% more wall time per
call and doubled the call-to-call spread.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads() -> None:
    """Set every BLAS and OpenMP pool size to one thread."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_threads() -> dict:
    """The BLAS thread variables in effect."""
    return {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ}
