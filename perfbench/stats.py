"""Summary statistics and machine facts for benchmark results."""

from __future__ import annotations

import os
import platform
import resource
import statistics


def median_with_count(values) -> tuple[float, int]:
    """(median, number of samples); raises on an empty sample."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values), len(values)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict[str, object]:
    """Core count, BLAS build and thread environment, interpreter versions.

    The thread variables are recorded as inherited and never set here:
    unset means OpenBLAS starts one thread per core.
    """
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass  # numpy builds older than 1.25 print their config instead
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
