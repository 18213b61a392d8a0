"""The run environment the benchmark pins, and the record of it.

Numeric libraries get one thread each, so the simulator's host time does
not depend on how many cores a BLAS pool grabs. The record (``nproc``,
load average at start and end, library versions) is printed and saved
with every result. This module imports no numpy, so the thread
variables can be set before numpy loads.
"""
from __future__ import annotations

import os
import platform
from importlib import metadata

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_average() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def describe() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "pyspark": version("pyspark"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
