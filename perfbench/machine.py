"""Facts about the machine a result was measured on."""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "HDLRT_THREADS")


DGEMM_SIZE = 1500
DGEMM_REPEATS = 3


def dgemm_gflops() -> float:
    """Median rate of a square float64 matrix product, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal((DGEMM_SIZE, DGEMM_SIZE)) for _ in range(2))
    a @ b  # let BLAS start its threads
    rates = []
    for _ in range(DGEMM_REPEATS):
        start = time.perf_counter()
        a @ b
        rates.append(2.0 * DGEMM_SIZE ** 3 / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints
        return {}
    deps = config.get("Build Dependencies", {})
    return {key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")
                  if k in deps[key]}
            for key in ("blas", "lapack") if key in deps}


def machine_facts(gflops: float) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "machine.dgemm_gflops": gflops,
    }
