"""Shared fixtures.

The reference-regime z samples (n=100, p=60, thirty blocks of two, 10000
replications per distribution) are expensive, so they are computed once
per session and shared between the distribution-shape tests and the
acceptance gate.
"""

from __future__ import annotations

import multiprocessing
import os

# hdlrt.cli first: it sets the CLI's one-thread BLAS default before numpy
# loads.  The tests that simulate run on THREADS worker processes, and a
# BLAS thread pool in each would only oversubscribe the cores.
import hdlrt.cli  # noqa: F401
import numpy as np
import pytest

from hdlrt import BlockPartition, DistributionSpec, SimulationPlan, run_histogram

# Worker count of the acceptance-scale simulations: 2, or HDLRT_THREADS.
# Results never depend on it (criterion 10).
THREADS = int(os.environ.get("HDLRT_THREADS") or 2)

REFERENCE_N = 100
REFERENCE_P = 60
REFERENCE_PARTITION = BlockPartition.uniform(30, 2)
REFERENCE_REPS = 10_000
REFERENCE_SEED = 20_240_802

DISTRIBUTIONS = {
    "normal": DistributionSpec.normal(),
    "t15": DistributionSpec.standardized_t(15),
    "exp1": DistributionSpec.centered_exponential(),
}


@pytest.fixture(scope="session")
def reference_null_run():
    """dist label -> SimulationResult for the reference null regime."""
    cache: dict[str, object] = {}

    def get(label: str):
        if label not in cache:
            plan = SimulationPlan(
                test="block",
                n=REFERENCE_N,
                p=REFERENCE_P,
                partition=REFERENCE_PARTITION,
                dist=DISTRIBUTIONS[label],
                reps=REFERENCE_REPS,
                alpha=0.05,
                seed=REFERENCE_SEED,
            )
            cache[label] = run_histogram(plan, threads=THREADS)
        return cache[label]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fail a test that leaves running a child process it did not find;
    comparing with the children from before the test keeps one leak from
    failing every later test."""
    before = set(multiprocessing.active_children())
    yield
    left = [proc.name for proc in multiprocessing.active_children() if proc not in before]
    if left:
        pytest.fail(f"child processes left running: {', '.join(left)}")
