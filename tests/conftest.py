"""Shared fixtures, the suite's worker count, and the loader of the study script.

The reference-regime z samples (the hist cells of ``scripts/study.py``:
n=100, p=60, thirty blocks of two, 10000 replications per distribution)
are expensive, so they are computed once per session and shared between
the distribution-shape tests and the acceptance gate.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
from pathlib import Path

# hdlrt.cli first: it sets the CLI's one-thread BLAS default before numpy
# loads.  The tests that simulate run on THREADS worker processes, and a
# BLAS thread pool in each would only oversubscribe the cores.
import hdlrt.cli
import numpy as np
import pytest

from hdlrt import DistributionSpec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Worker count of the acceptance-scale simulations.  Results never depend
# on it (criterion 10).
THREADS = 2


def load_script(name):
    """Import ``scripts/<name>.py`` as a module; its ``main`` does not run."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STUDY = load_script("study")
DISTRIBUTIONS = {label: DistributionSpec.parse(label) for label in STUDY.DISTS}


def near_overflow(top, columns=6, n=40, p=6, seed=0):
    """Standard normal data whose first ``columns`` columns hold entries of
    random sign, each within 2% below ``top`` in magnitude and one at
    ``top``, so that n * top**2 is their scatter's scale."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, p))
    sign = np.where(data[:, :columns] < 0.0, -top, top)
    data[:, :columns] = sign * (1.0 - 0.02 * rng.random((n, columns)))
    data[0, 0] = top
    return data


@pytest.fixture(scope="session")
def reference_null_run():
    """dist label -> SimulationResult of the study's hist cell for it."""
    cells = {plan.dist.label: plan for plan in STUDY.CELLS["hist"]}
    cache: dict[str, object] = {}

    def get(label: str):
        if label not in cache:
            cache[label] = STUDY.run_cell("hist", cells[label], THREADS)
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
