"""The benchmark wraps hdlrt functions by name (``perfbench/tracing.py``,
``WRAPPED``) and checks Monte Carlo outputs against its own recompute of
z (``perfbench/recompute.py``, ``oracle_z``); a refactor that breaks
either must fail here, not in the benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hdlrt.linalg import BlockPartition
from hdlrt.montecarlo import SimulationPlan, run_level, run_power
from hdlrt.sampling import DistributionSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
Z_TOL = 1e-8  # the benchmark's z agreement, Z_TOL in perfbench/workloads.py


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr, span", _load("tracing").WRAPPED)
def test_traced_name_resolves(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr))


def _plan(cell) -> SimulationPlan:
    kw = dict(test=cell.test, p=cell.p, delta=cell.delta,
              dist=DistributionSpec.parse(cell.dist), reps=cell.reps, seed=cell.seed)
    if cell.test == "eqcov":
        kw["n_sizes"] = cell.sizes
    else:
        kw["n"] = cell.n
    if cell.test == "block":
        kw["partition"] = BlockPartition(cell.sizes)
    return SimulationPlan(**kw)


@pytest.mark.parametrize("cell_kw", [
    dict(test="block", p=6, n=30, sizes=(2, 2, 2), dist="normal"),
    dict(test="correlation", p=5, n=25, delta=0.2, dist="normal"),
    dict(test="eqcov", p=4, sizes=(15, 20), dist="t15"),
], ids=["block_normal", "correlation_delta", "eqcov_t15"])
def test_oracle_recompute_matches_library(cell_kw):
    recompute = _load("recompute")
    cell = recompute.Cell(seed=17, reps=12, **cell_kw)
    run = run_power if cell.delta > 0.0 else run_level
    _, oracle = recompute.oracle_z(cell, 0, cell.reps)
    np.testing.assert_allclose(run(_plan(cell)).z_samples, oracle, rtol=0, atol=Z_TOL)


SMALL_REPS = 6


@pytest.mark.parametrize("name", sorted(_load("layers").STATISTIC))
def test_traced_simulation_has_what_span_metrics_divides_by(name, tmp_path, monkeypatch):
    # layers.span_metrics divides by the run spans' time and takes
    # percentiles of the replication times; a call structure that leaves
    # either empty breaks every traced benchmark run.
    layers, tracing = _load("layers"), _load("tracing")
    monkeypatch.setitem(sys.modules, "recompute", _load("recompute"))
    workload = _load("workloads").WORKLOADS[name]
    prep = workload.prepare(17, tmp_path, threads="1")
    argv = list(prep.argv)
    argv[argv.index("--reps") + 1] = str(SMALL_REPS)
    tracer = tracing.Tracer()
    with tracer.installed():
        code, _, _ = layers.replay(argv)
    assert code == 0
    assert not tracer.errors
    assert tracer.self_time(layers.RUN_SPANS)[0] > 0
    assert tracer.replication_times(layers.STATISTIC[name])
    if name == layers.POOL_WORKLOAD:  # one cell per delta
        assert tracer.count("montecarlo.run_power") == len(prep.cells)
    metrics = layers.span_metrics(name, tracer, 17, argv)
    # a wrapped name the engine no longer calls leaves its series empty, and
    # np.isfinite([]).all() holds; only block_constants is pooled across
    # workloads and called in some of them alone
    empty = [metric for metric, values in metrics.items()
             if not len(values) and metric != "blocktest.block_constants.us"]
    assert not empty
    assert all(np.isfinite(v).all() for v in metrics.values())
