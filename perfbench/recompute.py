"""Reference z values for Monte Carlo outputs, recomputed through the LU
route of ``hdlrt.oracle`` on the same ``(seed, r)``-keyed draws.

The functions here run in worker processes, so they take plain arguments
and import hdlrt lazily (the parent puts ``src`` on ``sys.path``).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

CHECK_WORKERS = 2


@dataclass(frozen=True)
class Cell:
    """One simulated cell: test kind, shape, entry law, alternative, seed and
    replication count."""

    test: str                      # "block", "correlation" or "eqcov"
    p: int
    dist: str                      # CLI distribution name, e.g. "normal", "t15"
    seed: int
    reps: int
    n: int = 0                     # block / correlation
    sizes: tuple[int, ...] = ()    # block partition, or eqcov group sizes
    delta: float = 0.0


def oracle_z(cell: Cell, start: int, stop: int) -> tuple[int, np.ndarray]:
    """(start, z values of replications start..stop-1)."""
    from hdlrt.blocktest import block_constants, correlation_constants
    from hdlrt.eqcov import eqcov_constants
    from hdlrt.linalg import BlockPartition, compound_symmetry_sqrt
    from hdlrt.oracle import lu_log_det, naive_log_vn
    from hdlrt.sampling import DistributionSpec, apply_root, draw_entries, entry_generator

    dist = DistributionSpec.parse(cell.dist)
    if cell.test == "eqcov":
        const = eqcov_constants(cell.sizes, cell.p)
        total = sum(cell.sizes)
        mu, sigma = const.mu_n, total * const.sigma_n
    else:
        part = (BlockPartition(cell.sizes) if cell.test == "block"
                else BlockPartition.unit(cell.p))
        const = (block_constants(cell.n, part) if cell.test == "block"
                 else correlation_constants(cell.n, cell.p))
        mu, sigma = const.mu_n, const.sigma_n
        root = compound_symmetry_sqrt(cell.delta, cell.p) if cell.delta > 0.0 else None
    z = np.empty(stop - start)
    for rep in range(start, stop):
        rng = entry_generator(cell.seed, rep)
        if cell.test == "eqcov":
            scatters = [g.T @ g for g in
                        (draw_entries(rng, nj, cell.p, dist) for nj in cell.sizes)]
            stat = sum(nj * lu_log_det(a / nj)[0] for nj, a in zip(cell.sizes, scatters))
            stat -= total * lu_log_det(sum(scatters) / total)[0]
        else:
            x = draw_entries(rng, cell.n, cell.p, dist)
            stat = naive_log_vn(x if root is None else apply_root(x, root), part)
        z[rep - start] = (stat - mu) / sigma
    return start, z


def check_pool() -> ProcessPoolExecutor:
    """Workers for the recompute, forked as hdlrt's own pool forks them.

    Fork, not spawn: a spawn pool starts multiprocessing's resource-tracker
    process, which nothing joins and which outlives the benchmark by a
    moment.  Forked workers are the pool's only processes, and leaving the
    ``with`` block joins them."""
    return ProcessPoolExecutor(max_workers=min(CHECK_WORKERS, os.cpu_count() or 1),
                               mp_context=multiprocessing.get_context("fork"))


def rejection_range(z: np.ndarray, alpha: float, tol: float) -> tuple[int, int]:
    """Fewest and most rejections (Phi(z) <= alpha) consistent with every z
    being known only to within ``tol``."""
    from hdlrt.sampling import normal_cdf

    surely = sum(1 for v in z if normal_cdf(float(v) + tol) <= alpha)
    maybe = sum(1 for v in z if normal_cdf(float(v) - tol) <= alpha)
    return surely, maybe
