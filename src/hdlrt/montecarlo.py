"""Monte Carlo engine: empirical level, power over a compound-symmetry
alternative, and null-distribution histograms for the three tests.

Reproducibility contract: replication r draws from the counter-based
stream (plan.seed, stream=r), and its z is standardized by the ``mu`` and
``sigma`` the plan computes when it is built, so results are a pure
function of the plan, independent of the number of worker processes.
Aggregates are assembled by replication index, so every field of a result
is the same on every rerun of the same plan.

Batches: block and correlation replications are evaluated ``_BATCH`` at a
time.  Each is drawn from its own stream into one preallocated stack
(``_BATCH``, n, p), and the stack goes through ``apply_root`` and the
statistic in one call each; the kernels give every slice of a stack the
bits it gets on its own, so batching changes no result.  eqcov
replications are evaluated one at a time.

Worker processes: a run on more than one worker splits its replications
into chunks on a ``ProcessPoolExecutor``.  ``run_level``, ``run_power`` and
``run_histogram`` each start their own pool and shut it down before they
return; ``run_power_curve`` keeps one pool in a thread-local slot from its
first pooled delta on, and shuts it down when the curve returns or raises.
The pool machinery (``concurrent.futures`` and ``multiprocessing``) loads
with the first pooled run, not with this module, so a single-worker run
never imports it.  The worker count is an integer, at least 1.
"""

from __future__ import annotations

import operator
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .blocktest import block_constants, correlation_constants, log_det_correlation, log_vn
from .eqcov import GroupedSample, eqcov_constants, log_lambda2
from .errors import InvalidDesign, InvalidPlan
from .linalg import BlockPartition, compound_symmetry_sqrt
from .sampling import DistributionSpec, apply_root, draw_entries, entry_generator, normal_cdf

#: Default power grid; configurable per run since the transition point
#: moves with (n, p) and the partition.
DEFAULT_DELTA_GRID = tuple(round(0.002 * k, 6) for k in range(11))

_TESTS = ("block", "correlation", "eqcov")

#: Range of the histogram's interior bins; z outside it lands in the two
#: overflow bins.
HISTOGRAM_RANGE = (-4.0, 4.0)

# Block and correlation replications per kernel call.  Two amortize the
# per-call overhead of the small LAPACK calls; larger stacks add memory.
_BATCH = 2


def scenario_partition(scenario: int, p: int) -> BlockPartition:
    """The two stock block layouts used in the simulation study.

    Scenario 1: three equal blocks of size p/3 (p divisible by 3).
    Scenario 2: q = p/2 blocks, q - 1 singletons plus one block of q + 1
    (p even, p >= 4); the sizes add up to 2q = p.
    """
    if scenario == 1:
        if p < 3 or p % 3 != 0:
            raise InvalidPlan(f"scenario 1 needs p divisible by 3, got p={p}")
        return BlockPartition.uniform(3, p // 3)
    if scenario == 2:
        if p < 4 or p % 2 != 0:
            raise InvalidPlan(f"scenario 2 needs even p >= 4, got p={p}")
        q = p // 2
        return BlockPartition((1,) * (q - 1) + (q + 1,))
    raise InvalidPlan(f"scenario must be 1 or 2, got {scenario}")


def _integer(name: str, value) -> int:
    try:  # numpy integers pass; a float is refused, not truncated
        return operator.index(value)
    except TypeError:
        raise InvalidPlan(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SimulationPlan:
    """Descriptor of one simulation experiment.

    ``test`` is "block", "correlation" or "eqcov".  Block plans need ``n``
    and a partition of at least two blocks (directly or through
    ``scenario``); correlation plans need ``n`` only; eqcov plans need
    ``n_sizes``, at least two groups each with n_j > p.  ``delta`` selects
    the compound-symmetry alternative (1-delta) I + delta * ones, with
    delta = 0 the null.  Sizes, ``p``, ``reps`` and ``seed`` are integers,
    the seed in [0, 2**64).  ``mu`` and ``sigma``, the read-only centering
    and scale of the statistic the engine stores (eqcov: mu_n and n
    sigma_n), are set when the plan is built; a plan that cannot run, one
    the constants reject included, raises ``InvalidPlan`` then.
    """

    test: str
    p: int
    n: int | None = None
    n_sizes: tuple[int, ...] | None = None
    partition: BlockPartition | None = None
    scenario: int | None = None
    delta: float = 0.0
    dist: DistributionSpec = DistributionSpec.normal()
    reps: int = 2000
    alpha: float = 0.05
    seed: int = 0
    mu: float = field(init=False, repr=False, compare=False)
    sigma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.test not in _TESTS:
            raise InvalidPlan(f"test must be one of {_TESTS}, got {self.test!r}")
        for name in ("p", "reps", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.reps < 1:
            raise InvalidPlan(f"reps must be positive, got {self.reps}")
        if not 0 <= self.seed < 1 << 64:
            raise InvalidPlan(f"seed must be in [0, 2**64), got {self.seed}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidPlan(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.delta < 1.0:
            raise InvalidPlan(f"delta must be in [0, 1), got {self.delta}")
        if self.p < 2:
            raise InvalidPlan(f"p must be at least 2, got {self.p}")
        if self.test != "block" and (self.partition is not None or self.scenario is not None):
            raise InvalidPlan(f"{self.test} plans take no partition")
        if self.test == "eqcov":
            if self.n_sizes is None or self.n is not None:
                raise InvalidPlan("eqcov plans take n_sizes, not n")
            object.__setattr__(self, "n_sizes", tuple(_integer("n_j", v) for v in self.n_sizes))
            constants, args, scale = eqcov_constants, (self.n_sizes, self.p), sum(self.n_sizes)
        else:
            if self.n is None or self.n_sizes is not None:
                raise InvalidPlan(f"{self.test} plans take n, not n_sizes")
            object.__setattr__(self, "n", _integer("n", self.n))
            if self.n <= self.p:
                raise InvalidPlan(f"requires n > p, got n={self.n}, p={self.p}")
            if self.test == "correlation":
                constants, args, scale = correlation_constants, (self.n, self.p), 1
            else:
                part = self.partition
                if part is None:
                    if self.scenario is None:
                        raise InvalidPlan("block plans need a partition or a scenario")
                    part = scenario_partition(self.scenario, self.p)
                    object.__setattr__(self, "partition", part)
                if part.p != self.p:
                    raise InvalidPlan(f"partition p={part.p} does not match plan p={self.p}")
                if self.scenario is not None and part != scenario_partition(self.scenario, self.p):
                    raise InvalidPlan("explicit partition contradicts the scenario")
                constants, args, scale = block_constants, (self.n, part), 1
        try:
            const = constants(*args)
        except InvalidDesign as exc:
            raise InvalidPlan(str(exc)) from exc
        object.__setattr__(self, "mu", const.mu_n)
        object.__setattr__(self, "sigma", scale * const.sigma_n)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Aggregate of one simulation run.

    ``z_samples`` holds the standardized statistic of every replication,
    indexed by replication.  ``histogram`` is (edges, counts) where counts
    has two extra overflow bins (below/above ``HISTOGRAM_RANGE``) and sums
    to ``reps``; ``ks_statistic`` is the Kolmogorov-Smirnov distance of the
    z sample to the standard normal.  Both are set by ``run_histogram``
    only.
    """

    rejection_rate: float
    standard_error: float
    rejections: int
    reps: int
    z_samples: np.ndarray
    histogram: tuple[np.ndarray, np.ndarray] | None = None
    ks_statistic: float | None = None


def _run_chunk(plan: SimulationPlan, start: int, stop: int) -> np.ndarray:
    """z of replications start, ..., stop - 1."""
    statistics = np.empty(stop - start)
    if plan.test == "eqcov":
        for rep in range(start, stop):
            rng = entry_generator(plan.seed, rep)
            groups = [draw_entries(rng, nj, plan.p, plan.dist) for nj in plan.n_sizes]
            statistics[rep - start] = 2.0 * log_lambda2(GroupedSample(tuple(groups)))
    else:
        root = compound_symmetry_sqrt(plan.delta, plan.p) if plan.delta > 0.0 else None
        batch = np.empty((_BATCH, plan.n, plan.p))
        for lo in range(start, stop, _BATCH):
            x = batch[:min(_BATCH, stop - lo)]
            for i in range(len(x)):
                rng = entry_generator(plan.seed, lo + i)
                x[i] = draw_entries(rng, plan.n, plan.p, plan.dist)
            if root is not None:
                # back into the buffer, so that the statistic runs with one stack
                # alive and peak memory stays at the unbatched engine's
                x[...] = apply_root(x, root)
            if plan.test == "block":
                values = log_vn(x, plan.partition)
            else:
                values = log_det_correlation(x)
            statistics[lo - start:lo - start + len(x)] = values
    return (statistics - plan.mu) / plan.sigma


def __getattr__(name: str):
    # ``ProcessPoolExecutor`` resolves here on first use (PEP 562) and is a
    # module global from then on, which tests and benchmarks may replace.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor  # later lookups skip this hook
    return ProcessPoolExecutor


# The pool that the deltas of the power curve running on this thread share:
# None until its first pooled delta, unset outside ``run_power_curve``.
_curve = threading.local()


@contextmanager
def _pool(threads: int):
    """A pool of ``threads`` workers: inside ``run_power_curve``, the curve's
    pool (started on first use and left open for the next delta), else a
    new pool shut down on exit."""
    # Looked up on the module, so that the first pooled run imports the
    # class and a replacement put there is used.
    executor = sys.modules[__name__].ProcessPoolExecutor
    if hasattr(_curve, "pool"):
        if _curve.pool is None:
            _curve.pool = executor(max_workers=threads)
        yield _curve.pool
    else:
        with executor(max_workers=threads) as pool:
            yield pool


def _simulate(plan: SimulationPlan, threads: int = 1) -> np.ndarray:
    """z values for all replications, indexed by replication."""
    threads = _integer("threads", threads)
    if threads < 1:
        raise InvalidPlan(f"threads must be at least 1, got {threads}")
    reps = plan.reps
    if threads <= 1 or reps < 2 * threads:
        return _run_chunk(plan, 0, reps)
    bounds = np.linspace(0, reps, 4 * threads + 1, dtype=int)
    with _pool(threads) as pool:
        futures = [pool.submit(_run_chunk, plan, int(a), int(b))
                   for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        return np.concatenate([fut.result() for fut in futures])


def _aggregate(plan: SimulationPlan, z: np.ndarray) -> SimulationResult:
    # identical decision to the test functions: reject iff Phi(z) <= alpha
    rejections = int(sum(1 for v in z if normal_cdf(float(v)) <= plan.alpha))
    rate = rejections / plan.reps
    return SimulationResult(
        rejection_rate=rate,
        standard_error=float(np.sqrt(rate * (1.0 - rate) / plan.reps)),
        rejections=rejections,
        reps=plan.reps,
        z_samples=z,
    )


def run_level(plan: SimulationPlan, threads: int = 1) -> SimulationResult:
    """Empirical rejection rate under the null (requires delta = 0)."""
    if plan.delta != 0.0:
        raise InvalidPlan("level runs require delta = 0; use run_power for alternatives")
    return _aggregate(plan, _simulate(plan, threads))


def run_power(plan: SimulationPlan, threads: int = 1) -> SimulationResult:
    """Empirical rejection rate under the compound-symmetry alternative.

    With delta = 0 this reduces exactly to ``run_level``.  Not defined for
    the eqcov test: applying a common covariance to every group keeps its
    null hypothesis true, so there is no alternative to simulate.
    """
    if plan.test == "eqcov":
        raise InvalidPlan("power simulation is defined for the block and correlation tests only")
    return _aggregate(plan, _simulate(plan, threads))


def run_power_curve(plan: SimulationPlan, deltas=DEFAULT_DELTA_GRID,
                    threads: int = 1) -> list[tuple[float, SimulationResult]]:
    """``run_power`` over a delta grid, reusing the plan's seed so the
    replications are coupled across deltas.  All deltas run on one pool of
    ``threads`` workers, shut down before the curve returns or raises."""
    _curve.pool = None
    try:
        return [
            (float(d), run_power(replace(plan, delta=float(d)), threads=threads))
            for d in deltas
        ]
    finally:
        pool = _curve.pool
        del _curve.pool
        if pool is not None:
            pool.shutdown()


def ks_distance_to_normal(z: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the sample and the standard
    normal distribution."""
    zs = np.sort(np.asarray(z, dtype=np.float64))
    count = len(zs)
    if count == 0:
        raise ValueError("empty sample")
    cdf = np.array([normal_cdf(float(v)) for v in zs])
    upper = np.arange(1, count + 1) / count - cdf
    lower = cdf - np.arange(0, count) / count
    return float(max(upper.max(), lower.max()))


def run_histogram(plan: SimulationPlan, bins: int = 40, threads: int = 1) -> SimulationResult:
    """Null run that bins the z sample over ``HISTOGRAM_RANGE`` with two
    overflow bins, and attaches the KS distance to the standard normal."""
    if plan.delta != 0.0:
        raise InvalidPlan("histogram runs require delta = 0")
    if bins < 1:
        raise InvalidPlan(f"bins must be positive, got {bins}")
    z = _simulate(plan, threads)
    lo, hi = HISTOGRAM_RANGE
    edges = np.linspace(lo, hi, bins + 1)
    interior, _ = np.histogram(z[(z >= lo) & (z <= hi)], bins=edges)
    counts = np.concatenate(([int(np.sum(z < lo))], interior, [int(np.sum(z > hi))]))
    result = _aggregate(plan, z)
    return replace(result, histogram=(edges, counts), ks_statistic=ks_distance_to_normal(z))
