"""Monte Carlo engine: empirical level, power over a compound-symmetry
alternative, and null-distribution histograms for the three tests.

Reproducibility contract: replication r draws from the counter-based
stream (plan.seed, stream=r), and its z is standardized by the ``mu`` and
``sigma`` the plan computes when it is built, so results are a pure
function of the plan, independent of the number of worker processes.
Aggregates are assembled by replication index, so every field of a result
is the same on every rerun of the same plan.

Stacks: block and correlation replications are evaluated as many at a
time as fit in ``_STACK_BYTES`` of n x p draws (8 at n=100, p=60; 2 at
180 x 120; at least 1), and never more than a chunk holds.  Each is drawn
from its own stream into one preallocated stack (k, n, p), and the stack
goes through ``apply_root`` and the statistic in one call each; the
kernels give every slice of a stack the bits it gets on its own, so
stacking changes no result.  A power curve draws each stack once and
evaluates every delta of its grid on it, so its results are those of one
``run_power`` per delta.  eqcov replications are evaluated one at a time.

Worker processes: a run on more than one worker splits its replications
into chunks on a ``ProcessPoolExecutor`` and shuts the pool down before it
returns.  ``run_power_curve`` computes every delta in one such pass, each
chunk drawing its replications once for the whole grid, and then hands
each delta's z to a ``run_power`` call through a thread-local slot that
only ``run_power`` reads.  The pool machinery (``concurrent.futures`` and
``multiprocessing``) loads with the first pooled run, not with this
module, so a single-worker run never imports it.  The worker count is an
integer, at least 1.
"""

from __future__ import annotations

import numbers
import sys
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .blocktest import block_constants, correlation_constants, log_det_correlation, log_vn
from .eqcov import GroupedSample, eqcov_constants, log_lambda2
from .errors import (InvalidDesign, InvalidPlan, _as_alpha, _as_delta, _as_integer, _as_integers,
                     _as_word)
from .linalg import BlockPartition, _as_partition, compound_symmetry_sqrt
from .sampling import (DistributionSpec, _as_distribution, apply_root, draw_entries,
                       entry_generator, normal_cdf)

#: Default power grid; configurable per run since the transition point
#: moves with (n, p) and the partition.
DEFAULT_DELTA_GRID = tuple(round(0.002 * k, 6) for k in range(11))

_TESTS = ("block", "correlation", "eqcov")

#: The histogram's equal interior bins; z outside the range lands in two overflow bins.
HISTOGRAM_RANGE = (-4.0, 4.0)
HISTOGRAM_BINS = 40

_EQCOV_POWER = "power simulation is defined for the block and correlation tests only"

# Bytes of float64 draws stacked per kernel call of the block and
# correlation statistics.  Small shapes stack more replications, so the
# fixed per-call cost of the small LAPACK and numpy calls is spread over
# more of them; past this size a larger stack gains nothing and adds memory.
_STACK_BYTES = 384 * 1024


def scenario_partition(scenario: int, p: int) -> BlockPartition:
    """The two stock block layouts used in the simulation study.

    Scenario 1: three equal blocks of size p/3 (p divisible by 3).
    Scenario 2: q = p/2 blocks, q - 1 singletons plus one block of q + 1
    (p even, p >= 4); the sizes add up to 2q = p.
    """
    scenario = _as_integer("scenario", scenario, InvalidPlan)
    p = _as_integer("p", p, InvalidPlan)
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


@dataclass(frozen=True)
class SimulationPlan:
    """Descriptor of one simulation experiment.  Its field defaults (normal
    entries, 2000 replications, alpha 0.05, seed 0) and its refusals are
    the only ones: ``hdlrt simulate`` passes it just the options given.

    ``test`` is "block", "correlation" or "eqcov".  Block plans need ``n``
    and a partition (directly or through ``scenario``), correlation plans
    ``n`` and eqcov plans ``n_sizes``; a missing size field is refused by
    name ("block plans need n"), the other kind's as foreign ("eqcov plans
    take n_sizes, not n").  p and the sizes have the constants' limits
    (2 <= p < n and q >= 2 blocks; eqcov n_j > p >= 1).  ``delta`` selects
    the compound-symmetry alternative (1-delta) I + delta * ones, with
    delta = 0 the null; eqcov has no alternative to simulate, so an eqcov
    plan with delta > 0 is refused in ``run_power``'s words.  Sizes, ``p``,
    ``reps``, ``seed`` and ``scenario`` are integers, the seed in
    [0, 2**64); ``delta`` is a real number in [0, 1), ``alpha`` one in
    (0, 1) and ``dist`` a ``DistributionSpec``, under the package's rules.
    ``mu`` and ``sigma``, the read-only centering and scale of the
    statistic the engine stores (eqcov: mu_n and n sigma_n), are set when
    the plan is built; a plan that cannot run, one the constants reject
    included, raises ``InvalidPlan`` then.
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
            object.__setattr__(self, name, _as_integer(name, getattr(self, name), InvalidPlan))
        if self.reps < 1:
            raise InvalidPlan(f"reps must be positive, got {self.reps}")
        _as_word("seed", self.seed, InvalidPlan)
        object.__setattr__(self, "alpha", _as_alpha(self.alpha, InvalidPlan))
        _as_delta(self.delta, InvalidPlan)
        if self.test == "eqcov" and self.delta != 0.0:
            raise InvalidPlan(_EQCOV_POWER)
        _as_distribution(self.dist, InvalidPlan)
        if self.partition is not None:
            _as_partition(self.partition, InvalidPlan)
        if self.test != "block" and (self.partition is not None or self.scenario is not None):
            raise InvalidPlan(f"{self.test} plans take no partition")
        size, foreign = ("n_sizes", "n") if self.test == "eqcov" else ("n", "n_sizes")
        if getattr(self, foreign) is not None:
            raise InvalidPlan(f"{self.test} plans take {size}, not {foreign}")
        if getattr(self, size) is None:
            raise InvalidPlan(f"{self.test} plans need {size}")
        if self.test == "eqcov":
            sizes = _as_integers("n_sizes", self.n_sizes, InvalidPlan, "n_j")
            object.__setattr__(self, "n_sizes", sizes)
            constants, args, scale = eqcov_constants, (self.n_sizes, self.p), sum(self.n_sizes)
        else:
            object.__setattr__(self, "n", _as_integer("n", self.n, InvalidPlan))
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


def _run_chunk(plan: SimulationPlan, deltas: tuple[float, ...], start: int,
               stop: int) -> np.ndarray:
    """z of replications start, ..., stop - 1, one row per delta of
    ``deltas``; every delta is evaluated on the same draws."""
    statistics = np.empty((len(deltas), stop - start))
    if plan.test == "eqcov":
        for rep in range(start, stop):
            rng = entry_generator(plan.seed, rep)
            groups = [draw_entries(rng, nj, plan.p, plan.dist) for nj in plan.n_sizes]
            statistics[0, rep - start] = 2.0 * log_lambda2(GroupedSample(tuple(groups)))
    else:
        roots = [compound_symmetry_sqrt(d, plan.p) if d > 0.0 else None for d in deltas]
        size = min(max(1, _STACK_BYTES // (8 * plan.n * plan.p)), stop - start)
        stack = np.empty((size, plan.n, plan.p))
        for lo in range(start, stop, size):
            white = stack[:min(size, stop - lo)]
            for i in range(len(white)):
                rng = entry_generator(plan.seed, lo + i)
                white[i] = draw_entries(rng, plan.n, plan.p, plan.dist)
            for row, root in zip(statistics, roots):
                # a new stack per delta: the white draws stay for the next one
                x = white if root is None else apply_root(white, root)
                if plan.test == "block":
                    values = log_vn(x, plan.partition)
                else:
                    values = log_det_correlation(x)
                row[lo - start:lo - start + len(x)] = values
    return (statistics - plan.mu) / plan.sigma


def __getattr__(name: str):
    # ``ProcessPoolExecutor`` resolves here on first use (PEP 562) and is a
    # module global from then on, which tests and benchmarks may replace.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor  # later lookups skip this hook
    return ProcessPoolExecutor


def _simulate(plan: SimulationPlan, deltas: tuple[float, ...], threads: int) -> np.ndarray:
    """z of every replication of ``plan`` at each delta of ``deltas``: one
    row per delta, indexed by replication."""
    threads = _as_integer("threads", threads, InvalidPlan)
    if threads < 1:
        raise InvalidPlan(f"threads must be at least 1, got {threads}")
    reps = plan.reps
    if threads <= 1 or reps < 2 * threads:
        return _run_chunk(plan, deltas, 0, reps)
    bounds = np.linspace(0, reps, 4 * threads + 1, dtype=int)
    # Looked up on the module, so that the first pooled run imports the
    # class and a replacement put there is used.
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_run_chunk, plan, deltas, int(a), int(b))
                   for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        return np.concatenate([fut.result() for fut in futures], axis=1)


# The rows of z that the power curve running on this thread has computed,
# as an iterator that its ``run_power`` calls take in order; unset outside
# ``run_power_curve``.
_curve = threading.local()


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
    return _aggregate(plan, _simulate(plan, (plan.delta,), threads)[0])


def run_power(plan: SimulationPlan, threads: int = 1) -> SimulationResult:
    """Empirical rejection rate under the compound-symmetry alternative.

    With delta = 0 this reduces exactly to ``run_level``.  Not defined for
    the eqcov test: applying a common covariance to every group keeps its
    null hypothesis true, so there is no alternative to simulate.
    """
    if plan.test == "eqcov":
        raise InvalidPlan(_EQCOV_POWER)
    rows = getattr(_curve, "rows", None)  # set while a power curve runs
    z = _simulate(plan, (plan.delta,), threads)[0] if rows is None else next(rows)
    return _aggregate(plan, z)


def run_power_curve(plan: SimulationPlan, deltas=DEFAULT_DELTA_GRID,
                    threads: int = 1) -> list[tuple[float, SimulationResult]]:
    """``run_power`` over a delta grid, reusing the plan's seed so the
    replications are coupled across deltas.  Each replication is drawn once
    and every delta is evaluated on it, in one pass over the replications
    on one pool of ``threads`` workers; every delta's plan is built, and an
    invalid one raises, before the first draw."""
    if plan.test == "eqcov":
        raise InvalidPlan(_EQCOV_POWER)
    if isinstance(deltas, str) or not np.iterable(deltas):
        raise InvalidPlan(f"deltas must be a sequence of numbers, got {deltas!r}")
    # a delta that is not a real number goes to the plan as is, which refuses it
    plans = [replace(plan, delta=float(d) if isinstance(d, numbers.Real) else d) for d in deltas]
    if not plans:
        return []
    rows = _simulate(plan, tuple(each.delta for each in plans), threads)
    # each delta still goes through run_power, which takes its row in order
    _curve.rows = iter(rows)
    try:
        return [(each.delta, run_power(each, threads=threads)) for each in plans]
    finally:
        del _curve.rows


def ks_distance_to_normal(z: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the sample and the standard
    normal distribution."""
    zs = np.sort(np.asarray(z, dtype=np.float64))
    count = len(zs)
    if count == 0:
        raise ValueError("empty sample")
    if np.isnan(zs[-1]):  # the sort puts a NaN last
        raise ValueError("sample contains NaN")
    cdf = np.array([normal_cdf(float(v)) for v in zs])
    upper = np.arange(1, count + 1) / count - cdf
    lower = cdf - np.arange(0, count) / count
    return float(max(upper.max(), lower.max()))


def run_histogram(plan: SimulationPlan, threads: int = 1) -> SimulationResult:
    """Null run that bins the z sample into ``HISTOGRAM_BINS`` equal bins
    over ``HISTOGRAM_RANGE`` and two overflow bins, with the KS distance to
    the standard normal; ``z_samples`` gives any other binning."""
    if plan.delta != 0.0:
        raise InvalidPlan("histogram runs require delta = 0")
    z = _simulate(plan, (plan.delta,), threads)[0]
    lo, hi = HISTOGRAM_RANGE
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    interior, _ = np.histogram(z[(z >= lo) & (z <= hi)], bins=edges)
    counts = np.concatenate(([int(np.sum(z < lo))], interior, [int(np.sum(z > hi))]))
    result = _aggregate(plan, z)
    return replace(result, histogram=(edges, counts), ks_statistic=ks_distance_to_normal(z))
