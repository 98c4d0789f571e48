"""Simulation engine: determinism, scenario constructors, aggregation."""

import dataclasses
import math
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdlrt import montecarlo
from hdlrt.blocktest import (
    block_constants,
    block_test,
    correlation_constants,
    correlation_test,
    log_det_correlation,
    log_vn,
)
from hdlrt.eqcov import eqcov_constants, eqcov_test
from hdlrt.errors import InvalidPlan
from hdlrt.linalg import BlockPartition, compound_symmetry_sqrt
from hdlrt.montecarlo import (
    DEFAULT_DELTA_GRID,
    SimulationPlan,
    SimulationResult,
    ks_distance_to_normal,
    run_histogram,
    run_level,
    run_power,
    run_power_curve,
    scenario_partition,
)
from hdlrt.oracle import normal_quantile, power_mean_shift
from hdlrt.sampling import (
    DistributionSpec,
    apply_root,
    draw_entries,
    entry_generator,
    normal_cdf,
)
from conftest import THREADS

SMALL_BLOCK = dict(test="block", p=8, n=40, partition=BlockPartition((4, 4)))


def small_plan(reps=60, seed=3, **overrides):
    kw = dict(SMALL_BLOCK, reps=reps, seed=seed)
    kw.update(overrides)
    return SimulationPlan(**kw)


# ---------------------------------------------------------------------------
# scenario constructors
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=100))
def test_scenario_1_partitions_valid(k):
    p = 3 * k
    part = scenario_partition(1, p)
    assert part.q == 3
    assert part.p == p
    assert all(s == p // 3 for s in part.sizes)


@given(st.integers(min_value=2, max_value=150))
def test_scenario_2_partitions_valid(k):
    p = 2 * k
    part = scenario_partition(2, p)
    q = p // 2
    assert part.q == q
    assert part.p == p
    assert part.sizes == (1,) * (q - 1) + (q + 1,)


def test_scenario_rejects_bad_dimension():
    with pytest.raises(InvalidPlan):
        scenario_partition(1, 10)
    with pytest.raises(InvalidPlan):
        scenario_partition(2, 7)
    with pytest.raises(InvalidPlan):
        scenario_partition(3, 12)


def test_plan_resolves_scenario():
    plan = SimulationPlan(test="block", p=60, n=100, scenario=2)
    assert plan.partition == scenario_partition(2, 60)


def test_plan_validation():
    with pytest.raises(InvalidPlan):
        SimulationPlan(test="block", p=8, n=40)  # no partition or scenario
    with pytest.raises(InvalidPlan):
        SimulationPlan(test="block", p=8, n=8, partition=BlockPartition((4, 4)))
    with pytest.raises(InvalidPlan):
        SimulationPlan(test="correlation", p=8, n=40, partition=BlockPartition((4, 4)))
    with pytest.raises(InvalidPlan):
        SimulationPlan(test="eqcov", p=8, n=40, n_sizes=(20, 20))
    with pytest.raises(InvalidPlan):
        SimulationPlan(test="block", p=8, n=40, partition=BlockPartition((4, 4)), delta=1.0)
    with pytest.raises(InvalidPlan):
        SimulationPlan(test="block", p=8, n=40, partition=BlockPartition((4, 4)), reps=0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(test="block", p=8, n=40, partition=BlockPartition((8,))),
     "at least two blocks required, got q=1"),
    (dict(test="eqcov", p=10, n_sizes=(50,)), "at least two groups required, got 1"),
    (dict(test="eqcov", p=10, n_sizes=(50, 8)),
     "every group needs n_j > p, got sizes (50, 8) with p=10"),
], ids=["one_block", "one_group", "group_not_above_p"])
def test_plan_rejects_what_cannot_run(kwargs, message):
    # the constants' own wording, which `hdlrt simulate` prints as its error line
    with pytest.raises(InvalidPlan) as exc:
        SimulationPlan(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("kwargs, message", [
    (dict(test="eqcov", p=4, n_sizes=(15.9, 20)), "n_j must be an integer, got 15.9"),
    (dict(SMALL_BLOCK, n=40.5), "n must be an integer, got 40.5"),
    (dict(test="correlation", p=8.0, n=40), "p must be an integer, got 8.0"),
    (dict(SMALL_BLOCK, reps=10.0), "reps must be an integer, got 10.0"),
    (dict(SMALL_BLOCK, seed=3.7), "seed must be an integer, got 3.7"),
], ids=["n_sizes", "n", "p", "reps", "seed"])
def test_plan_rejects_non_integer_sizes(kwargs, message):
    # a float used to be truncated (or, for n, to fail mid-run)
    with pytest.raises(InvalidPlan) as exc:
        SimulationPlan(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["negative", "2_64"])
def test_plan_rejects_seed_outside_64_bits(seed):
    # it used to be masked to 64 bits: -1 drew the stream of 2**64 - 1
    with pytest.raises(InvalidPlan) as exc:
        small_plan(seed=seed)
    assert str(exc.value) == f"seed must be in [0, 2**64), got {seed}"


@pytest.mark.parametrize("kwargs, message", [
    (dict(SMALL_BLOCK, dist="t15"), "dist must be a DistributionSpec, got 't15'"),
    (dict(test="block", p=6, n=30, partition=(3, 3)),
     "partition must be a BlockPartition, got (3, 3)"),
    (dict(SMALL_BLOCK, delta="0.1"), "delta must be a number, got '0.1'"),
    (dict(SMALL_BLOCK, alpha="0.05"), "alpha must be a number, got '0.05'"),
], ids=["dist_name", "partition_tuple", "delta_str", "alpha_str"])
def test_plan_rejects_wrong_types(kwargs, message):
    # each used to pass construction and fail later: dist with an
    # AttributeError inside draw_entries (in a worker on a pooled run),
    # partition with an AttributeError, delta and alpha with a TypeError
    with pytest.raises(InvalidPlan) as exc:
        SimulationPlan(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("kwargs, message", [
    (dict(test="cov", p=8, n=40),
     "test must be one of ('block', 'correlation', 'eqcov'), got 'cov'"),
    (dict(test="correlation", p=1, n=40), "requires 2 <= p < n, got p=1, n=40"),
    (dict(test="correlation", p=4, n=40, n_sizes=(20, 20)),
     "correlation plans take n, not n_sizes"),
    (dict(test="block", p=8, n=40, partition=BlockPartition((4, 2))),
     "partition p=6 does not match plan p=8"),
    (dict(test="block", p=6, n=40, partition=BlockPartition((3, 3)), scenario=2),
     "explicit partition contradicts the scenario"),
    (dict(test="block", p=4, partition=BlockPartition((2, 2))), "block plans need n"),
    (dict(test="correlation", p=4), "correlation plans need n"),
    (dict(test="eqcov", p=4), "eqcov plans need n_sizes"),
    (dict(test="eqcov", p=4, n_sizes=(15, 20), delta=0.1), montecarlo._EQCOV_POWER),
], ids=["unknown_test", "p_1", "n_sizes_on_correlation", "partition_p", "partition_vs_scenario",
        "block_without_n", "correlation_without_n", "eqcov_without_n_sizes", "eqcov_delta"])
def test_plan_rejects_inconsistent_fields(kwargs, message):
    # a missing size field used to read as a foreign one ("block plans take
    # n, not n_sizes"), and an eqcov plan with delta > 0 was built although
    # no run accepts it
    with pytest.raises(InvalidPlan) as exc:
        SimulationPlan(**kwargs)
    assert str(exc.value) == message


def test_plan_takes_numpy_integers_as_ints():
    plan = SimulationPlan(test="eqcov", p=np.int64(4), n_sizes=(np.int32(15), 20),
                          reps=np.int64(3), seed=np.uint8(3))
    assert plan == SimulationPlan(test="eqcov", p=4, n_sizes=(15, 20), reps=3, seed=3)
    assert all(type(v) is int for v in (plan.p, *plan.n_sizes, plan.reps, plan.seed))


def test_plan_carries_its_standardization():
    const = block_constants(SMALL_BLOCK["n"], SMALL_BLOCK["partition"])
    plan = small_plan()
    assert (plan.mu, plan.sigma) == (const.mu_n, const.sigma_n)
    const = eqcov_constants((15, 20), 4)
    plan = SimulationPlan(test="eqcov", p=4, n_sizes=(15, 20))
    assert (plan.mu, plan.sigma) == (const.mu_n, 35 * const.sigma_n)
    flags = {f.name: (f.init, f.repr, f.compare) for f in dataclasses.fields(plan)}
    assert flags["mu"] == flags["sigma"] == (False, False, False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.mu = 0.0
    with pytest.raises(TypeError):
        SimulationPlan(test="eqcov", p=4, n_sizes=(15, 20), sigma=1.0)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_rerun_identical():
    a = run_level(small_plan())
    b = run_level(small_plan())
    assert np.array_equal(a.z_samples, b.z_samples)
    assert a.rejections == b.rejections


def test_thread_count_does_not_change_results():
    serial = run_level(small_plan(reps=50))
    pooled = run_level(small_plan(reps=50), threads=2)
    assert np.array_equal(serial.z_samples, pooled.z_samples)
    assert serial.rejections == pooled.rejections
    assert serial.rejection_rate == pooled.rejection_rate


def test_delta_zero_power_equals_level():
    level = run_level(small_plan(reps=40))
    power = run_power(small_plan(reps=40, delta=0.0))
    assert np.array_equal(level.z_samples, power.z_samples)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("plan", [
    SimulationPlan(test="block", n=40, p=12, partition=BlockPartition((8, 4)), reps=13,
                   seed=5, dist=DistributionSpec.centered_exponential()),
    SimulationPlan(test="correlation", n=30, p=8, delta=0.2, reps=13, seed=6),
    # 8 per stack at 100 x 60: two full stacks and one of 3, or stacks cut
    # short by the chunk ends
    SimulationPlan(test="block", n=100, p=60, partition=BlockPartition.uniform(30, 2), reps=19,
                   seed=7, dist=DistributionSpec.parse("t15")),
    SimulationPlan(test="correlation", n=100, p=60, delta=0.06, reps=19, seed=8),
], ids=["block", "correlation_delta", "block_100x60", "correlation_delta_100x60"])
def test_batched_z_equals_one_replication_at_a_time(plan, threads):
    # odd reps and uneven chunks leave batches of one at chunk ends
    if plan.test == "block":
        const = block_constants(plan.n, plan.partition)
    else:
        const = correlation_constants(plan.n, plan.p)
    root = compound_symmetry_sqrt(plan.delta, plan.p)
    expected = []
    for rep in range(plan.reps):
        x = draw_entries(entry_generator(plan.seed, rep), plan.n, plan.p, plan.dist)
        if plan.test == "block":
            statistic = log_vn(x, plan.partition)
        else:
            statistic = log_det_correlation(apply_root(x, root))
        expected.append((statistic - const.mu_n) / const.sigma_n)
    assert np.array_equal(run_power(plan, threads=threads).z_samples, expected)


def test_rejections_match_full_test_decisions():
    plan = small_plan(reps=25)
    result = run_level(plan)
    flags = []
    for rep in range(plan.reps):
        data = draw_entries(entry_generator(plan.seed, rep), plan.n, plan.p, plan.dist)
        flags.append(block_test(data, plan.partition, plan.alpha).reject)
    assert result.rejections == sum(flags)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kwargs", [
    dict(test="eqcov", p=4, n_sizes=(12, 15, 20), reps=7, seed=9,
         dist=DistributionSpec.parse("t15")),
    dict(test="correlation", n=30, p=8, delta=0.2, reps=7, seed=10),
    dict(test="block", n=30, p=10, partition=BlockPartition((5, 2, 3)), reps=7, seed=11),
    dict(test="eqcov", p=1, n_sizes=(5, 8), reps=7, seed=12),
], ids=["eqcov_t15", "correlation_delta", "block_uneven", "eqcov_p1"])
def test_engine_z_is_report_z(kwargs, threads):
    # the engine standardizes with the plan's constants, the reports with
    # their own; both must give every replication the same bits.  The plan
    # is built here: the constants, not the plan, set the limits on p, and
    # eqcov allows p = 1
    plan = SimulationPlan(**kwargs)
    root = compound_symmetry_sqrt(plan.delta, plan.p)
    expected = []
    for rep in range(plan.reps):
        rng = entry_generator(plan.seed, rep)
        if plan.test == "eqcov":
            groups = [draw_entries(rng, nj, plan.p, plan.dist) for nj in plan.n_sizes]
            report = eqcov_test(groups, plan.alpha)
        elif plan.test == "correlation":
            x = apply_root(draw_entries(rng, plan.n, plan.p, plan.dist), root)
            report = correlation_test(x, plan.alpha)
        else:
            report = block_test(draw_entries(rng, plan.n, plan.p, plan.dist), plan.partition,
                                plan.alpha)
        expected.append(report.z)
    run = run_level if plan.test == "eqcov" else run_power
    assert np.array_equal(run(plan, threads=threads).z_samples, expected)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_single_replication_degenerate_se():
    result = run_level(small_plan(reps=1))
    assert result.rejection_rate in (0.0, 1.0)
    assert result.standard_error == 0.0


def test_standard_error_formula():
    result = run_level(small_plan(reps=80))
    rate = result.rejection_rate
    assert result.standard_error == pytest.approx(math.sqrt(rate * (1 - rate) / 80), abs=1e-15)


def test_split_and_pool_consistent_with_single_run():
    part = BlockPartition((4, 4, 4))
    kw = dict(test="block", p=12, n=60, partition=part, alpha=0.05)
    half1 = run_level(SimulationPlan(reps=1000, seed=1, **kw), threads=THREADS)
    half2 = run_level(SimulationPlan(reps=1000, seed=2, **kw), threads=THREADS)
    single = run_level(SimulationPlan(reps=2000, seed=3, **kw), threads=THREADS)
    pooled_rate = (half1.rejections + half2.rejections) / 2000
    avg = (pooled_rate + single.rejection_rate) / 2
    pooled_se = math.sqrt(avg * (1 - avg) * (1 / 2000 + 1 / 2000))
    assert abs(pooled_rate - single.rejection_rate) <= 3 * pooled_se


def test_run_level_rejects_nonzero_delta():
    with pytest.raises(InvalidPlan):
        run_level(small_plan(delta=0.1))


@pytest.mark.parametrize("threads", [0, -3])
@pytest.mark.parametrize("run", [run_level, run_power, run_histogram, run_power_curve],
                         ids=lambda f: f.__name__)
def test_threads_below_one_rejected(run, threads):
    with pytest.raises(InvalidPlan, match="threads"):
        run(small_plan(reps=4), threads=threads)


@pytest.mark.parametrize("threads", [2.0, "2"], ids=["float", "str"])
@pytest.mark.parametrize("run", [run_level, run_power, run_histogram, run_power_curve],
                         ids=lambda f: f.__name__)
def test_non_integer_threads_rejected_before_any_pool(pools, run, threads):
    message = f"threads must be an integer, got {threads!r}"
    with pytest.raises(InvalidPlan, match=re.escape(message)):
        run(small_plan(reps=12), threads=threads)
    assert pools[0] == []


def test_run_power_rejects_eqcov():
    plan = SimulationPlan(test="eqcov", p=4, n_sizes=(12, 12), reps=5)
    with pytest.raises(InvalidPlan):
        run_power(plan)


def test_power_curve_uses_grid():
    curve = run_power_curve(small_plan(reps=30), deltas=(0.0, 0.3))
    assert [d for d, _ in curve] == [0.0, 0.3]
    assert all(r.reps == 30 for _, r in curve)


# ---------------------------------------------------------------------------
# worker pools: one per power curve, one per lone run
# ---------------------------------------------------------------------------

@pytest.fixture
def pools(monkeypatch):
    """Every pool montecarlo starts, and the ones shut down, counted by a
    subclass put in place of ``montecarlo.ProcessPoolExecutor``."""
    started, shut = [], []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

        def shutdown(self, *args, **kwargs):
            shut.append(self)
            return super().shutdown(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    return started, shut


def _no_shared_pool_left(started, shut):
    # a lone run after the curve starts and shuts down a pool of its own;
    # with the curve's slot left set it would reuse or keep that pool
    before = len(started)
    run_level(small_plan(reps=12), threads=2)
    return len(started) == before + 1 and set(started) <= set(shut)


def test_power_curve_starts_one_pool(pools):
    started, shut = pools
    curve = run_power_curve(small_plan(reps=12), deltas=(0.0, 0.2, 0.4), threads=2)
    assert len(curve) == 3
    assert len(started) == 1
    assert _no_shared_pool_left(started, shut)


def test_pooled_power_curve_equals_serial_curve(pools):
    plan = small_plan(reps=12)
    serial = run_power_curve(plan, deltas=(0.0, 0.2, 0.4), threads=1)
    pooled = run_power_curve(plan, deltas=(0.0, 0.2, 0.4), threads=2)
    assert len(pools[0]) == 1
    assert [d for d, _ in serial] == [d for d, _ in pooled]
    for (_, one), (_, two) in zip(serial, pooled):
        for field in dataclasses.fields(SimulationResult):
            assert np.array_equal(getattr(one, field.name), getattr(two, field.name)), field.name


def test_power_curve_raising_mid_curve_shuts_its_pool(pools, monkeypatch):
    # the statistic is patched before the workers fork, so it raises in them
    # after the curve's pool started
    def failing(data, part):
        raise ZeroDivisionError("statistic failed")

    started, shut = pools
    with monkeypatch.context() as patch, pytest.raises(ZeroDivisionError, match="failed"):
        patch.setattr(montecarlo, "log_vn", failing)
        run_power_curve(small_plan(reps=12), deltas=(0.0, 0.2), threads=2)
    assert len(started) == 1
    assert _no_shared_pool_left(started, shut)


def test_power_curve_invalid_delta_raises_before_any_pool(pools):
    # every delta's plan is built before the first draw
    with pytest.raises(InvalidPlan, match="delta"):
        run_power_curve(small_plan(reps=12), deltas=(0.0, 1.5), threads=2)
    assert pools[0] == []
    assert _no_shared_pool_left(*pools)


def test_power_curve_raising_in_its_run_power_clears_the_hand_off(monkeypatch):
    def failing(plan, z):
        raise ZeroDivisionError("aggregate failed")

    with monkeypatch.context() as patch, pytest.raises(ZeroDivisionError, match="failed"):
        patch.setattr(montecarlo, "_aggregate", failing)
        run_power_curve(small_plan(reps=6), deltas=(0.0, 0.2))
    # a later lone run simulates its own plan, not a row the curve left
    assert not hasattr(montecarlo._curve, "rows")
    assert run_power(small_plan(reps=7, delta=0.2)).reps == 7


# ---------------------------------------------------------------------------
# power curves: one draw per replication for the whole grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("plan, deltas", [
    (SimulationPlan(test="block", n=40, p=12, partition=BlockPartition((8, 4)), reps=13,
                    seed=5, dist=DistributionSpec.centered_exponential()), (0.0, 0.2, 0.4)),
    (SimulationPlan(test="correlation", n=30, p=8, reps=13, seed=6,
                    dist=DistributionSpec.parse("t15")), (0.3, 0.0, 0.3, 0.1)),
], ids=["block", "correlation_duplicate_deltas"])
def test_power_curve_equals_one_run_power_per_delta(plan, deltas, threads):
    # odd reps leave an uneven last batch; a delta listed twice gets its
    # result twice
    curve = run_power_curve(plan, deltas=deltas, threads=threads)
    assert [d for d, _ in curve] == list(deltas)
    for d, result in curve:
        alone = run_power(dataclasses.replace(plan, delta=d), threads=threads)
        for field in dataclasses.fields(SimulationResult):
            assert np.array_equal(getattr(result, field.name), getattr(alone, field.name)), \
                field.name


@pytest.fixture
def draws(monkeypatch):
    """The number of draw_entries calls montecarlo makes on this process."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return draw_entries(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "draw_entries", counting)
    return calls


@pytest.mark.parametrize("test", ["block", "correlation"])
def test_power_curve_draws_each_replication_once(draws, test):
    plan = small_plan(reps=7) if test == "block" else SimulationPlan(
        test="correlation", n=30, p=8, reps=7, seed=6)
    curve = run_power_curve(plan, deltas=(0.0, 0.1, 0.2, 0.1))
    assert len(curve) == 4
    assert len(draws) == plan.reps


def test_empty_power_curve_draws_nothing(draws):
    assert run_power_curve(small_plan(reps=7), deltas=()) == []
    assert draws == []


def test_eqcov_power_curve_refused_for_an_empty_grid(pools):
    # an empty grid used to return [] where any other grid raises
    plan = SimulationPlan("eqcov", p=4, n_sizes=(15, 20), reps=5)
    with pytest.raises(InvalidPlan) as exc:
        run_power_curve(plan, deltas=(), threads=2)
    assert str(exc.value) == montecarlo._EQCOV_POWER
    assert pools[0] == []


# ---------------------------------------------------------------------------
# stack sizes: as many replications as fit in the byte budget
# ---------------------------------------------------------------------------

@pytest.fixture
def stacks(monkeypatch):
    """The leading size of every stack the block and correlation statistics
    get on this process."""
    sizes = []

    def recording(statistic):
        def record(x, *args):
            sizes.append(len(x))
            return statistic(x, *args)
        return record

    monkeypatch.setattr(montecarlo, "log_vn", recording(log_vn))
    monkeypatch.setattr(montecarlo, "log_det_correlation", recording(log_det_correlation))
    return sizes


@pytest.mark.parametrize("plan, expected", [
    (SimulationPlan(test="block", n=100, p=60, partition=BlockPartition.uniform(30, 2),
                    reps=19, seed=4), [8, 8, 3]),
    (SimulationPlan(test="correlation", n=100, p=60, reps=19, seed=4), [8, 8, 3]),
    (SimulationPlan(test="block", n=180, p=120, scenario=2, reps=5, delta=0.02), [2, 2, 1]),
], ids=["block_100x60", "correlation_100x60", "block_180x120_scenario2"])
def test_stack_sizes_follow_the_byte_budget(stacks, plan, expected):
    run_power(plan)
    assert stacks == expected


def test_small_plan_stacks_each_chunk_at_once(stacks):
    # 40 x 12 fits more than a chunk; the stack is only as large as the chunk
    plan = SimulationPlan(test="block", n=40, p=12, partition=BlockPartition((8, 4)), reps=13)
    bounds = [(0, 13), (0, 4), (4, 5), (5, 13)]
    for start, stop in bounds:
        montecarlo._run_chunk(plan, (0.0, 0.2), start, stop)
    assert stacks == [stop - start for start, stop in bounds for _ in range(2)]


@pytest.mark.parametrize("delta", ["0.1", "x"], ids=["numeric_str", "str"])
def test_power_curve_rejects_non_numeric_delta_before_any_pool(pools, delta):
    # the curve's float() used to run "0.1" and raise ValueError on "x"
    with pytest.raises(InvalidPlan) as exc:
        run_power_curve(small_plan(reps=12), deltas=(0.0, delta), threads=2)
    assert str(exc.value) == f"delta must be a number, got {delta!r}"
    assert pools[0] == []


@pytest.mark.parametrize("deltas", [0.1, "0.1"], ids=["float", "str"])
def test_power_curve_rejects_a_bare_number_before_any_pool(pools, deltas):
    # 0.1 used to raise "TypeError: 'float' object is not iterable", and
    # "0.1" to be read one character at a time
    with pytest.raises(InvalidPlan) as exc:
        run_power_curve(small_plan(reps=12), deltas=deltas, threads=2)
    assert str(exc.value) == f"deltas must be a sequence of numbers, got {deltas!r}"
    assert pools[0] == []


def test_power_curve_reports_integer_deltas_as_floats():
    curve = run_power_curve(small_plan(reps=4), deltas=[0, np.int64(0)])
    assert [(type(d), d) for d, _ in curve] == [(float, 0.0), (float, 0.0)]


@pytest.mark.parametrize("run", [run_level, run_power, run_histogram],
                         ids=lambda f: f.__name__)
def test_lone_run_starts_and_shuts_its_own_pool(pools, run):
    started, shut = pools
    run(small_plan(reps=12), threads=2)
    run(small_plan(reps=12), threads=2)
    assert len(started) == 2
    assert _no_shared_pool_left(started, shut)


@pytest.mark.parametrize("plan, threads", [
    (SimulationPlan(test="eqcov", p=4, n_sizes=(12, 12), reps=12), 2),
    (small_plan(reps=12), 0),
], ids=["eqcov", "threads_0"])
@pytest.mark.parametrize("run", [run_power, run_power_curve], ids=lambda f: f.__name__)
def test_invalid_plan_raises_before_any_pool(pools, run, plan, threads):
    with pytest.raises(InvalidPlan):
        run(plan, threads=threads)
    assert pools[0] == []
    assert _no_shared_pool_left(*pools)


def test_power_increases_for_strong_alternative():
    null = run_power(small_plan(reps=200, delta=0.0))
    strong = run_power(small_plan(reps=200, delta=0.6))
    assert strong.rejection_rate > null.rejection_rate + 0.3


# ---------------------------------------------------------------------------
# histogram / KS
# ---------------------------------------------------------------------------

def test_histogram_mass_and_overflow():
    result = run_histogram(small_plan(reps=120))
    edges, counts = result.histogram
    assert len(edges) == 41
    assert len(counts) == 42
    assert counts.sum() == 120
    assert np.isfinite(result.z_samples).all()
    assert result.ks_statistic is not None


def test_result_is_pure_function_of_plan():
    plan = small_plan(reps=24)
    one = run_histogram(plan, threads=1)
    two = run_histogram(plan, threads=2)
    for field in dataclasses.fields(SimulationResult):
        a, b = getattr(one, field.name), getattr(two, field.name)
        pairs = zip(a, b) if field.name == "histogram" else [(a, b)]
        assert all(np.array_equal(x, y) for x, y in pairs), field.name


def test_histogram_rejects_nonzero_delta():
    with pytest.raises(InvalidPlan, match=r"^histogram runs require delta = 0$"):
        run_histogram(small_plan(reps=12, delta=0.1))


def test_ks_distance_rejects_an_empty_sample():
    with pytest.raises(ValueError, match=r"^empty sample$"):
        ks_distance_to_normal([])


def test_ks_distance_rejects_a_nan():
    # it used to return nan
    with pytest.raises(ValueError, match=r"^sample contains NaN$"):
        ks_distance_to_normal([0.5, np.nan, -0.5])


def test_ks_distance_known_values():
    # singleton at the median: max(|1 - .5|, |.5 - 0|) = 0.5
    assert ks_distance_to_normal(np.array([0.0])) == pytest.approx(0.5)
    grid = np.array([normal_quantile(i / 8) for i in range(1, 8)])
    assert ks_distance_to_normal(grid) == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_eqcov_plan_runs():
    plan = SimulationPlan(test="eqcov", p=4, n_sizes=(15, 20), reps=30, seed=8)
    result = run_level(plan)
    assert result.reps == 30
    assert len(result.z_samples) == 30


def test_correlation_plan_runs():
    plan = SimulationPlan(test="correlation", p=6, n=30, reps=30, seed=8)
    result = run_level(plan)
    assert len(result.z_samples) == 30


def test_default_grid_shape():
    assert DEFAULT_DELTA_GRID[0] == 0.0
    assert DEFAULT_DELTA_GRID[-1] == pytest.approx(0.02)
    assert len(DEFAULT_DELTA_GRID) == 11


# ---------------------------------------------------------------------------
# distribution-invariance of the rejection rate (shared reference samples)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_scenario_2_power_at_least_scenario_1():
    # the many-singletons layout detects the equicorrelated alternative
    # at least as well as three equal blocks at matched (delta, n, p)
    kw = dict(test="block", p=60, n=100, delta=0.06, reps=2000, seed=606)
    s1 = run_power(SimulationPlan(scenario=1, **kw), threads=THREADS)
    s2 = run_power(SimulationPlan(scenario=2, **kw), threads=THREADS)
    bound = 3.0 * math.sqrt(
        (s1.rejection_rate + s2.rejection_rate) / 2
        * (1 - (s1.rejection_rate + s2.rejection_rate) / 2) * 2 / 2000)
    assert s2.rejection_rate >= s1.rejection_rate - bound


@pytest.mark.slow
@pytest.mark.parametrize("kw, part", [
    (dict(test="correlation", seed=808_001), BlockPartition.unit(60)),
    (dict(test="block", scenario=2, seed=808_002), scenario_partition(2, 60)),
], ids=["correlation", "block_scenario_2"])
def test_power_matches_the_mean_shift_oracle(kw, part):
    # Phi(u_alpha - g(delta) / sigma_n) leaves out the variance growth under
    # the alternative, so it is checked only where it predicts power <= 0.5
    reps = 2000
    plans = [SimulationPlan(n=100, p=60, delta=delta, reps=reps, **kw)
             for delta in (0.02, 0.03, 0.04, 0.05)]
    checked = 0
    for plan in plans:
        predicted = normal_cdf(
            normal_quantile(plan.alpha) - power_mean_shift(part, plan.delta) / plan.sigma)
        if predicted > 0.5:
            continue
        rate = run_power(plan, threads=THREADS).rejection_rate
        assert abs(rate - predicted) <= 3.0 * math.sqrt(predicted * (1 - predicted) / reps), (
            plan.delta, rate, predicted)
        checked += 1
    assert checked >= 3


@pytest.mark.slow
def test_rate_difference_normal_vs_t15(reference_null_run):
    a = reference_null_run("normal")
    b = reference_null_run("t15")
    avg = (a.rejection_rate + b.rejection_rate) / 2
    pooled_se = math.sqrt(avg * (1 - avg) * 2 / a.reps)
    assert abs(a.rejection_rate - b.rejection_rate) <= 3 * pooled_se


@pytest.mark.slow
def test_correlation_test_level_window():
    plan = SimulationPlan(test="correlation", p=60, n=100, reps=2000, seed=42)
    result = run_level(plan, threads=THREADS)
    assert 0.035 <= result.rejection_rate <= 0.065
