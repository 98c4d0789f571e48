"""Block-diagonal and correlation-determinant test: statistics, constants,
decision rule, and distributional shape."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlrt.blocktest import (
    NullConstants,
    _standardize,
    block_constants,
    block_test,
    correlation_constants,
    correlation_test,
    log_det_correlation,
    log_vn,
)
from hdlrt.errors import (
    DegenerateColumn,
    DimensionExceedsSample,
    DimensionMismatch,
    InvalidAlpha,
    InvalidDesign,
    ZeroVariance,
)
from hdlrt.linalg import (
    BlockPartition,
    compound_symmetry_sqrt,
    incremental_quad_forms,
    log_det_incremental,
)
from hdlrt.montecarlo import scenario_partition
from hdlrt.oracle import naive_log_vn, normal_quantile
from hdlrt.sampling import (
    DistributionSpec,
    apply_root,
    draw_entries,
    entry_generator,
    normal_cdf,
)

mpmath = pytest.importorskip("mpmath")


def high_precision_block_constants(n, sizes):
    """50-digit evaluation of the closed forms, the oracle for the doubles."""
    with mpmath.workdps(50):
        nn = mpmath.mpf(n)
        p = sum(sizes)
        mu = sum((nn - pi - mpmath.mpf(1) / 2) * mpmath.log(1 - mpmath.mpf(pi) / nn)
                 for pi in sizes)
        mu -= (nn - p - mpmath.mpf(1) / 2) * mpmath.log(1 - mpmath.mpf(p) / nn)
        s2 = 2 * (sum(mpmath.log(1 - mpmath.mpf(pi) / nn) for pi in sizes)
                  - mpmath.log(1 - mpmath.mpf(p) / nn))
        return float(mu), float(mpmath.sqrt(s2))


def block_diagonal_data():
    """8 x 4 data whose two 2-column groups live on disjoint rows, so the
    sample covariance is exactly block diagonal for the (2, 2) partition."""
    rng = np.random.default_rng(5)
    data = np.zeros((8, 4))
    data[:4, :2] = rng.standard_normal((4, 2))
    data[4:, 2:] = rng.standard_normal((4, 2))
    return data


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_block_constants_reference_regime():
    # frozen from the 50-digit evaluation: n=100, thirty blocks of two
    const = block_constants(100, BlockPartition.uniform(30, 2))
    assert const.mu_n == pytest.approx(-22.899434994715261519, rel=1e-13)
    assert const.sigma_n == pytest.approx(0.78766682340767865166, rel=1e-13)
    live_mu, live_sigma = high_precision_block_constants(100, [2] * 30)
    assert const.mu_n == pytest.approx(live_mu, rel=1e-13)
    assert const.sigma_n == pytest.approx(live_sigma, rel=1e-13)


def test_block_constants_two_singletons_hand_check():
    const = block_constants(10, BlockPartition((1, 1)))
    sigma_sq = 2.0 * (2.0 * math.log(0.9) - math.log(0.8))
    mu = 2.0 * 8.5 * math.log(0.9) - 7.5 * math.log(0.8)
    assert const.sigma_n ** 2 == pytest.approx(sigma_sq, rel=1e-14)
    assert const.mu_n == pytest.approx(mu, rel=1e-14)


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=10),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_block_constants_permutation_invariant(sizes, seed):
    p = sum(sizes)
    n = p + 1 + seed % 50
    if p < 2:
        return
    base = block_constants(n, BlockPartition(tuple(sizes)))
    perm = np.random.default_rng(seed).permutation(sizes)
    shuffled = block_constants(n, BlockPartition(tuple(int(v) for v in perm)))
    assert shuffled.mu_n == pytest.approx(base.mu_n, rel=1e-12, abs=1e-12)
    assert shuffled.sigma_n == pytest.approx(base.sigma_n, rel=1e-12)


@given(st.integers(min_value=2, max_value=40), st.data())
@settings(max_examples=60, deadline=None)
def test_block_sigma_positive_on_grid(q, data):
    sizes = data.draw(st.lists(st.integers(min_value=1, max_value=10),
                               min_size=q, max_size=q))
    p = sum(sizes)
    n = data.draw(st.integers(min_value=p + 1, max_value=500))
    const = block_constants(n, BlockPartition(tuple(sizes)))
    assert const.sigma_n > 0.0


def test_block_constants_rejects_bad_designs():
    with pytest.raises(InvalidDesign):
        block_constants(10, BlockPartition((12,)))  # q = 1
    with pytest.raises(InvalidDesign):
        block_constants(4, BlockPartition((2, 2)))  # p = n
    with pytest.raises(InvalidDesign):
        block_constants(3, BlockPartition((1, 1, 2)))  # p > n
    # a float used to be truncated to the integer below it
    with pytest.raises(InvalidDesign, match=r"^n must be an integer, got 40\.5$"):
        block_constants(40.5, BlockPartition((10, 10)))
    with pytest.raises(InvalidDesign, match=r"^n must be an integer, got 40\.9$"):
        correlation_constants(40.9, 8)


def test_correlation_constants_reference_values():
    const = correlation_constants(100, 60)
    assert const.mu_n == pytest.approx(-23.20400098516439232, rel=1e-13)
    assert const.sigma_n == pytest.approx(0.79154353091168472283, rel=1e-13)


def test_correlation_equals_unit_partition_constants():
    for n, p in [(50, 20), (300, 299), (10, 2)]:
        unit = block_constants(n, BlockPartition.unit(p))
        corr = correlation_constants(n, p)
        assert corr.mu_n == pytest.approx(unit.mu_n, abs=1e-12)
        assert corr.sigma_n == pytest.approx(unit.sigma_n, abs=1e-12)


def test_correlation_constants_asymptotic_form():
    # mu_bar approaches -(n-p-1/2) log(1-(p-1)/n) - (p-1) + p/n as n grows
    # with p/n fixed at one half; the gap must shrink monotonically
    gaps = []
    for n in (100, 1000, 10000):
        p = n // 2
        exact = correlation_constants(n, p).mu_n
        approx = -(n - p - 0.5) * math.log1p(-(p - 1) / n) - (p - 1) + p / n
        gaps.append(abs(exact - approx))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-4


# ---------------------------------------------------------------------------
# log_vn
# ---------------------------------------------------------------------------

def test_log_vn_zero_for_exactly_block_diagonal_data():
    # the determinant factorizes; only summation order separates the routes
    data = block_diagonal_data()
    assert abs(log_vn(data, BlockPartition((2, 2)))) <= 1e-12
    assert abs(naive_log_vn(data, BlockPartition((2, 2)))) <= 1e-12


def test_log_vn_zero_for_single_block(rng):
    data = rng.standard_normal((20, 6))
    assert log_vn(data, BlockPartition((6,))) == 0.0


def test_log_vn_fixed_integer_instance_matches_oracle():
    data = np.array([
        [2.0, -1.0, 0.0, 3.0],
        [1.0, 1.0, 2.0, -1.0],
        [0.0, 2.0, 1.0, 1.0],
        [3.0, 0.0, -1.0, 2.0],
        [-1.0, 1.0, 3.0, 0.0],
        [2.0, 2.0, 1.0, 1.0],
    ])
    part = BlockPartition((2, 2))
    # integer data: the scatter matrix X^T X is exact, and the factor n of the
    # covariance cancels in V_n, so a 50-digit determinant gives the truth
    gram = mpmath.matrix((data.T @ data).tolist())
    with mpmath.workdps(50):
        expected = float(mpmath.log(mpmath.det(gram))
                         - mpmath.log(mpmath.det(gram[0:2, 0:2]))
                         - mpmath.log(mpmath.det(gram[2:4, 2:4])))
    assert log_vn(data, part) == pytest.approx(expected, rel=1e-9, abs=1e-10)
    assert naive_log_vn(data, part) == pytest.approx(expected, rel=1e-9, abs=1e-10)


def test_log_vn_requires_p_below_n(rng):
    with pytest.raises(DimensionExceedsSample):
        log_vn(rng.standard_normal((4, 4)), BlockPartition((2, 2)))


def test_log_vn_partition_must_match_data(rng):
    from hdlrt.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        log_vn(rng.standard_normal((20, 5)), BlockPartition((2, 2)))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_log_vn_never_positive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    q = int(rng.integers(2, 5))
    sizes = tuple(int(v) for v in rng.integers(1, 4, q))
    p = sum(sizes)
    if p >= n:
        return
    data = rng.standard_normal((n, p))
    value = log_vn(data, BlockPartition(sizes))
    assert value <= 1e-12


def test_log_vn_block_diagonal_transform_invariance(rng):
    n, sizes = 60, (3, 4, 5)
    part = BlockPartition(sizes)
    data = rng.standard_normal((n, part.p))
    base = log_vn(data, part)
    for _ in range(5):
        blocks = []
        for s in sizes:
            g = rng.standard_normal((s, s))
            blocks.append(g @ g.T + 0.5 * s * np.eye(s))
        transform = np.zeros((part.p, part.p))
        for i, s in enumerate(sizes):
            lo, hi = part.cumulative[i:i + 2]
            transform[lo:hi, lo:hi] = blocks[i]
        assert log_vn(data @ transform.T, part) == pytest.approx(base, abs=1e-8)


@pytest.mark.parametrize("sizes", [
    (1,) * 60,
    (1,) * 29 + (31,),
    (3, 1, 2, 1, 5),
    (2,) * 30,
])
def test_log_vn_batched_block_terms_match_per_block(sizes):
    # equal-size blocks are factored together; each must still contribute
    # exactly its own scatter determinant
    part = BlockPartition(sizes)
    data = np.random.default_rng(part.q).standard_normal((part.p + 40, part.p))
    per_block = sum(log_det_incremental(data[:, lo:hi])
                    for lo, hi in zip(part.cumulative, part.cumulative[1:]))
    expected = log_det_incremental(data) - per_block
    got = log_vn(data, part)
    assert got == pytest.approx(expected, rel=1e-10)
    assert got == pytest.approx(naive_log_vn(data, part), rel=1e-10)


def test_log_vn_duplicate_column_inside_block(rng):
    part = BlockPartition((3, 1, 2, 1, 5))
    data = rng.standard_normal((30, part.p))
    lo, hi = part.cumulative[4:6]
    data[:, lo + 2] = -3.0 * data[:, lo]
    with pytest.raises(DegenerateColumn, match=f"column {lo + 2} "):
        log_vn(data, part)


# ---------------------------------------------------------------------------
# correlation determinant
# ---------------------------------------------------------------------------

def test_log_det_correlation_orthogonal_columns():
    data = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0], [0.0, -2.0], [1.0, 0.0]])
    assert log_det_correlation(data) == 0.0


def test_log_det_correlation_two_columns_closed_form(rng):
    data = rng.standard_normal((25, 2))
    s = data.T @ data / 25
    r = s[0, 1] / math.sqrt(s[0, 0] * s[1, 1])
    assert log_det_correlation(data) == pytest.approx(math.log1p(-r * r), rel=1e-10)


def test_log_det_correlation_equals_unit_partition(rng):
    data = rng.standard_normal((30, 8))
    direct = log_det_correlation(data)
    via_blocks = log_vn(data, BlockPartition.unit(8))
    assert abs(direct - via_blocks) < 1e-10


def test_log_det_correlation_requires_p_below_n(rng):
    with pytest.raises(DimensionExceedsSample, match=r"^requires p < n, got p=5, n=5$"):
        log_det_correlation(rng.standard_normal((5, 5)))


def test_log_det_correlation_zero_variance_column(rng):
    data = rng.standard_normal((20, 3))
    data[:, 1] = 0.0
    with pytest.raises(ZeroVariance):
        log_det_correlation(data)


# ---------------------------------------------------------------------------
# decision rule
# ---------------------------------------------------------------------------

def test_decision_boundary_inclusive():
    alpha = 0.05
    u = normal_quantile(alpha)
    report = _standardize(u * 2.0 + 1.0, NullConstants(mu_n=1.0, sigma_n=2.0), 1, alpha,
                          ())  # z == u exactly
    assert report.z == u
    assert report.reject is True


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=40, deadline=None)
def test_decision_rule_three_forms_agree(seed, alpha):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    sizes = tuple(int(v) for v in rng.integers(1, 4, 3))
    part = BlockPartition(sizes)
    if part.p >= n:
        return
    data = rng.standard_normal((n, part.p))
    report = block_test(data, part, alpha)
    const = block_constants(n, part)
    u = normal_quantile(alpha)
    assert report.reject == (report.p_value <= alpha)
    boundary = const.sigma_n * u + const.mu_n
    if abs(report.log_statistic - boundary) > 1e-9:  # off the knife edge
        assert report.reject == (report.log_statistic <= boundary)


def test_block_test_report_fields(rng):
    data = rng.standard_normal((50, 10))
    part = BlockPartition((5, 5))
    report = block_test(data, part, 0.05)
    const = block_constants(50, part)
    assert report.constants == const
    assert report.mu == const.mu_n
    assert report.sigma == const.sigma_n
    assert report.z == (report.log_statistic - report.mu) / report.sigma
    assert report.p_value == normal_cdf(report.z)
    assert report.alpha == 0.05
    assert report.assumption_warnings == ()


def test_correlation_report_keeps_its_constants(rng):
    report = correlation_test(rng.standard_normal((40, 6)), 0.05)
    assert report.constants == correlation_constants(40, 6)
    assert (report.mu, report.sigma) == (report.constants.mu_n, report.constants.sigma_n)


def test_block_test_deterministic(rng):
    data = rng.standard_normal((40, 8))
    part = BlockPartition((4, 4))
    first = block_test(data, part, 0.05)
    second = block_test(data, part, 0.05)
    assert first == second


def test_block_test_invalid_alpha(rng):
    data = rng.standard_normal((30, 4))
    for alpha in (0.0, 1.0, -1.0, float("nan")):
        with pytest.raises(InvalidAlpha):
            block_test(data, BlockPartition((2, 2)), alpha)


def test_block_test_warnings_fire():
    rng = np.random.default_rng(99)
    # p/n close to one
    report = block_test(rng.standard_normal((21, 20)), BlockPartition((10, 10)), 0.05)
    assert any("p/n" in w for w in report.assumption_warnings)
    # one block dominates
    report = block_test(rng.standard_normal((60, 20)), BlockPartition((19, 1)), 0.05)
    assert any("largest block" in w for w in report.assumption_warnings)
    # blocks tiny relative to the sample
    report = block_test(rng.standard_normal((500, 4)), BlockPartition((2, 2)), 0.05)
    assert any("min_i" in w for w in report.assumption_warnings)


def test_correlation_test_matches_block_unit_partition(rng):
    data = rng.standard_normal((60, 12))
    corr = correlation_test(data, 0.05)
    block = block_test(data, BlockPartition.unit(12), 0.05)
    assert corr.z == pytest.approx(block.z, abs=1e-10)
    assert corr.reject == block.reject


# ---------------------------------------------------------------------------
# stacks (k, n, p): bit for bit the values and errors of their slices
# ---------------------------------------------------------------------------

STACK_PARTITIONS = {
    "30x2": BlockPartition.uniform(30, 2),
    "20,10,30": BlockPartition((20, 10, 30)),
    "singletons": BlockPartition.unit(60),
    "25,5,25,5": BlockPartition((25, 5, 25, 5)),  # equal sizes apart: gathered by index
}


def correlated_stack(k=3, n=90, p=60):
    # compound-symmetric rows, as a power run draws them
    x = np.random.default_rng(k).standard_normal((k, n, p))
    return x @ compound_symmetry_sqrt(0.3, p).T


@pytest.mark.parametrize("label", list(STACK_PARTITIONS))
def test_log_vn_stack_equals_its_slices_bit_for_bit(label):
    # a sum over a strided diagonal runs in another order than a lone
    # matrix's pairwise sum, and moves blocks of 8 or more columns
    part = STACK_PARTITIONS[label]
    stack = correlated_stack()
    alone = [log_vn(x, part) for x in stack]
    assert all(isinstance(v, float) for v in alone)
    got = log_vn(stack, part)
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    assert np.array_equal(got, alone)
    assert np.array_equal(log_vn(stack[:1], part), alone[:1])


def test_log_det_correlation_stack_equals_its_slices_bit_for_bit():
    stack = correlated_stack()
    got = log_det_correlation(stack)
    assert got.shape == (3,)
    assert np.array_equal(got, [log_det_correlation(x) for x in stack])


@pytest.mark.parametrize("damage", ["dependent", "zero"])
def test_stack_raises_what_its_failing_slice_raises(damage):
    part = BlockPartition((20, 10, 30))
    stack = correlated_stack()
    if damage == "dependent":
        stack[1, :, 47] = -2.0 * stack[1, :, 35]  # both in the third block
    else:
        stack[1, :, 47] = 0.0
    with pytest.raises(DegenerateColumn) as alone:
        log_vn(stack[1], part)
    with pytest.raises(DegenerateColumn) as stacked:
        log_vn(stack, part)
    assert "column 47 " in str(alone.value)
    assert str(stacked.value) == str(alone.value)


def test_stack_raises_zero_variance_like_its_slice():
    stack = correlated_stack()
    stack[2, :, 5] = 0.0
    with pytest.raises(ZeroVariance):
        log_det_correlation(stack[2])
    with pytest.raises(ZeroVariance):
        log_det_correlation(stack)


# stacks as large as the Monte Carlo engine makes them: 8 at 100 x 60 and
# 9 at 90 x 60, drawn from the replication streams of each distribution
ENGINE_STACKS = {"8x100x60": (8, 100), "9x90x60": (9, 90)}
ENGINE_PARTITIONS = {**STACK_PARTITIONS, "scenario2": scenario_partition(2, 60)}


def engine_stack(k, n, dist, p=60, seed=23):
    return np.stack([draw_entries(entry_generator(seed, rep), n, p, DistributionSpec.parse(dist))
                     for rep in range(k)])


@pytest.mark.parametrize("dist", ["normal", "t15", "exp1"])
@pytest.mark.parametrize("shape", list(ENGINE_STACKS))
def test_engine_sized_stack_gives_each_slice_its_own_bits(shape, dist):
    white = engine_stack(*ENGINE_STACKS[shape], dist)
    root = compound_symmetry_sqrt(0.06, white.shape[-1])
    rooted = apply_root(white, root)
    assert np.array_equal(rooted, [apply_root(x, root) for x in white])
    for stack in (white, rooted):
        for label, part in ENGINE_PARTITIONS.items():
            assert np.array_equal(log_vn(stack, part), [log_vn(x, part) for x in stack]), label
        assert np.array_equal(log_det_correlation(stack),
                              [log_det_correlation(x) for x in stack])


@pytest.mark.parametrize("damage", ["dependent", "zero", "zero_variance"])
def test_engine_sized_stack_raises_its_last_slices_error(damage):
    stack = engine_stack(8, 100, "t15")
    if damage == "dependent":
        stack[-1, :, 47] = -2.0 * stack[-1, :, 35]  # both in the third block
    else:
        stack[-1, :, 47] = 0.0
    if damage == "zero_variance":
        statistic, error = log_det_correlation, ZeroVariance
    else:
        def statistic(x):
            return log_vn(x, BlockPartition((20, 10, 30)))
        error = DegenerateColumn
    with pytest.raises(error) as alone:
        statistic(stack[-1])
    with pytest.raises(error) as stacked:
        statistic(stack)
    assert str(stacked.value) == str(alone.value)
    if error is DegenerateColumn:
        assert "column 47 " in str(alone.value)


# The full-data QR owns the degenerate-column rule; the block terms are not
# checked again.  label: (statistic, damaged column, column it copies or
# None for a zero column), the damage in slice 5 of an engine stack of 8.
DEGENERATE_CASES = {
    "30x2_block_predecessor": ("30x2", 47, 46),
    "30x2_earlier_block": ("30x2", 47, 35),
    "scenario2_block_predecessor": ("scenario2", 47, 35),  # block of 31 from column 29
    "scenario2_earlier_block": ("scenario2", 47, 10),  # column 10 is a singleton block
    "scenario2_zero_singleton": ("scenario2", 10, None),
    "singletons_zero_singleton": ("singletons", 10, None),
    "correlation_earlier_block": ("correlation", 47, 35),
}


@pytest.mark.parametrize("case", list(DEGENERATE_CASES))
def test_degenerate_column_is_named_by_the_full_data_qr(case):
    label, col, source = DEGENERATE_CASES[case]
    stack = engine_stack(8, 100, "t15")
    stack[5, :, col] = 0.0 if source is None else -2.0 * stack[5, :, source]
    if label == "correlation":
        statistic = log_det_correlation
    else:
        def statistic(x):
            return log_vn(x, ENGINE_PARTITIONS[label])
    with pytest.raises(DegenerateColumn) as owner:
        incremental_quad_forms(stack[5])
    fault = "is identically zero" if source is None else "is numerically dependent"
    assert str(owner.value).startswith(f"column {col} {fault}")
    for x in (stack[5], stack):
        with pytest.raises(DegenerateColumn) as info:
            statistic(x)
        assert str(info.value) == str(owner.value)


# ---------------------------------------------------------------------------
# distributional shape at the reference regime (shared 10000-rep samples)
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("label", ["normal", "t15", "exp1"])
def test_null_standardization_ks(reference_null_run, label):
    result = reference_null_run(label)
    assert result.ks_statistic <= 0.03


@pytest.mark.slow
def test_variance_identity_diagnostic_regime():
    from hdlrt.oracle import sigma1_closed_form

    part = BlockPartition.uniform(30, 4)
    const = block_constants(200, part)
    closed = sigma1_closed_form(200, part)
    assert abs(closed - const.sigma_n ** 2) <= 0.05


# ---------------------------------------------------------------------------
# data the statistics refuse
# ---------------------------------------------------------------------------

def _with_cell(value):
    data = np.ones((10, 4))
    data[3, 2] = value
    return data


@pytest.mark.parametrize("data, error, message", [
    (np.ones(5), DimensionMismatch, "data must be 2-d (n x p), got shape (5,)"),
    (np.empty((0, 4)), DimensionMismatch, "data must be non-empty, got shape (0, 4)"),
    (_with_cell(np.nan), ValueError, "data contains non-finite entries"),
    (_with_cell(np.inf), ValueError, "data contains non-finite entries"),
], ids=["one_d", "no_rows", "nan_cell", "inf_cell"])
def test_block_test_refuses_data_that_is_not_a_finite_matrix(data, error, message):
    with pytest.raises(error) as exc:
        block_test(data, BlockPartition((2, 2)), 0.05)
    assert str(exc.value) == message


def test_log_vn_refuses_a_four_dimensional_array():
    with pytest.raises(DimensionMismatch) as exc:
        log_vn(np.ones((2, 2, 10, 4)), BlockPartition((2, 2)))
    assert str(exc.value) == ("data must be 2-d (n x p) or a stack (k x n x p), "
                              "got shape (2, 2, 10, 4)")
