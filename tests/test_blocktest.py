"""Block-diagonal and correlation-determinant test: statistics, constants,
decision rule, and distributional shape."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlrt.blocktest import (
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
    InvalidAlpha,
    InvalidDesign,
    ZeroVariance,
)
from hdlrt.linalg import BlockPartition, log_det_blocks, log_det_incremental
from hdlrt.oracle import naive_log_vn
from hdlrt.sampling import normal_cdf, normal_quantile

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
            lo, hi = part.block_range(i)
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
    per_block = sum(log_det_incremental(data, *part.block_range(i)) for i in range(part.q))
    expected = log_det_incremental(data) - per_block
    got = log_vn(data, part)
    assert got == pytest.approx(expected, rel=1e-10)
    assert got == pytest.approx(naive_log_vn(data, part), rel=1e-10)


def test_log_vn_duplicate_column_inside_block(rng):
    part = BlockPartition((3, 1, 2, 1, 5))
    data = rng.standard_normal((30, part.p))
    lo, hi = part.block_range(4)
    data[:, lo + 2] = -3.0 * data[:, lo]
    with pytest.raises(DegenerateColumn):
        log_vn(data, part)
    with pytest.raises(DegenerateColumn, match=f"column {lo + 2} "):
        log_det_blocks(data, part)


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
    report = _standardize(u * 2.0 + 1.0, 1.0, 2.0, alpha, ())  # z == u exactly
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
    assert report.mu == const.mu_n
    assert report.sigma == const.sigma_n
    assert report.z == (report.log_statistic - report.mu) / report.sigma
    assert report.p_value == normal_cdf(report.z)
    assert report.alpha == 0.05
    assert report.assumption_warnings == ()


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
