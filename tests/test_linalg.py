"""Matrix-kernel tests: log-determinants, the oracle's sample covariance
and block extraction, and square roots (the closed-form compound-symmetry
root and the oracle's reference root)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlrt.errors import (
    DegenerateColumn,
    DimensionExceedsSample,
    DimensionMismatch,
    NotPositiveDefinite,
)
from hdlrt.linalg import (
    BlockPartition,
    _mirror,
    compound_symmetry_sqrt,
    incremental_quad_forms,
    log_det_cholesky,
    log_det_incremental,
)
from hdlrt.oracle import (
    NegativeEigenvalue,
    extract_block,
    lu_log_det,
    sample_covariance,
    symmetric_sqrt,
)


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    m = a @ a.T + d * scale * np.eye(d)
    return np.tril(m) + np.tril(m, -1).T


# ---------------------------------------------------------------------------
# BlockPartition
# ---------------------------------------------------------------------------

def test_partition_basic():
    part = BlockPartition((2, 3, 1))
    assert part.q == 3
    assert part.p == 6
    assert part.cumulative == (0, 2, 5, 6)


def test_partition_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BlockPartition((2, 0))
    with pytest.raises(ValueError):
        BlockPartition(())


@pytest.mark.parametrize("sizes, shown", [((2.7, 3), "2.7"), ((2.0, 3), "2.0"), (("2", 3), "'2'")],
                         ids=["fraction", "float", "str"])
def test_partition_rejects_non_integer_sizes(sizes, shown):
    # a float used to be truncated: (2.7, 3) became (2, 3)
    with pytest.raises(ValueError) as info:
        BlockPartition(sizes)
    assert str(info.value) == f"block size must be an integer, got {shown}"


def test_partition_takes_numpy_integers_as_ints():
    part = BlockPartition((np.int64(2), np.int32(3)))
    assert part.sizes == (2, 3)
    assert all(type(s) is int for s in part.sizes)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12))
def test_partition_cumulative_strictly_increasing(sizes):
    part = BlockPartition(tuple(sizes))
    cum = part.cumulative
    assert all(b > a for a, b in zip(cum, cum[1:]))
    assert cum[-1] == sum(sizes)


# ---------------------------------------------------------------------------
# sample_covariance (the oracle's explicitly formed covariance)
# ---------------------------------------------------------------------------

def test_sample_covariance_rank_one():
    got = sample_covariance(np.array([[1.0, 2.0]]))
    assert np.array_equal(got, np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_sample_covariance_zero_data():
    got = sample_covariance(np.zeros((5, 3)))
    assert np.array_equal(got, np.zeros((3, 3)))


def test_sample_covariance_matches_double_loop():
    data = np.array([[1.0, -2.0], [3.0, 0.0], [-1.0, 4.0], [2.0, 2.0]])
    n, p = data.shape
    expected = np.zeros((p, p))
    for k in range(n):  # brute-force outer-product summation
        for i in range(p):
            for j in range(p):
                expected[i, j] += data[k, i] * data[k, j]
    expected /= n
    got = sample_covariance(data)
    assert np.allclose(got, expected, rtol=0, atol=1e-14)
    assert np.array_equal(got, got.T)


def test_sample_covariance_no_centering():
    # constant nonzero data has nonzero second moment (no mean removal)
    got = sample_covariance(np.full((4, 2), 3.0))
    assert np.allclose(got, np.full((2, 2), 9.0))


# ---------------------------------------------------------------------------
# log_det_cholesky
# ---------------------------------------------------------------------------

def test_log_det_cholesky_identity():
    assert log_det_cholesky(np.eye(5)) == 0.0


def test_log_det_cholesky_diagonal():
    assert log_det_cholesky(np.diag([2.0, 8.0])) == pytest.approx(math.log(16.0), abs=1e-12)


def test_log_det_cholesky_matches_lu(rng):
    a = random_spd(rng, 6)
    expected, sign = lu_log_det(a)
    assert sign == 1
    assert log_det_cholesky(a) == pytest.approx(expected, rel=1e-10)


def test_log_det_cholesky_recovers_factor(rng):
    d = 8
    lower = np.tril(rng.standard_normal((d, d)), -1)
    np.fill_diagonal(lower, np.exp(rng.uniform(-0.5, 0.5, d)))
    a = lower @ lower.T
    expected = 2.0 * np.sum(np.log(np.diagonal(lower)))
    assert log_det_cholesky((a + a.T) / 2) == pytest.approx(expected, abs=1e-12)


def test_log_det_cholesky_rejects_singular(rng):
    data = rng.standard_normal((3, 5))  # p >= n, singular covariance
    with pytest.raises(NotPositiveDefinite):
        log_det_cholesky(sample_covariance(data))


def test_log_det_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        log_det_cholesky(np.diag([1.0, -1.0]))


def test_log_det_cholesky_stack_gives_each_slice_its_own_bits(rng):
    stack = np.stack([random_spd(rng, 7, scale) for scale in (0.1, 1.0, 5.0, 0.01)])
    values = log_det_cholesky(stack)
    assert isinstance(values, np.ndarray) and values.shape == (4,)
    assert values.tolist() == [log_det_cholesky(m) for m in stack]
    assert type(log_det_cholesky(stack[0])) is float


def test_log_det_cholesky_stack_raises_for_one_bad_slice(rng):
    stack = np.stack([random_spd(rng, 3), np.diag([1.0, -1.0, 1.0])])
    with pytest.raises(NotPositiveDefinite):
        log_det_cholesky(stack)
    asymmetric = stack.copy()
    asymmetric[0, 0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        log_det_cholesky(asymmetric)
    with pytest.raises(DimensionMismatch):
        log_det_cholesky(np.ones((2, 2, 3)))
    with pytest.raises(DimensionMismatch):
        log_det_cholesky(np.ones((1, 2, 2, 2)))


def test_mirror_keeps_a_symmetric_input_and_fixes_an_asymmetric_one(rng):
    g = rng.standard_normal((30, 6))
    scatter = g.T @ g
    assert _mirror(scatter) is scatter
    skewed = scatter.copy()
    skewed[0, 5] += 1e-9
    mirrored = _mirror(skewed)
    assert np.array_equal(mirrored, mirrored.T)
    assert np.array_equal(np.tril(mirrored), np.tril(skewed))


# ---------------------------------------------------------------------------
# incremental log-determinant
# ---------------------------------------------------------------------------

def test_incremental_orthogonal_columns():
    data = np.zeros((4, 2))
    data[0, 0] = 1.0
    data[1, 0] = 1.0  # norm sqrt(2)
    data[2, 1] = 1.0
    data[3, 1] = np.sqrt(2.0)  # norm sqrt(3)
    got = log_det_incremental(data)
    assert got == pytest.approx(math.log(2.0) + math.log(3.0), rel=1e-14)


def test_incremental_matches_cholesky_grid():
    rng = np.random.default_rng(7)
    for n, p in [(10, 4), (50, 30), (120, 80), (200, 150)]:
        data = rng.standard_normal((n, p))
        via_chol = log_det_cholesky(sample_covariance(data) * n)
        via_inc = log_det_incremental(data)
        assert via_inc == pytest.approx(via_chol, rel=1e-8)


def test_incremental_fixed_integer_data_matches_lu():
    data = np.array([
        [2.0, 1.0, 0.0],
        [1.0, 3.0, 1.0],
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 1.0],
        [2.0, 2.0, 3.0],
    ])
    for start, stop in [(0, 3), (0, 2), (1, 3)]:
        cols = data[:, start:stop]
        gram = cols.T @ cols
        expected, sign = lu_log_det((gram + gram.T) / 2)
        assert sign == 1
        assert log_det_incremental(cols) == pytest.approx(expected, rel=1e-10)


def test_incremental_quad_forms_are_positive(rng):
    data = rng.standard_normal((30, 12))
    quad = incremental_quad_forms(data)
    assert quad.shape == (12,)
    assert np.all(quad > 0)


def test_incremental_detects_duplicate_column(rng):
    col = rng.standard_normal(20)
    data = np.column_stack([col, 2.0 * col])
    with pytest.raises(DegenerateColumn, match="column 1 is numerically dependent"):
        incremental_quad_forms(data)


def test_incremental_detects_zero_column():
    data = np.zeros((5, 1))
    with pytest.raises(DegenerateColumn, match="column 0 is identically zero"):
        incremental_quad_forms(data)


def test_incremental_range_wider_than_sample(rng):
    data = rng.standard_normal((3, 5))
    with pytest.raises(DimensionExceedsSample):
        incremental_quad_forms(data)


def test_incremental_full_vs_oracle_determinant_scaling():
    # det(sample covariance) = exp(logdet_incremental) / n^p, checked in logs
    rng = np.random.default_rng(42)
    for n, p in [(20, 5), (60, 40), (200, 150)]:
        data = rng.standard_normal((n, p))
        lhs = log_det_incremental(data) - p * math.log(n)
        rhs, sign = lu_log_det(sample_covariance(data))
        assert sign == 1
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# extract_block (the oracle's principal-submatrix helper)
# ---------------------------------------------------------------------------

def test_extract_block_singletons():
    a = np.array([[1.0, 2.0], [2.0, 5.0]])
    part = BlockPartition((1, 1))
    assert np.array_equal(extract_block(a, part, 1), np.array([[5.0]]))


def test_extract_block_whole_matrix(rng):
    a = random_spd(rng, 4)
    part = BlockPartition((4,))
    assert np.array_equal(extract_block(a, part, 0), a)


def test_extract_block_two_by_two():
    a = np.arange(16, dtype=float).reshape(4, 4)
    a = (a + a.T) / 2
    part = BlockPartition((2, 2))
    first = extract_block(a, part, 0)
    second = extract_block(a, part, 1)
    for i in range(2):
        for j in range(2):
            assert first[i, j] == a[i, j]
            assert second[i, j] == a[2 + i, 2 + j]


def test_extract_block_bad_index(rng):
    a = random_spd(rng, 4)
    with pytest.raises(IndexError):
        extract_block(a, BlockPartition((2, 2)), 2)


def test_extract_block_size_mismatch(rng):
    a = random_spd(rng, 4)
    with pytest.raises(DimensionMismatch):
        extract_block(a, BlockPartition((2, 3)), 0)


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_extract_block_tiles_the_diagonal(sizes, seed):
    part = BlockPartition(tuple(sizes))
    a = random_spd(np.random.default_rng(seed), part.p)
    diag = []
    for i in range(part.q):
        diag.extend(np.diagonal(extract_block(a, part, i)))
    assert np.array_equal(np.array(diag), np.diagonal(a))


# ---------------------------------------------------------------------------
# symmetric square roots: the oracle's eigendecomposition root, then the
# closed-form compound-symmetry root checked against it
# ---------------------------------------------------------------------------

def test_symmetric_sqrt_identity():
    assert np.allclose(symmetric_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_symmetric_sqrt_diagonal():
    got = symmetric_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(got, np.diag([2.0, 3.0]), atol=1e-12)


def test_symmetric_sqrt_compound_symmetry_closed_form():
    delta, p = 0.1, 4
    target = (1 - delta) * np.eye(p) + delta * np.ones((p, p))
    got = symmetric_sqrt(target)
    a = math.sqrt(0.9)
    b = (math.sqrt(1.3) - math.sqrt(0.9)) / 4
    expected = a * np.eye(p) + b * np.ones((p, p))
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("d", [2, 10, 40, 100])
def test_symmetric_sqrt_squares_back(d):
    a = random_spd(np.random.default_rng(d), d, scale=0.3)
    root = symmetric_sqrt(a)
    assert np.array_equal(root, root.T)
    err = np.max(np.abs(root @ root - a))
    assert err <= 1e-10 * np.max(np.abs(a))


def test_symmetric_sqrt_rejects_indefinite():
    with pytest.raises(NegativeEigenvalue):
        symmetric_sqrt(np.diag([1.0, -0.5]))


def test_compound_symmetry_sqrt_delta_zero():
    assert np.array_equal(compound_symmetry_sqrt(0.0, 5), np.eye(5))


def test_compound_symmetry_sqrt_squares_to_target():
    root = compound_symmetry_sqrt(0.5, 2)
    a = math.sqrt(0.5)
    assert root[0, 0] == pytest.approx(a + (math.sqrt(1.5) - a) / 2, abs=1e-15)
    target = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.max(np.abs(root @ root - target)) < 1e-12


@given(st.floats(min_value=0.0, max_value=0.99), st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_compound_symmetry_sqrt_vs_eigh(delta, p):
    fast = compound_symmetry_sqrt(delta, p)
    target = (1 - delta) * np.eye(p) + delta * np.ones((p, p))
    assert np.max(np.abs(fast @ fast - target)) < 1e-12
    slow = symmetric_sqrt(target)
    assert np.max(np.abs(fast - slow)) < 1e-8


def test_compound_symmetry_sqrt_rejects_delta_one_and_empty_dimension():
    with pytest.raises(ValueError, match=r"^delta must be in \[0, 1\), got 1\.0$"):
        compound_symmetry_sqrt(1.0, 4)
    with pytest.raises(ValueError, match=r"^p must be positive, got 0$"):
        compound_symmetry_sqrt(0.1, 0)


def test_log_det_cholesky_rejects_an_infinite_entry():
    # symmetric, so the finiteness check, not the symmetry check, refuses it
    m = np.eye(3)
    m[1, 1] = np.inf
    with pytest.raises(NotPositiveDefinite, match=r"^matrix contains non-finite entries$"):
        log_det_cholesky(m)


def test_log_det_cholesky_rejects_a_nan_entry():
    # NaN != NaN, so the symmetry check used to refuse it as not symmetric
    m = np.eye(3)
    m[0, 2] = m[2, 0] = np.nan
    with pytest.raises(NotPositiveDefinite, match=r"^matrix contains non-finite entries$"):
        log_det_cholesky(m)
