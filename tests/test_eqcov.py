"""Equality-of-covariances test: statistic, constants, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlrt.eqcov import (
    GroupedSample,
    eqcov_constants,
    eqcov_test,
    log_lambda2,
)
from hdlrt.errors import (
    DimensionExceedsSample,
    DimensionMismatch,
    InvalidDesign,
)
from hdlrt.oracle import naive_log_lambda2
from hdlrt.sampling import normal_quantile

mpmath = pytest.importorskip("mpmath")


def high_precision_eqcov_constants(n_sizes, p):
    with mpmath.workdps(50):
        pp = mpmath.mpf(p)
        n = mpmath.mpf(sum(n_sizes))
        mu = n * (n - pp - mpmath.mpf(1) / 2) * mpmath.log(1 - pp / n)
        mu -= sum(mpmath.mpf(nj) * (nj - pp - mpmath.mpf(1) / 2)
                  * mpmath.log(1 - pp / mpmath.mpf(nj)) for nj in n_sizes)
        s2 = 2 * (mpmath.log(1 - pp / n)
                  - sum((mpmath.mpf(nj) / n) ** 2 * mpmath.log(1 - pp / mpmath.mpf(nj))
                        for nj in n_sizes))
        return float(mu), float(mpmath.sqrt(s2))


def well_conditioned_invertible(rng, p, spread=2.0):
    """Random invertible map with singular values in [1/spread, spread]."""
    left, _ = np.linalg.qr(rng.standard_normal((p, p)))
    right, _ = np.linalg.qr(rng.standard_normal((p, p)))
    values = np.exp(rng.uniform(-math.log(spread), math.log(spread), p))
    return left @ np.diag(values) @ right


# ---------------------------------------------------------------------------
# GroupedSample
# ---------------------------------------------------------------------------

def test_grouped_sample_properties(rng):
    s = GroupedSample((rng.standard_normal((10, 3)), rng.standard_normal((12, 3))))
    assert s.q == 2
    assert s.p == 3
    assert s.n_sizes == (10, 12)
    assert s.n == 22


def test_grouped_sample_rejects_single_group(rng):
    with pytest.raises(InvalidDesign):
        GroupedSample((rng.standard_normal((10, 3)),))


def test_grouped_sample_rejects_mismatched_p(rng):
    with pytest.raises(DimensionMismatch):
        GroupedSample((rng.standard_normal((10, 3)), rng.standard_normal((10, 4))))


def test_grouped_sample_rejects_small_group(rng):
    with pytest.raises(DimensionExceedsSample):
        GroupedSample((rng.standard_normal((10, 3)), rng.standard_normal((3, 3))))


# ---------------------------------------------------------------------------
# log_lambda2
# ---------------------------------------------------------------------------

def test_log_lambda2_zero_for_copied_group(rng):
    g = rng.standard_normal((15, 4))
    assert log_lambda2(GroupedSample((g, g.copy()))) == 0.0


def test_log_lambda2_small_instance_matches_lu_oracle():
    g1 = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [2.0, -1.0]])
    g2 = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 1.0], [1.0, -1.0], [3.0, 1.0]])
    sample = GroupedSample((g1, g2))
    assert log_lambda2(sample) == pytest.approx(naive_log_lambda2(sample), rel=1e-10)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_log_lambda2_never_positive(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 5))
    sizes = [int(v) for v in rng.integers(p + 1, p + 15, int(rng.integers(2, 5)))]
    sample = GroupedSample(tuple(rng.standard_normal((nj, p)) for nj in sizes))
    assert log_lambda2(sample) <= 1e-12


def test_log_lambda2_routes_agree(rng):
    # the Cholesky route against the LU oracle, three groups of unequal size
    sample = GroupedSample(tuple(rng.standard_normal((nj, 6)) for nj in (20, 30, 25)))
    assert log_lambda2(sample) == pytest.approx(naive_log_lambda2(sample), rel=1e-8)


def test_log_lambda2_transform_invariance(rng):
    sample = GroupedSample(tuple(rng.standard_normal((nj, 5)) for nj in (30, 40)))
    base = eqcov_test(sample, 0.05)
    for _ in range(5):
        m = well_conditioned_invertible(rng, 5)
        mapped = GroupedSample(tuple(g @ m.T for g in sample.groups))
        assert eqcov_test(mapped, 0.05).z == pytest.approx(base.z, abs=1e-8)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_eqcov_constants_reference_values():
    # frozen from the 50-digit evaluation (two groups of 100, p = 60)
    const = eqcov_constants((100, 100), 60)
    assert const.mu_n == pytest.approx(-2712.5341540848083567, rel=1e-13)
    assert const.sigma_n == pytest.approx(0.4504895603637117664, rel=1e-13)
    live_mu, live_sigma = high_precision_eqcov_constants((100, 100), 60)
    assert const.mu_n == pytest.approx(live_mu, rel=1e-13)
    assert const.sigma_n == pytest.approx(live_sigma, rel=1e-13)


def test_eqcov_constants_permutation_invariant():
    a = eqcov_constants((40, 80, 120), 20)
    b = eqcov_constants((120, 40, 80), 20)
    assert a.mu_n == pytest.approx(b.mu_n, rel=1e-14)
    assert a.sigma_n == pytest.approx(b.sigma_n, rel=1e-14)


@given(st.integers(min_value=2, max_value=50), st.data())
@settings(max_examples=60, deadline=None)
def test_eqcov_sigma_positive_and_bounded_below(q, data):
    p = data.draw(st.integers(min_value=1, max_value=30))
    sizes = data.draw(st.lists(st.integers(min_value=p + 1, max_value=4 * p + 1),
                               min_size=q, max_size=q))
    const = eqcov_constants(tuple(sizes), p)
    n = sum(sizes)
    assert const.sigma_n > 0.0
    assert n * n * const.sigma_n ** 2 >= p * p * (q - 1) / 2.0


def test_eqcov_constants_rejects_bad_designs():
    with pytest.raises(InvalidDesign):
        eqcov_constants((30,), 5)
    with pytest.raises(InvalidDesign):
        eqcov_constants((30, 5), 5)  # one group too small


# ---------------------------------------------------------------------------
# eqcov_test
# ---------------------------------------------------------------------------

def test_eqcov_report_consistency(rng):
    sample = GroupedSample(tuple(rng.standard_normal((nj, 4)) for nj in (25, 30)))
    report = eqcov_test(sample, 0.1)
    const = eqcov_constants(sample.n_sizes, sample.p)
    assert report.log_statistic == 2.0 * log_lambda2(sample)
    assert report.mu == const.mu_n
    assert report.sigma == sample.n * const.sigma_n
    assert report.z == (report.log_statistic - report.mu) / report.sigma
    assert report.reject == (report.p_value <= 0.1)


def test_eqcov_boundary_z_rejects():
    from hdlrt.blocktest import _standardize

    alpha = 0.05
    u = normal_quantile(alpha)
    report = _standardize(u * 3.0 - 2.0, -2.0, 3.0, alpha, ())
    assert report.z == u
    assert report.reject is True


def test_eqcov_warning_for_large_ratio(rng):
    sample = GroupedSample(tuple(rng.standard_normal((21, 20)) for _ in range(2)))
    report = eqcov_test(sample, 0.05)
    assert any("p/n_j" in w for w in report.assumption_warnings)
