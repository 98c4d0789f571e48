"""Oracle self-tests and oracle-vs-main cross-checks."""

import math

import numpy as np
import pytest

from hdlrt.blocktest import block_constants, log_vn
from hdlrt.linalg import BlockPartition, incremental_quad_forms, log_det_cholesky
from hdlrt.oracle import (
    SingularMatrix,
    extract_block,
    lu_log_det,
    martingale_trace,
    naive_log_vn,
    power_mean_shift,
    sigma1_closed_form,
)
from hdlrt.sampling import DistributionSpec, draw_entries, entry_generator


def random_partition(rng, p, max_q=6):
    q = int(rng.integers(2, min(p, max_q) + 1))
    cuts = np.sort(rng.choice(np.arange(1, p), size=q - 1, replace=False))
    edges = np.concatenate(([0], cuts, [p]))
    return BlockPartition(tuple(int(b - a) for a, b in zip(edges, edges[1:])))


# ---------------------------------------------------------------------------
# lu_log_det
# ---------------------------------------------------------------------------

def test_lu_identity():
    value, sign = lu_log_det(np.eye(4))
    assert value == 0.0
    assert sign == 1


def test_lu_negative_diagonal():
    value, sign = lu_log_det(np.diag([-2.0, 3.0]))
    assert value == pytest.approx(math.log(6.0), abs=1e-14)
    assert sign == -1


def test_lu_row_swap_sign():
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    value, sign = lu_log_det(perm)
    assert value == pytest.approx(0.0, abs=1e-14)
    assert sign == -1


def test_lu_matches_cholesky(rng):
    a = rng.standard_normal((8, 8))
    spd = a @ a.T + 8.0 * np.eye(8)
    spd = np.tril(spd) + np.tril(spd, -1).T
    value, sign = lu_log_det(spd)
    assert sign == 1
    assert value == pytest.approx(log_det_cholesky(spd), rel=1e-10)


def test_lu_singular():
    with pytest.raises(SingularMatrix):
        lu_log_det(np.ones((3, 3)))


def test_lu_not_symmetric_is_fine(rng):
    a = rng.standard_normal((5, 5))
    value, sign = lu_log_det(a)
    expected_sign, expected_log = np.linalg.slogdet(a)
    assert sign == int(expected_sign)
    assert value == pytest.approx(expected_log, rel=1e-10)


# ---------------------------------------------------------------------------
# naive_log_vn
# ---------------------------------------------------------------------------

def test_naive_matches_main_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(12, 80))
        p = int(rng.integers(4, min(40, n - 1)))
        part = random_partition(rng, p)
        data = rng.standard_normal((n, p))
        a = log_vn(data, part)
        b = naive_log_vn(data, part)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


def test_naive_single_block(rng):
    data = rng.standard_normal((15, 5))
    assert abs(naive_log_vn(data, BlockPartition((5,)))) <= 1e-12


# ---------------------------------------------------------------------------
# martingale diagnostics
# ---------------------------------------------------------------------------

def test_trace_quad_forms_match_incremental(rng):
    data = rng.standard_normal((40, 12))
    part = BlockPartition((4, 4, 4))
    trace = martingale_trace(data, part)
    full = incremental_quad_forms(data)
    assert np.allclose(trace.quad_forms, full, rtol=1e-8)
    for i in range(part.q):
        lo, hi = part.cumulative[i:i + 2]
        block = incremental_quad_forms(data[:, lo:hi])
        assert np.allclose(trace.block_quad_forms[lo:hi], block, rtol=1e-8)


def test_trace_x_terms_positive_shift(rng):
    data = rng.standard_normal((50, 9))
    trace = martingale_trace(data, BlockPartition((3, 3, 3)))
    assert np.all(1.0 + trace.x_terms > 0.0)
    assert np.all(1.0 + trace.xj_terms > 0.0)
    assert len(trace.x_terms) == 6  # columns beyond the first block


def test_sigma1_sum_closed_form_value():
    # hand evaluation for partition (1, 1), n = 4: single term at i = 2,
    # 2 * (1/(n-1) - 1/n)
    part = BlockPartition((1, 1))
    assert sigma1_closed_form(4, part) == pytest.approx(2.0 * (1.0 / 3.0 - 1.0 / 4.0), abs=1e-15)


def test_sigma1_sum_approaches_sigma_squared():
    part = BlockPartition.uniform(30, 4)
    const = block_constants(200, part)
    assert abs(sigma1_closed_form(200, part) - const.sigma_n ** 2) <= 0.05


def test_x_terms_mean_zero_over_replications():
    # martingale differences have zero conditional mean; the raw X_i do too
    part = BlockPartition((4, 4, 4))
    n, p, reps = 60, 12, 2000
    dist = DistributionSpec.normal()
    picks = [0, 3, 7]  # indices into the x_terms vector
    sums = np.zeros(len(picks))
    sums_sq = np.zeros(len(picks))
    for r in range(reps):
        data = draw_entries(entry_generator(606, r), n, p, dist)
        x = martingale_trace(data, part).x_terms[picks]
        sums += x
        sums_sq += x * x
    means = sums / reps
    sds = np.sqrt(sums_sq / reps - means ** 2)
    for mean, sd in zip(means, sds):
        assert abs(mean) <= 4.0 * sd / math.sqrt(reps)


# ---------------------------------------------------------------------------
# power_mean_shift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes", [(1,) * 7, (3, 1, 4), (2, 5)])
@pytest.mark.parametrize("delta", [0.0, 0.03, 0.4])
def test_power_mean_shift_matches_lu_of_explicit_covariance(sizes, delta):
    part = BlockPartition(sizes)
    cov = (1.0 - delta) * np.eye(part.p) + delta * np.ones((part.p, part.p))
    blocks = sum(lu_log_det(extract_block(cov, part, i))[0] for i in range(part.q))
    assert power_mean_shift(part, delta) == pytest.approx(lu_log_det(cov)[0] - blocks,
                                                          rel=1e-12, abs=1e-13)
