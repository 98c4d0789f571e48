"""Likelihood-ratio test for a block-diagonal covariance matrix, and its
specialization to a diagonal covariance via the sample correlation
determinant.

The statistic is log V_n = log|S| - sum_i log|S_ii| for the (uncentered)
sample covariance S and its diagonal blocks S_ii.  Under the null it is
asymptotically normal with closed-form centering mu_n and scale sigma_n,
and the test rejects for small values: log V_n <= sigma_n * u_alpha + mu_n
with u_alpha the standard normal alpha-quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionExceedsSample,
    DimensionMismatch,
    InvalidAlpha,
    InvalidDesign,
    ZeroVariance,
)
from .linalg import (
    BlockPartition,
    _as_data_matrix,
    log_det_blocks,
    log_det_cholesky,  # unused here; perfbench/tracing.py WRAPPED wraps this name
    log_det_incremental,
)
from .sampling import normal_cdf

_EPS = float(np.finfo(np.float64).eps)

# Heuristic thresholds for the asymptotic-regime warnings.  The normal
# approximation assumes p/n bounded away from 1, no block dominating the
# dimension, and min_i p_i * q / n bounded away from 0; these are soft
# conditions, so violations warn instead of failing.
_RATIO_WARN = 0.95
_MAX_BLOCK_FRACTION = 0.9
_MIN_BLOCK_RATE = 0.01


@dataclass(frozen=True)
class BlockTestConstants:
    """Centering and scale of the null normal approximation to log V_n."""

    mu_n: float
    sigma_n: float
    n: int
    p: int
    partition: BlockPartition


@dataclass(frozen=True)
class TestReport:
    """Outcome of a covariance-structure test.

    ``mu`` and ``sigma`` are the centering and scale of the stored
    ``log_statistic``, so ``z = (log_statistic - mu) / sigma`` holds for
    every test kind; ``p_value = Phi(z)`` and the test rejects (one-sided,
    lower tail) exactly when ``p_value <= alpha``.
    """

    log_statistic: float
    mu: float
    sigma: float
    z: float
    p_value: float
    alpha: float
    reject: bool
    assumption_warnings: tuple[str, ...] = ()


def _validate_alpha(alpha: float) -> float:
    a = float(alpha)
    if math.isnan(a) or not 0.0 < a < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha!r}")
    return a


def _standardize(log_statistic: float, mu: float, sigma: float, alpha: float,
                 warnings: tuple[str, ...]) -> TestReport:
    z = (log_statistic - mu) / sigma
    p_value = normal_cdf(z)
    return TestReport(
        log_statistic=log_statistic,
        mu=mu,
        sigma=sigma,
        z=z,
        p_value=p_value,
        alpha=alpha,
        reject=p_value <= alpha,
        assumption_warnings=warnings,
    )


def log_vn(data, part: BlockPartition) -> float:
    """Log of the determinant-ratio statistic V_n = |S| / prod_i |S_ii|.

    Always <= 0 (Fischer's inequality), with equality exactly when the
    off-diagonal blocks of the sample covariance vanish.

    Computed by the projection recursion: the log-determinant of the full
    scatter matrix is accumulated from the residual quadratic forms of one
    Householder QR of the data, and the block terms from one batched QR per
    distinct block size, without forming the p x p covariance.  The LU
    reference for the test suite is ``hdlrt.oracle.naive_log_vn``.
    """
    a = _as_data_matrix(data)
    n, p = a.shape
    if part.p != p:
        raise DimensionMismatch(f"partition p={part.p} does not match data p={p}")
    if p >= n:
        raise DimensionExceedsSample(f"the statistic requires p < n, got p={p}, n={n}")
    return log_det_incremental(a) - log_det_blocks(a, part)


def block_constants(n: int, part: BlockPartition) -> BlockTestConstants:
    """Closed-form centering mu_n and scale sigma_n of log V_n under the null.

    mu_n = sum_i (n - p_i - 1/2) log(1 - p_i/n) - (n - p - 1/2) log(1 - p/n)
    sigma_n^2 = 2 { sum_i log(1 - p_i/n) - log(1 - p/n) }

    Requires 2 <= p < n and q >= 2; sigma_n^2 is strictly positive there.
    """
    n = int(n)
    p, q = part.p, part.q
    if q < 2:
        raise InvalidDesign(f"at least two blocks required, got q={q}")
    if not 2 <= p < n:
        raise InvalidDesign(f"requires 2 <= p < n, got p={p}, n={n}")
    sizes = np.asarray(part.sizes, dtype=np.float64)
    block_logs = np.log1p(-sizes / n)
    full_log = math.log1p(-p / n)
    mu = float(np.sum((n - sizes - 0.5) * block_logs)) - (n - p - 0.5) * full_log
    sigma_sq = 2.0 * (float(np.sum(block_logs)) - full_log)
    return BlockTestConstants(mu_n=mu, sigma_n=math.sqrt(sigma_sq), n=n, p=p, partition=part)


def _regime_warnings(n: int, part: BlockPartition) -> tuple[str, ...]:
    notes = []
    ratio = part.p / n
    if ratio > _RATIO_WARN:
        notes.append(
            f"p/n = {ratio:.3f} exceeds {_RATIO_WARN}; the normal approximation "
            "degrades as p/n approaches 1"
        )
    if max(part.sizes) > _MAX_BLOCK_FRACTION * part.p:
        notes.append(
            f"largest block holds {max(part.sizes)} of {part.p} coordinates; the "
            "approximation assumes no block dominates the dimension"
        )
    if min(part.sizes) * part.q / n < _MIN_BLOCK_RATE:
        notes.append(
            f"min_i p_i * q / n = {min(part.sizes) * part.q / n:.4f} is below "
            f"{_MIN_BLOCK_RATE}; blocks are very small relative to the sample"
        )
    return tuple(notes)


def block_test(data, part: BlockPartition, alpha: float) -> TestReport:
    """Run the block-diagonal covariance test at level ``alpha``.

    One-sided lower rejection: reject when Phi(z) <= alpha, equivalently
    when log V_n <= sigma_n * u_alpha + mu_n.  Regime violations populate
    ``assumption_warnings`` instead of raising.
    """
    alpha = _validate_alpha(alpha)
    a = _as_data_matrix(data)
    const = block_constants(a.shape[0], part)
    statistic = log_vn(a, part)
    return _standardize(statistic, const.mu_n, const.sigma_n, alpha,
                        _regime_warnings(const.n, part))


def log_det_correlation(data) -> float:
    """Log-determinant of the (uncentered) sample correlation matrix.

    Algebraically identical to ``log_vn`` with the all-singleton
    partition, and computed through it.

    Raises ZeroVariance if a diagonal entry of the sample covariance is
    zero to within a relative tolerance.
    """
    a = _as_data_matrix(data)
    n, p = a.shape
    if p >= n:
        raise DimensionExceedsSample(f"requires p < n, got p={p}, n={n}")
    diag = np.einsum("ij,ij->j", a, a) / n
    top = float(np.max(diag))
    if top <= 0.0 or bool(np.any(diag <= _EPS * top)):
        raise ZeroVariance("a variable has (numerically) zero variance")
    return log_vn(a, BlockPartition.unit(p))


def correlation_constants(n: int, p: int) -> BlockTestConstants:
    """Centering and scale for the correlation-determinant statistic.

    mu_n = p (n - 3/2) log(1 - 1/n) - (n - p - 1/2) log(1 - p/n)
    sigma_n^2 = 2 { p log(1 - 1/n) - log(1 - p/n) }

    This is the all-singleton specialization of ``block_constants``; the
    two agree to rounding.
    """
    n, p = int(n), int(p)
    if not 2 <= p < n:
        raise InvalidDesign(f"requires 2 <= p < n, got p={p}, n={n}")
    unit_log = math.log1p(-1.0 / n)
    full_log = math.log1p(-p / n)
    mu = p * (n - 1.5) * unit_log - (n - p - 0.5) * full_log
    sigma_sq = 2.0 * (p * unit_log - full_log)
    return BlockTestConstants(mu_n=mu, sigma_n=math.sqrt(sigma_sq), n=n, p=p,
                              partition=BlockPartition.unit(p))


def correlation_test(data, alpha: float) -> TestReport:
    """Test for a diagonal covariance via the sample correlation determinant."""
    alpha = _validate_alpha(alpha)
    a = _as_data_matrix(data)
    n, p = a.shape
    const = correlation_constants(n, p)
    statistic = log_det_correlation(a)
    return _standardize(statistic, const.mu_n, const.sigma_n, alpha,
                        _regime_warnings(n, const.partition))
