"""Likelihood-ratio test for equality of covariance matrices across groups.

For groups j = 1..q with scatter matrices A_j = sum_k y_jk y_jk^T and
pooled scatter A = sum_j A_j, the statistic is

    log L = (1/2) [ sum_j n_j log|A_j / n_j| - n log|A / n| ] <= 0,

and 2 (log L - mu_n) / (n sigma_n) is asymptotically standard normal
under the null of equal covariances.  The test rejects on the lower tail,
mirroring the block-diagonal test's rule.

Caveat: the closed-form centering is exact only up to a kurtosis-sensitive
term of order (nu4 - 3) p (q - 1) / 2, which is comparable to the scale
n sigma_n when p/n is not small.  For data whose underlying entries are
strongly non-normal (e.g. exponential-like, nu4 = 9) the test over-rejects
noticeably; see the README's limitations section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionExceedsSample, DimensionMismatch, InvalidAlpha, InvalidDesign
from .errors import _as_alpha, _as_integer, _as_integers
from .blocktest import _RATIO_WARN, NullConstants, TestReport, _standardize
# log_det_incremental is unused here; perfbench/tracing.py WRAPPED wraps this name
from .linalg import _as_data_matrix, _mirror, log_det_cholesky, log_det_incremental


@dataclass(frozen=True, eq=False)
class GroupedSample:
    """q >= 2 groups of observations sharing the dimension p, each with
    more observations than dimensions, given as a sequence of data
    matrices.  Each group is held to the data rule with the pooled sample
    size, so that the pooled scatter stays finite too."""

    groups: tuple[np.ndarray, ...]

    def __post_init__(self):
        if isinstance(self.groups, str) or not np.iterable(self.groups):
            raise DimensionMismatch(
                f"groups must be a sequence of data matrices, got {self.groups!r}"
            )
        arrays = [np.asarray(g, dtype=np.float64) for g in self.groups]
        # the pooled scatter sums over the rows of every group
        rows = sum(len(a) for a in arrays if a.ndim == 2)
        groups = tuple(_as_data_matrix(a, rows=rows) for a in arrays)
        if len(groups) < 2:
            raise InvalidDesign(f"at least two groups required, got {len(groups)}")
        p = groups[0].shape[1]
        for j, g in enumerate(groups):
            if g.shape[1] != p:
                raise DimensionMismatch(
                    f"group {j} has p={g.shape[1]}, expected {p} as in group 0"
                )
            if g.shape[0] <= p:
                raise DimensionExceedsSample(
                    f"group {j} needs n_j > p, got n_j={g.shape[0]}, p={p}"
                )
        object.__setattr__(self, "groups", groups)

    @property
    def p(self) -> int:
        return self.groups[0].shape[1]

    @property
    def n_sizes(self) -> tuple[int, ...]:
        return tuple(g.shape[0] for g in self.groups)

    @property
    def n(self) -> int:
        return sum(self.n_sizes)


def _coerce(sample) -> GroupedSample:
    return sample if isinstance(sample, GroupedSample) else GroupedSample(sample)


def _kahan_matrix_sum(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Compensated elementwise sum in fixed (ascending group) order."""
    total = np.zeros_like(parts[0])
    carry = np.zeros_like(parts[0])
    for a in parts:
        y = a - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def log_lambda2(sample) -> float:
    """Log likelihood-ratio statistic for equality of group covariances.

    Always <= 0; equals 0 exactly when every normalized group scatter
    A_j / n_j coincides with the pooled A / n.  Computed by one Cholesky
    factorization per group scatter plus one for the pooled scatter, all
    in one call on the (q + 1, p, p) stack; the pooled scatter is formed
    by compensated summation of the group scatters in ascending group
    order.  ``hdlrt.oracle.naive_log_lambda2`` evaluates the same quantity
    by LU for the test suite.
    """
    s = _coerce(sample)
    scatters = [_mirror(g.T @ g) for g in s.groups]
    pooled = _kahan_matrix_sum(scatters)
    normalized = [a / nj for nj, a in zip(s.n_sizes, scatters)] + [pooled / s.n]
    *group_logs, pooled_log = log_det_cholesky(np.stack(normalized)).tolist()
    per_group = sum(nj * lg for nj, lg in zip(s.n_sizes, group_logs))
    return 0.5 * (per_group - s.n * pooled_log)


def eqcov_constants(n_sizes: Sequence[int], p: int) -> NullConstants:
    """Closed-form centering and scale for the equality test.

    mu_n = n (n - p - 1/2) log(1 - p/n)
           - sum_j n_j (n_j - p - 1/2) log(1 - p/n_j)
    sigma_n^2 = 2 { log(1 - p/n) - sum_j (n_j/n)^2 log(1 - p/n_j) }

    mu_n centers the doubled statistic 2 log L, and n sigma_n is its
    scale: summing the conditional variances of the martingale
    differences n_j X_{j,i} - n X_i over the recursion steps gives
    2 n^2 { log(1-p/n) - sum_j (n_j/n)^2 log(1-p/n_j) } to leading order,
    so the factor 2 belongs inside sigma_n^2 (the same convention as the
    block test's scale).  sigma_n^2 is strictly positive for every valid
    design; a quantitative lower bound, n^2 sigma_n^2 >= p^2 (q - 1) / 2,
    is asserted in the test suite.
    """
    sizes = _as_integers("n_sizes", n_sizes, InvalidDesign, "n_j")
    p = _as_integer("p", p, InvalidDesign)
    if len(sizes) < 2:
        raise InvalidDesign(f"at least two groups required, got {len(sizes)}")
    if p < 1:
        raise InvalidDesign(f"p must be positive, got {p}")
    if any(nj <= p for nj in sizes):
        raise InvalidDesign(f"every group needs n_j > p, got sizes {sizes} with p={p}")
    n = sum(sizes)
    group_logs = [math.log1p(-p / nj) for nj in sizes]
    full_log = math.log1p(-p / n)
    mu = n * (n - p - 0.5) * full_log - sum(
        nj * (nj - p - 0.5) * lg for nj, lg in zip(sizes, group_logs)
    )
    sigma_sq = 2.0 * (full_log - sum(
        (nj / n) ** 2 * lg for nj, lg in zip(sizes, group_logs)
    ))
    return NullConstants(mu_n=mu, sigma_n=math.sqrt(sigma_sq))


def _eqcov_warnings(n_sizes: tuple[int, ...], p: int) -> tuple[str, ...]:
    notes = []
    worst = max(p / nj for nj in n_sizes)
    if worst > _RATIO_WARN:
        notes.append(
            f"max_j p/n_j = {worst:.3f} exceeds {_RATIO_WARN}; the normal approximation "
            "degrades as p/n_j approaches 1"
        )
    n = sum(n_sizes)
    if p / n < 0.01:
        notes.append(
            f"p/n = {p / n:.4f} is below 0.01; the approximation assumes the "
            "dimension is not negligible relative to the pooled sample"
        )
    return tuple(notes)


def eqcov_test(sample, alpha: float) -> TestReport:
    """Run the equality-of-covariances test at level ``alpha``.

    The report stores ``log_statistic = 2 log L`` together with its
    centering ``mu = mu_n`` and scale ``sigma = n sigma_n``, so that
    ``z = (log_statistic - mu) / sigma`` is the standardized statistic;
    p_value = Phi(z), one-sided lower rejection.
    """
    alpha = _as_alpha(alpha, InvalidAlpha)
    s = _coerce(sample)
    const = eqcov_constants(s.n_sizes, s.p)
    statistic = log_lambda2(s)
    return _standardize(2.0 * statistic, const, s.n, alpha, _eqcov_warnings(s.n_sizes, s.p))
