"""Dense matrix kernels: sample covariance, log-determinants, block
extraction, and the compound-symmetry square root.

Two independent log-determinant routes are provided on purpose.  The
Cholesky route works on an explicitly formed scatter matrix; the
incremental route never forms a p x p matrix and instead takes the
squared residual norms of each variable projected onto the orthogonal
complement of its predecessors from the R factor of a Householder QR of
the data.  Block terms come from one batched QR per distinct block size.
Agreement between the two routes is part of the test contract, see
``hdlrt.oracle`` for a third (LU based) route.

All determinants are handled in log space throughout; the raw determinant
ratios underflow already for moderate dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateColumn,
    DimensionExceedsSample,
    DimensionMismatch,
    NotPositiveDefinite,
)

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class BlockPartition:
    """Ordered block sizes (p_1, ..., p_q) splitting the coordinates of a
    p-dimensional vector into q contiguous groups.

    Attributes
    ----------
    sizes : tuple of int
        Block sizes, all >= 1.
    cumulative : tuple of int
        Running sums (0, p_1, p_1 + p_2, ..., p); strictly increasing.
    """

    sizes: tuple[int, ...]
    cumulative: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes:
            raise ValueError("partition needs at least one block")
        if any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        cum = [0]
        for s in sizes:
            cum.append(cum[-1] + s)
        object.__setattr__(self, "cumulative", tuple(cum))

    @property
    def q(self) -> int:
        """Number of blocks."""
        return len(self.sizes)

    @property
    def p(self) -> int:
        """Total dimension, sum of the block sizes."""
        return self.cumulative[-1]

    def block_range(self, i: int) -> tuple[int, int]:
        """Half-open column range [start, stop) of block ``i`` (0-based)."""
        if not 0 <= i < self.q:
            raise IndexError(f"block index {i} outside [0, {self.q})")
        return self.cumulative[i], self.cumulative[i + 1]

    @classmethod
    def uniform(cls, q: int, size: int) -> "BlockPartition":
        """q blocks of equal size."""
        return cls((size,) * q)

    @classmethod
    def unit(cls, p: int) -> "BlockPartition":
        """p singleton blocks; turns the block statistic into the
        correlation-determinant statistic."""
        return cls((1,) * p)


def _as_data_matrix(data) -> np.ndarray:
    """Validate and coerce an observations-by-variables array."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"data must be 2-d (n x p), got shape {a.shape}")
    n, p = a.shape
    if n < 1 or p < 1:
        raise DimensionMismatch(f"data must be non-empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("data contains non-finite entries")
    return a


def _check_symmetric(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not exactly symmetric")
    return m


def _mirror(a: np.ndarray) -> np.ndarray:
    """Copy the lower triangle onto the upper one, making symmetry exact."""
    lower = np.tril(a)
    return lower + np.tril(a, -1).T


def sample_covariance(data) -> np.ndarray:
    """Sample covariance (1/n) sum_k y_k y_k^T of the rows of ``data``.

    No mean-centering is applied; the sampling model underlying the tests
    fixes the mean at zero, and centering would silently change the null
    distribution of the statistics.

    Returns a p x p exactly-symmetric positive semidefinite matrix.
    """
    a = _as_data_matrix(data)
    n = a.shape[0]
    s = a.T @ a
    return _mirror(s) / n


def log_det_cholesky(a) -> float:
    """Log-determinant of a symmetric positive definite matrix via Cholesky.

    Returns sum of 2*log(L_ii) for the Cholesky factor L.

    Raises
    ------
    NotPositiveDefinite
        If the factorization fails or produces a non-positive or
        non-finite pivot (e.g. a singular sample covariance with p >= n).
    """
    m = _check_symmetric(a)
    if not np.isfinite(m).all():
        raise NotPositiveDefinite("matrix contains non-finite entries")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    diag = np.diagonal(chol)
    if not np.all(diag > 0) or not np.isfinite(diag).all():
        raise NotPositiveDefinite("non-positive pivot in Cholesky factor")
    return float(2.0 * np.sum(np.log(diag)))


def _squared_residuals(stack: np.ndarray, first_columns) -> np.ndarray:
    """Squared diagonal of the R factor of each n x s slice of ``stack``.

    ``stack`` has shape (k, n, s); one batched Householder QR factors every
    slice.  R_jj^2 is the squared residual of column j of a slice after
    projection onto the orthogonal complement of its predecessors in that
    slice.  ``first_columns[i]`` is the data column of slice i's first
    column, used to name the first degenerate column.  Returns shape (k, s).
    """
    _, n, s = stack.shape
    if s > n:
        raise DimensionExceedsSample(
            f"{s} columns cannot be linearly independent with n={n} observations"
        )
    quad = np.square(np.diagonal(np.linalg.qr(stack, mode="r"), axis1=-2, axis2=-1))
    norms = np.einsum("kij,kij->kj", stack, stack)
    bad = (norms == 0.0) | (quad < n * _EPS * _EPS * norms)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        col = first_columns[i] + int(j)
        if norms[i, j] == 0.0:
            raise DegenerateColumn(f"column {col} is identically zero")
        raise DegenerateColumn(f"column {col} is numerically dependent on its predecessors")
    return quad


def incremental_quad_forms(data, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Per-step squared residual norms of the projection recursion.

    For the variable vectors b_start, ..., b_{stop-1} (columns of ``data``),
    entry j is b_i^T P b_i where P projects onto the orthogonal complement
    of span(b_start, ..., b_{i-1}); the first entry is the plain squared
    norm.  The product of these quadratic forms equals the determinant of
    the scatter matrix of the selected columns.

    The entries are the squared diagonal of the R factor of one LAPACK
    Householder QR of the selected columns.  QR works on the data itself,
    so the scatter matrix, and with it the squared condition number, is
    never formed.

    Raises
    ------
    DegenerateColumn
        If a residual norm underflows the rank-deficiency tolerance
        (squared norm below n * eps^2 * squared column norm).
    DimensionExceedsSample
        If the range holds more columns than there are observations.
    """
    a = _as_data_matrix(data)
    p = a.shape[1]
    if stop is None:
        stop = p
    if not 0 <= start <= stop <= p:
        raise IndexError(f"column range [{start}, {stop}) outside [0, {p})")
    return _squared_residuals(a[None, :, start:stop], [start])[0]


def log_det_incremental(data, start: int = 0, stop: int | None = None) -> float:
    """Log-determinant of the scatter matrix X^T X of a column range of
    ``data``, accumulated as the sum of log projection quadratic forms.

    For the full range this equals ``log_det_cholesky`` of n times the
    sample covariance, without ever forming the p x p matrix.
    """
    return float(np.sum(np.log(incremental_quad_forms(data, start, stop))))


def log_det_blocks(data, part: BlockPartition) -> float:
    """Sum over the blocks of ``part`` of the log-determinants of the block
    scatter matrices X_i^T X_i.

    Blocks of equal size are stacked and factored by one batched QR, so
    the cost is one LAPACK call per distinct block size rather than one
    per block.  Raises like ``incremental_quad_forms`` on each block.
    """
    a = _as_data_matrix(data)
    if part.p != a.shape[1]:
        raise DimensionMismatch(f"partition p={part.p} does not match data p={a.shape[1]}")
    starts_by_size: dict[int, list[int]] = {}
    for lo, size in zip(part.cumulative, part.sizes):
        starts_by_size.setdefault(size, []).append(lo)
    total = 0.0
    for size, starts in starts_by_size.items():
        columns = np.add.outer(starts, np.arange(size))
        stack = a[:, columns].transpose(1, 0, 2)
        total += float(np.sum(np.log(_squared_residuals(stack, starts))))
    return total


def extract_block(a, part: BlockPartition, i: int) -> np.ndarray:
    """Principal submatrix of ``a`` for block ``i`` (0-based) of ``part``.

    Raises IndexError if ``i`` is outside [0, q) and DimensionMismatch if
    ``a`` is not p x p for the partition's total dimension.
    """
    m = _check_symmetric(a)
    if m.shape[0] != part.p:
        raise DimensionMismatch(
            f"matrix of size {m.shape[0]} does not match partition p={part.p}"
        )
    lo, hi = part.block_range(i)
    return m[lo:hi, lo:hi].copy()


def compound_symmetry_sqrt(delta: float, p: int) -> np.ndarray:
    """Exact symmetric square root of (1 - delta) I + delta * ones((p, p)).

    The matrix has eigenvalues 1 - delta (multiplicity p - 1) and
    1 - delta + p*delta, so the root is a*I + b*ones with
    a = sqrt(1 - delta) and b = (sqrt(1 - delta + p*delta) - a) / p.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    a = math.sqrt(1.0 - delta)
    b = (math.sqrt(1.0 - delta + p * delta) - a) / p
    root = np.full((p, p), b)
    np.fill_diagonal(root, a + b)
    return root
