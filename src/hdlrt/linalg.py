"""Dense matrix kernels: log-determinants, the block partition, and the
compound-symmetry square root.

The block and correlation statistics use the incremental route, which never
forms a p x p matrix and instead takes the squared residual norms of each
variable projected onto the orthogonal complement of its predecessors from
the R factor of a Householder QR of the data (``log_det_incremental``);
that QR owns the degenerate-column rule.  The block terms come from one
batched QR per distinct block size in the private ``_block_log_dets``,
which only ``hdlrt.blocktest.log_vn`` calls, after validating the data
against the partition and after the full-data QR.  A block residual is
never smaller than the full-data residual of the same column, so the
block QRs are not checked again.  The equality-of-covariances statistic
uses the Cholesky route on explicitly formed scatter matrices
(``log_det_cholesky``); ``hdlrt.oracle`` holds the LU reference.

Stacks: the incremental-route kernels also take a stack (k, n, p) of data
matrices, and ``log_det_cholesky`` a stack (k, p, p) of matrices; they then
return an array of k values, each bit for bit the value the kernel returns
for that slice on its own, and one matrix gives a float.  A stack raises
if any of its slices would; with one failing slice the error is the one
that slice raises alone.

All determinants are handled in log space throughout; the raw determinant
ratios underflow already for moderate dimensions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateColumn,
    DimensionExceedsSample,
    DimensionMismatch,
    HdlrtError,
    NotPositiveDefinite,
    _as_delta,
    _as_integer,
    _as_integers,
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
        sizes = _as_integers("block sizes", self.sizes, ValueError, "block size")
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

    @classmethod
    def uniform(cls, q: int, size: int) -> "BlockPartition":
        """q blocks of equal size."""
        return cls((size,) * _as_integer("q", q, ValueError))

    @staticmethod
    @functools.lru_cache(maxsize=16, typed=True)  # typed: 3.0 must not hit 3
    def unit(p: int) -> "BlockPartition":
        """p singleton blocks; turns the block statistic into the
        correlation-determinant statistic.  Cached, with its ``gather``."""
        return BlockPartition((1,) * _as_integer("p", p, ValueError))

    @functools.cached_property
    def gather(self) -> tuple[tuple[int, slice | np.ndarray], ...]:
        """Per distinct block size, in order of first appearance: the size,
        and the column index that gathers all the blocks of that size.
        Adjacent blocks get a slice, so indexing gives a view, not a copy;
        others a read-only (blocks, size) array.  Built on first use and
        kept with the partition."""
        starts_by_size: dict[int, list[int]] = {}
        for lo, size in zip(self.cumulative, self.sizes):
            starts_by_size.setdefault(size, []).append(lo)
        groups = []
        for size, starts in starts_by_size.items():
            if starts[-1] - starts[0] == size * (len(starts) - 1):
                index = slice(starts[0], starts[-1] + size)
            else:
                index = np.add.outer(starts, np.arange(size))
                index.setflags(write=False)  # shared by every user of the partition
            groups.append((size, index))
        return tuple(groups)


def _as_partition(value, error: type[Exception]) -> BlockPartition:
    """The package's partition-type rule: ``value`` must be a
    ``BlockPartition``; raises the error class its caller names."""
    if not isinstance(value, BlockPartition):
        raise error(f"partition must be a BlockPartition, got {value!r}")
    return value


def _as_data_matrix(data, stack: bool = False, rows: int = 0) -> np.ndarray:
    """Validate and coerce an observations-by-variables array, or with
    ``stack`` also a stack (k, n, p) of them.

    Every entry of a scatter matrix summed over ``rows`` observations (at
    least the data's own n) is at most rows * max|x|^2 in magnitude; data
    for which twice that overflows, the factor covering the rounding of
    the sums, is refused with an ``HdlrtError``.
    """
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 2 and not (stack and a.ndim == 3):
        kinds = "2-d (n x p) or a stack (k x n x p)" if stack else "2-d (n x p)"
        raise DimensionMismatch(f"data must be {kinds}, got shape {a.shape}")
    if a.size == 0:
        raise DimensionMismatch(f"data must be non-empty, got shape {a.shape}")
    lo, hi = float(a.min()), float(a.max())  # a NaN propagates to both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("data contains non-finite entries")
    top, rows = max(-lo, hi), max(rows, a.shape[-2])
    if not math.isfinite(2.0 * rows * top * top):
        raise HdlrtError(f"data entries up to {top:.3g} in magnitude overflow the "
                         f"scatter matrix of {rows} observations")
    return a


def _as_result(values):
    """One matrix's value as a float; a stack's values as their array."""
    return float(values) if np.ndim(values) == 0 else values


def _check_symmetric(a, stack: bool = False) -> np.ndarray:
    """A square matrix, or with ``stack`` also a stack (k, p, p) of them,
    each exactly symmetric."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-2] != m.shape[-1]:
        kinds = "square matrix or a stack of them" if stack else "square matrix"
        raise DimensionMismatch(f"expected a {kinds}, got shape {m.shape}")
    if not np.array_equal(m, np.swapaxes(m, -2, -1)):
        raise ValueError("matrix is not exactly symmetric")
    return m


def _mirror(a: np.ndarray) -> np.ndarray:
    """Copy the lower triangle onto the upper one, making symmetry exact.
    An exactly symmetric input, such as numpy's ``g.T @ g``, is returned
    as it is."""
    if np.array_equal(a, a.T):
        return a
    lower = np.tril(a)
    return lower + np.tril(a, -1).T


def log_det_cholesky(a):
    """Log-determinant of a symmetric positive definite matrix via Cholesky;
    an array of k values for a stack (k, p, p), each bit for bit the value
    of its slice on its own.

    Returns sum of 2*log(L_ii) for the Cholesky factor L.

    Raises
    ------
    NotPositiveDefinite
        If the matrix contains a non-finite entry or the factorization
        fails (e.g. a singular sample covariance with p >= n), for any
        slice of a stack.  The factor of a finite matrix that factors has
        a positive, finite diagonal.
    """
    m = np.asarray(a, dtype=np.float64)
    if not np.isfinite(m).all():  # before the symmetry check, to which NaN != NaN
        raise NotPositiveDefinite("matrix contains non-finite entries")
    m = _check_symmetric(m, stack=True)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return _as_result(2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1))


def _squared_r_diagonal(stack: np.ndarray) -> np.ndarray:
    """Squared diagonal, shape (..., s), of the R factor of each n x s
    matrix in ``stack`` (..., n, s), from one batched LAPACK Householder
    QR: R_jj^2 is the squared residual of column j after projection onto
    the orthogonal complement of its predecessors in its matrix.

    The strided diagonal is copied before it is squared: then summing the
    last axes runs in numpy's pairwise order, the order of a lone matrix's
    sum, and a stack gives bit for bit the values of its slices.
    """
    h, _ = np.linalg.qr(stack, mode="raw")
    return np.square(np.ascontiguousarray(np.diagonal(h, axis1=-2, axis2=-1)))


def incremental_quad_forms(data) -> np.ndarray:
    """Per-step squared residual norms of the projection recursion.

    For the variable vectors b_1, ..., b_p (columns of ``data``), entry i
    is b_i^T P b_i where P projects onto the orthogonal complement of
    span(b_1, ..., b_{i-1}); the first entry is the plain squared norm.
    The product of these quadratic forms equals the determinant of the
    scatter matrix X^T X.  Shape (p,), or (k, p) for a stack (k, n, p).

    The entries are the squared diagonal of the R factor of one LAPACK
    Householder QR of the data.  QR works on the data itself, so the
    scatter matrix, and with it the squared condition number, is never
    formed.

    Raises
    ------
    DegenerateColumn
        If a residual norm underflows the rank-deficiency tolerance
        (squared norm below n * eps^2 * squared column norm), naming the
        first such data column.
    DimensionExceedsSample
        If there are more columns than observations.
    """
    a = _as_data_matrix(data, stack=True)
    n, p = a.shape[-2:]
    if p > n:
        raise DimensionExceedsSample(f"{p} columns cannot be linearly independent "
                                     f"with n={n} observations")
    quad = _squared_r_diagonal(a)
    norms = np.einsum("...ij,...ij->...j", a, a)
    bad = (norms == 0.0) | (quad < n * _EPS * _EPS * norms)
    if bad.any():
        where = tuple(np.argwhere(bad)[0])
        if norms[where] == 0.0:
            raise DegenerateColumn(f"column {where[-1]} is identically zero")
        raise DegenerateColumn(f"column {where[-1]} is numerically dependent on its predecessors")
    return quad


def log_det_incremental(data):
    """Log-determinant of the scatter matrix X^T X of ``data``, accumulated
    as the sum of log projection quadratic forms; an array of k values for
    a stack (k, n, p).

    Equals ``log_det_cholesky`` of n times the sample covariance, without
    ever forming the p x p matrix.
    """
    return _as_result(np.log(incremental_quad_forms(data)).sum(axis=-1))


def _block_log_dets(a: np.ndarray, part: BlockPartition):
    """Sum over the blocks of ``part`` of the log-determinants of the block
    scatter matrices X_i^T X_i of data that ``incremental_quad_forms``
    accepted and whose p matches the partition; a scalar, or one value per
    slice of a stack (k, n, p).

    Blocks of equal size are stacked and factored by one batched QR, so
    the cost is one LAPACK call per distinct block size rather than one
    per block.  The full-data QR owns the degenerate-column rule: a
    column's block predecessors are some of its predecessors in the data,
    so no block residual is smaller than the full-data one that passed.
    """
    total = 0.0
    for size, index in part.gather:
        blocks = a[..., index].reshape(a.shape[:-1] + (-1, size))
        stack = np.moveaxis(blocks, -3, -2)  # (..., blocks, n, size)
        logs = np.log(_squared_r_diagonal(stack))
        total = total + logs.reshape(logs.shape[:-2] + (-1,)).sum(axis=-1)
    return total


def compound_symmetry_sqrt(delta: float, p: int) -> np.ndarray:
    """Exact symmetric square root of (1 - delta) I + delta * ones((p, p)).

    The matrix has eigenvalues 1 - delta (multiplicity p - 1) and
    1 - delta + p*delta, so the root is a*I + b*ones with
    a = sqrt(1 - delta) and b = (sqrt(1 - delta + p*delta) - a) / p.
    """
    _as_delta(delta, ValueError)
    p = _as_integer("p", p, ValueError)
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    a = math.sqrt(1.0 - delta)
    b = (math.sqrt(1.0 - delta + p * delta) - a) / p
    root = np.full((p, p), b)
    np.fill_diagonal(root, a + b)
    return root
