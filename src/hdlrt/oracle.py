"""Brute-force reference implementations used by the test suite.

Deliberately different algorithms from the main paths: partial-pivot LU
of explicitly formed matrices instead of QR or Cholesky (no symmetry
exploited), explicit least-squares projection per step instead of the
residuals read off one Householder QR, and an eigendecomposition instead
of the closed-form compound-symmetry square root, so that agreement
between the routes is evidence rather than tautology.

Not part of the public library surface; reachable from the hidden CLI
subcommand ``debug trace`` for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateColumn,
    DimensionExceedsSample,
    DimensionMismatch,
    NegativeEigenvalue,
    SingularMatrix,
)
from .eqcov import _coerce
from .linalg import (
    BlockPartition,
    _as_data_matrix,
    _check_symmetric,
    _mirror,
    sample_covariance,
)

_EPS = float(np.finfo(np.float64).eps)


def lu_log_det(a) -> tuple[float, int]:
    """(log|det|, sign) of a square matrix by LU with partial pivoting.

    Raises SingularMatrix when a pivot magnitude falls at or below
    d * eps * max|a_ij|.
    """
    m = np.array(a, dtype=np.float64, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    d = m.shape[0]
    tol = d * _EPS * float(np.max(np.abs(m))) if m.size else 0.0
    sign = 1
    log_abs = 0.0
    for k in range(d):
        piv = k + int(np.argmax(np.abs(m[k:, k])))
        if abs(m[piv, k]) <= tol:
            raise SingularMatrix(f"pivot {abs(m[piv, k]):.3e} at step {k} below tolerance")
        if piv != k:
            m[[k, piv]] = m[[piv, k]]
            sign = -sign
        pivot = m[k, k]
        if pivot < 0.0:
            sign = -sign
        log_abs += math.log(abs(pivot))
        if k + 1 < d:
            mult = m[k + 1:, k] / pivot
            m[k + 1:, k + 1:] -= np.outer(mult, m[k, k + 1:])
    return log_abs, sign


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


def naive_log_vn(data, part: BlockPartition) -> float:
    """log V_n evaluated literally: LU log-determinants of the explicitly
    formed sample covariance and each of its diagonal blocks."""
    a = _as_data_matrix(data)
    n, p = a.shape
    if part.p != p:
        raise DimensionMismatch(f"partition p={part.p} does not match data p={p}")
    if p >= n:
        raise DimensionExceedsSample(f"requires p < n, got p={p}, n={n}")
    s = sample_covariance(a)
    total, _ = lu_log_det(s)
    blocks = 0.0
    for i in range(part.q):
        block_val, _ = lu_log_det(extract_block(s, part, i))
        blocks += block_val
    return total - blocks


def naive_log_lambda2(sample) -> float:
    """log L of the equality-of-covariances test evaluated literally: LU
    log-determinants of the explicitly formed A_j / n_j and A / n, with the
    pooled scatter A summed in plain floating point."""
    s = _coerce(sample)
    scatters = [g.T @ g for g in s.groups]
    per_group = sum(nj * lu_log_det(a / nj)[0] for nj, a in zip(s.n_sizes, scatters))
    return 0.5 * (per_group - s.n * lu_log_det(sum(scatters) / s.n)[0])


def symmetric_sqrt(a) -> np.ndarray:
    """Symmetric positive semidefinite square root of a PSD matrix.

    Computed from numpy's symmetric eigendecomposition with the eigenvalues
    square-rooted; eigenvalues below a relative negativity tolerance raise
    NegativeEigenvalue, tiny negative rounding noise is clipped to zero.
    """
    m = _check_symmetric(a)
    w, v = np.linalg.eigh(m)
    scale = max(float(np.max(np.abs(w))), 1.0)
    if np.min(w) < -1e-10 * scale:
        raise NegativeEigenvalue(f"eigenvalue {np.min(w):.3e} below tolerance")
    return _mirror((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)


def explicit_quad_form(span_columns: np.ndarray, b: np.ndarray) -> float:
    """b^T P b for the projection P onto the orthogonal complement of the
    column span, via a full least-squares solve and explicit residual."""
    if span_columns.shape[1] == 0:
        return float(b @ b)
    coef, *_ = np.linalg.lstsq(span_columns, b, rcond=None)
    r = b - span_columns @ coef
    return float(r @ r)


@dataclass(frozen=True, eq=False)
class DiagnosticTrace:
    """Per-step projection diagnostics for the block statistic.

    ``quad_forms[i]`` is the full-span quadratic form of column i (0-based)
    against all preceding columns; ``block_quad_forms[i]`` the within-block
    one.  ``x_terms`` and ``xj_terms`` are the centered and scaled versions
    for the columns beyond the first block (the martingale differences of
    the normal approximation), and ``sigma1_sum`` is the closed-form sum of
    their leading per-step variances, which approaches sigma_n^2.
    """

    quad_forms: np.ndarray
    block_quad_forms: np.ndarray
    x_terms: np.ndarray
    xj_terms: np.ndarray
    sigma1_sum: float


def sigma1_closed_form(n: int, part: BlockPartition) -> float:
    """sum_i 2 [ 1/(n-i+1) - 1/(n-i+1+c_{g(i)-1}) ] over the columns i
    beyond the first block, where c_{g(i)-1} counts the columns before
    column i's block."""
    total = 0.0
    for g in range(1, part.q):
        lo, hi = part.block_range(g)
        shift = part.cumulative[g]
        for i in range(lo + 1, hi + 1):  # 1-based column index
            dof = n - i + 1
            total += 2.0 * (1.0 / dof - 1.0 / (dof + shift))
    return total


def martingale_trace(data, part: BlockPartition) -> DiagnosticTrace:
    """Explicit-projection quadratic forms and martingale terms.

    Every projection is recomputed from scratch through a least-squares
    solve; cost is cubic in p and irrelevant here.
    """
    a = _as_data_matrix(data)
    n, p = a.shape
    if part.p != p:
        raise DimensionMismatch(f"partition p={part.p} does not match data p={p}")
    if p >= n:
        raise DimensionExceedsSample(f"requires p < n, got p={p}, n={n}")
    quad = np.empty(p)
    block_quad = np.empty(p)
    starts = np.empty(p, dtype=int)
    for g in range(part.q):
        lo, hi = part.block_range(g)
        starts[lo:hi] = lo
    for i in range(p):
        b = a[:, i]
        quad[i] = explicit_quad_form(a[:, :i], b)
        block_quad[i] = explicit_quad_form(a[:, starts[i]:i], b)
        norm_sq = float(b @ b)
        if norm_sq == 0.0 or min(quad[i], block_quad[i]) < n * _EPS * _EPS * norm_sq:
            raise DegenerateColumn(f"column {i} is numerically dependent on its predecessors")
    p1 = part.sizes[0]
    x_terms = np.empty(p - p1)
    xj_terms = np.empty(p - p1)
    for i in range(p1, p):
        dof = n - i  # n - (i+1) + 1 for the 1-based column index i+1
        shifted = dof + starts[i]
        x_terms[i - p1] = (quad[i] - dof) / dof
        xj_terms[i - p1] = (block_quad[i] - shifted) / shifted
    return DiagnosticTrace(
        quad_forms=quad,
        block_quad_forms=block_quad,
        x_terms=x_terms,
        xj_terms=xj_terms,
        sigma1_sum=sigma1_closed_form(n, part),
    )
