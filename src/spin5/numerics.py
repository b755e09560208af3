"""Shared numerical utilities: rank-aware solves, kernels, subspace geometry.

Bases of subspaces are stored as 2-d arrays whose *rows* are the basis
vectors.  Everything works for both real and complex dtypes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSubspace

#: Default numerical tolerance for the whole package.
EPS_DEFAULT = 1e-9


def kernel_basis(m: np.ndarray, eps: float = EPS_DEFAULT) -> np.ndarray:
    """Orthonormal basis (rows) of the null space of m.

    Singular values below eps times the largest singular value count as
    zero; for the zero matrix the full space is returned.
    """
    m = np.atleast_2d(np.asarray(m))
    _, s, vh = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(m.shape[1], dtype=m.dtype)
    rank = int(np.sum(s > eps * s[0]))
    return vh[rank:].conj()


def row_space_basis(m: np.ndarray, eps: float = EPS_DEFAULT) -> np.ndarray:
    """Orthonormal basis (rows) of the row space of m."""
    m = np.atleast_2d(np.asarray(m))
    _, s, vh = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, m.shape[1]), dtype=m.dtype)
    rank = int(np.sum(s > eps * s[0]))
    return vh[:rank]


def numerical_rank(m: np.ndarray, eps: float = EPS_DEFAULT) -> int:
    m = np.atleast_2d(np.asarray(m))
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > eps * s[0]))


def solve_columns(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solve a @ x = b; returns (x, residual norm).

    b may be a vector or a 2-d array whose columns are separate right-hand
    sides; then x has one solution column per column of b and the residual
    is the largest column residual norm.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    res = float(np.linalg.norm(a @ x - b, axis=0).max())
    return x, res


def project_columns(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """solve_columns for a real a with pairwise orthogonal columns.

    Then the least-squares solution is x = a^T b / |a_j|^2, column by column.
    a may carry leading batch axes; the residual is the worst over all of them.
    """
    a, b = np.asarray(a), np.asarray(b)
    col = b[..., None] if b.ndim == 1 else b
    x = (np.swapaxes(a, -1, -2) @ col) / np.sum(a * a, axis=-2)[..., None]
    with np.errstate(over="ignore"):   # an overflow is an inf residual, which fails
        res = float(np.linalg.norm(a @ x - col, axis=-2).max(initial=0.0))
    return (x[..., 0] if b.ndim == 1 else x), res


def require_unit(value: float, eps: float, error: type[Exception], what: str) -> None:
    """Raise error unless |value - 1| <= eps; NaN fails the test."""
    if not abs(value - 1.0) <= eps:
        raise error(f"{what} is {value:.3e}, expected 1")


def scale_safe_norm(v: np.ndarray) -> float:
    """Euclidean norm that neither overflows nor underflows on huge or tiny entries."""
    return math.hypot(*np.abs(np.ravel(v)))


def projector(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the row span of an orthonormal basis."""
    basis = np.atleast_2d(np.asarray(basis))
    return basis.T @ basis.conj()


def subspace_distance(a: np.ndarray, b: np.ndarray, eps: float = EPS_DEFAULT) -> float:
    """Spectral distance between subspaces given by spanning rows.

    Equals the sine of the largest principal angle; 0 for equal spans,
    1 when some direction of one space is orthogonal to all of the other.
    """
    qa = row_space_basis(np.atleast_2d(np.asarray(a)), eps)
    qb = row_space_basis(np.atleast_2d(np.asarray(b)), eps)
    return float(np.linalg.norm(projector(qa) - projector(qb), ord=2))


def phase_normalize(v: np.ndarray, eps: float = EPS_DEFAULT) -> np.ndarray:
    """Scale a complex vector by a unit phase.

    The first coordinate whose modulus is significant relative to the
    largest one becomes real and positive, which pins down the phase
    freedom deterministically.
    """
    v = np.asarray(v, dtype=complex)
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v.copy()
    idx = int(np.argmax(mags > eps * top))
    pivot = v[idx]
    return v * (pivot.conjugate() / abs(pivot))


def orthonormalize_rows(rows: np.ndarray, eps: float = EPS_DEFAULT,
                        require: int | None = None) -> np.ndarray:
    """Gram-Schmidt on the rows, dropping numerically dependent ones."""
    rows = np.atleast_2d(np.asarray(rows))
    scale = max(float(np.linalg.norm(r)) for r in rows) if len(rows) else 0.0
    out: list[np.ndarray] = []
    for r in rows:
        v = r.astype(complex if np.iscomplexobj(rows) else float).copy()
        for q in out:
            v = v - np.vdot(q, v) * q
        n = np.linalg.norm(v)
        if scale > 0 and n > eps * scale:
            out.append(v / n)
    if require is not None and len(out) != require:
        raise DegenerateSubspace(
            f"expected {require} independent vectors, found {len(out)}")
    return np.array(out) if out else np.zeros((0, rows.shape[1]), dtype=rows.dtype)


def projector_basis(p: np.ndarray, dim: int, eps: float = EPS_DEFAULT) -> np.ndarray:
    """Deterministic orthonormal basis (rows) of the range of a projector array p.

    Gram-Schmidt, in index order, on the images p e_k of the standard basis,
    keeping the first `dim` of norm above sqrt(eps), each with its phase pinned.
    For coordinate subspaces this reproduces the standard spinors exactly."""
    picked: list[np.ndarray] = []
    for e in np.eye(p.shape[1], dtype=complex):
        v = p @ e
        for u in picked:
            v = v - np.vdot(u, v) * u
        n = np.linalg.norm(v)
        if n > np.sqrt(eps):
            picked.append(phase_normalize(v / n, eps))
        if len(picked) == dim:
            break
    if len(picked) != dim:
        raise DegenerateSubspace("failed to canonicalize subspace basis")
    return np.array(picked)


def canonical_complex_basis(span_rows: np.ndarray, dim: int,
                            eps: float = EPS_DEFAULT) -> np.ndarray:
    """projector_basis of the span, so independent of the spanning set."""
    q = row_space_basis(np.atleast_2d(np.asarray(span_rows, dtype=complex)), eps)
    if q.shape[0] != dim:
        raise DegenerateSubspace(
            f"span has complex dimension {q.shape[0]}, expected {dim}")
    return projector_basis(projector(q), dim, eps)


def distance_to_row_span(v: np.ndarray, basis: np.ndarray,
                         eps: float = EPS_DEFAULT) -> float:
    """Norm of the component of v orthogonal to the row span of basis."""
    q = row_space_basis(np.atleast_2d(np.asarray(basis)), eps)
    return float(np.linalg.norm(v - projector(q) @ np.asarray(v)))

