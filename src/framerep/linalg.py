"""Dense complex linear algebra kernel.

Everything in the package runs on ``numpy.complex128`` arrays: matrices are
2-d, vectors 1-d.  The helpers here coerce inputs to that form, refuse
non-finite entries, and wrap the numpy/LAPACK decompositions behind the small
set of operations the frame and representation modules rely on.  A LAPACK
decomposition that does not converge raises :class:`DecompositionFailed`.

Singular values come in descending order.  All tolerances are relative to
the scale of the input (its largest singular value); there are no absolute
cutoffs.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .exceptions import DecompositionFailed, DimensionMismatch

#: Machine epsilon for float64, the base unit of all default tolerances.
EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite complex128 2-d array.

    Raises
    ------
    DimensionMismatch
        If ``a`` is not 2-dimensional, is empty, or contains NaN/Inf.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size == 0:
        raise DimensionMismatch(f"{name} must have positive dimensions, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return m


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a finite complex128 1-d array."""
    w = np.asarray(v, dtype=np.complex128)
    if w.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-dimensional, got ndim={w.ndim}")
    if w.size == 0:
        raise DimensionMismatch(f"{name} must have positive dimension")
    if not np.all(np.isfinite(w)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return w


@contextmanager
def _converging(what: str):
    """Re-raise LAPACK non-convergence as DecompositionFailed naming ``what``."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailed(f"SVD of the {what} did not converge: {exc}") from exc


def svd(a, what: str = "matrix") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``a == U @ diag(s) @ V*``.

    Thin factors; ``s`` holds all ``min(rows, cols)`` singular values in
    descending order, zeros included.  ``what`` names the matrix in the
    error raised when LAPACK does not converge.

    Raises
    ------
    DecompositionFailed
        If the SVD does not converge.
    """
    a = as_matrix(a, what)
    with _converging(what):
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh.conj().T


def singular_values(a, what: str = "matrix") -> np.ndarray:
    """The singular values of :func:`svd` alone, without computing the factors."""
    a = as_matrix(a, what)
    with _converging(what):
        return np.linalg.svd(a, compute_uv=False)


def inverse_above_cutoff(s: np.ndarray, rel_tol: float) -> np.ndarray:
    """Reciprocals of the descending singular values ``s_i > rel_tol * s_max``, zero elsewhere."""
    keep = s > rel_tol * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return inv_s


def pseudoinverse(a, rel_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values ``s_i <= rel_tol * s_max`` are treated as zero.  The
    default ``rel_tol`` is ``max(rows, cols) * eps``, the usual numerical-rank
    cutoff.  A zero matrix maps to the (transposed-shape) zero matrix.

    Raises
    ------
    ValueError
        If ``rel_tol`` is negative, NaN or infinite.
    """
    a = as_matrix(a)
    if rel_tol is None:
        rel_tol = max(a.shape) * EPS
    if not 0 <= rel_tol < np.inf:
        raise ValueError(f"rel_tol must be finite and nonnegative, got {rel_tol}")
    u, s, v = svd(a)
    return (v * inverse_above_cutoff(s, rel_tol)) @ u.conj().T


def euclidean_norm(x: np.ndarray) -> float:
    """2-norm of a vector that neither overflows nor underflows.

    ``np.linalg.norm`` squares the entries, which leaves the float range
    beyond about 1e±154; dividing by the largest modulus first keeps them in it.
    """
    scale = float(np.max(np.abs(x)))
    return scale * float(np.linalg.norm(x / scale)) if scale > 0 else 0.0


def operator_norm(a) -> float:
    """Spectral norm: the largest singular value."""
    a = as_matrix(a)
    return float(np.linalg.norm(a, 2))


def frobenius_norm(a) -> float:
    """Entrywise 2-norm ``sqrt(sum |a_ij|^2)``; always >= operator_norm."""
    a = as_matrix(a)
    return float(np.linalg.norm(a, "fro"))
