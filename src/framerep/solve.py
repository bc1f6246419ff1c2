"""Frame-discretized least-squares solver for operator equations ``O f = g``.

The equation is pushed to coefficient space over a frame ``Phi``: with
``M = C_Phi @ O @ D_dual(Phi)`` and ``d = C_Phi g``, solving ``O f = g`` is
equivalent to solving ``M c = d`` on the analysis range and synthesizing the
solution coefficients with the dual frame.  ``d`` always lies in the analysis
range, so it needs no projection.

The full K x K system is never formed.  With the frame's thin SVD
``C = U diag(s) V*``, ``M = U core U*`` for the n x n
``core = diag(s) V* O V diag(1/s)``; U is an isometry, so
``M^+ = U core^+ U*`` and M's nonzero singular values are core's.  The solve
reads only the frame's first spectral layer ``(s, V)`` (see
:mod:`framerep.frames`) and never forms U: ``U* d = diag(s) V* g``, the
coefficient residual ``|U core y - d|`` equals ``|core y - U* d|``, the
solution is ``V diag(1/s) y`` for ``y = U* c``, and the coefficients
``c = U y`` are computed as ``C f``.  The solve then costs O(K n^2 + n^3)
instead of O(K^3).  A truncated finite section (N < K) breaks this
factorization and is solved explicitly: its top-left N x N block of M goes
through the SVD pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, SectionTooLarge
from .frames import CONDITION_WARN_RATIO, Frame
from .linalg import (
    EPS,
    as_matrix,
    as_vector,
    euclidean_norm,
    inverse_above_cutoff,
    pseudoinverse,
    svd,
)
from .represent import LinearOperator, matrix_of_operator


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for :func:`solve`.

    section_size
        Truncate the discretized system to its leading N x N block
        (default: the full K x K system).
    pseudoinverse_rel_tol
        Relative singular-value cutoff for the least-squares solve, relative
        to the largest singular value of the (section of the) discretized
        system (default: ``K * machine epsilon``, or ``N * machine epsilon``
        for an N x N section).
    """

    section_size: int | None = None
    pseudoinverse_rel_tol: float | None = None

    def __post_init__(self):
        if self.section_size is not None and self.section_size < 1:
            raise ValueError(f"section_size must be positive, got {self.section_size}")
        tol = self.pseudoinverse_rel_tol
        if tol is not None and not 0 <= tol < np.inf:
            raise ValueError(f"pseudoinverse_rel_tol must be finite and nonnegative, got {tol}")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution vector plus diagnostics for one solve.

    ``residual_operator`` is ``|O f - g| / (1 + |g|)`` in the original space;
    ``residual_matrix`` is ``|M c - d| / (1 + |d|)`` for the full discretized
    system (so a truncated solve shows its truncation error here).
    """

    solution: np.ndarray
    coefficients: np.ndarray
    residual_operator: float
    residual_matrix: float
    section_used: int
    conditioning_warning: bool


def _require_operator_on_frame_space(op: LinearOperator, frame: Frame) -> None:
    frame.require_frame("discretization")
    n = frame.space_dim
    if op.dim_in != n or op.dim_out != n:
        raise DimensionMismatch(
            f"discretization over a single frame needs an operator on C^{n}, "
            f"got C^{op.dim_in} -> C^{op.dim_out}"
        )


def discretize(op: LinearOperator, frame: Frame):
    """Coefficient-space matrix of ``op`` and the matching right-hand-side map.

    Returns ``(M, rhs_map)`` with ``M = C_frame @ op @ D_dual(frame)`` and
    ``rhs_map(g) = C_frame g``, so that ``O f = g`` iff ``M (C f) = C g``.
    The operator must act on the frame's space.
    """
    _require_operator_on_frame_space(op, frame)
    m = matrix_of_operator(op, frame, frame.canonical_dual()).matrix
    return m, frame.analyze


def project_onto_analysis_range(frame: Frame, c) -> np.ndarray:
    """Orthogonal projection of coefficients onto the frame's analysis range.

    Applies ``U U*`` for the frame's cached SVD ``C = U diag(s) V*``, which
    equals ``gram(frame, dual(frame))``; idempotent, self-adjoint, and the
    identity on any vector of the form ``C f``.
    """
    frame.require_frame("analysis-range projection")
    c = as_vector(c, "coefficient vector")
    if c.shape != (frame.count,):
        raise DimensionMismatch(
            f"expected {frame.count} coefficients, got {c.shape[0]}"
        )
    u = frame.analysis_svd[0]
    return u @ (u.conj().T @ c)


def finite_section(matrix, n: int) -> np.ndarray:
    """Top-left ``n x n`` submatrix, entries copied bit-identically."""
    m = as_matrix(matrix)
    if n < 1:
        raise ValueError(f"section size must be positive, got {n}")
    if n > min(m.shape):
        raise SectionTooLarge(
            f"section {n} exceeds matrix dimensions {m.shape[0]}x{m.shape[1]}"
        )
    return m[:n, :n].copy()


def solve(op: LinearOperator, g, frame: Frame,
          options: SolveOptions | None = None) -> SolveReport:
    """Solve ``op @ f = g`` by frame discretization and least squares.

    Builds the coefficient system, solves it with the SVD pseudoinverse, and
    synthesizes the solution with the dual frame.  The full system is solved
    in factored form (see the module docstring); a truncated finite section
    is solved explicitly and its coefficients are zero-padded back to full
    length.

    Inconsistent systems are reported through a large residual, not an error.
    """
    if options is None:
        options = SolveOptions()
    g = as_vector(g, "right-hand side")
    if g.shape != (frame.space_dim,):
        raise DimensionMismatch(
            f"right-hand side must live in C^{frame.space_dim}, got dim {g.shape[0]}"
        )
    k = frame.count
    n_section = options.section_size if options.section_size is not None else k
    if n_section == k:
        c, f_hat, residual_matrix = _solve_factored(op, g, frame, options.pseudoinverse_rel_tol)
    else:
        c, f_hat, residual_matrix = _solve_section(
            op, g, frame, options.pseudoinverse_rel_tol, n_section
        )
    residual_operator = euclidean_norm(op(f_hat) - g) / (1.0 + euclidean_norm(g))
    return SolveReport(
        solution=f_hat,
        coefficients=c,
        residual_operator=residual_operator,
        residual_matrix=residual_matrix,
        section_used=n_section,
        conditioning_warning=frame.condition > CONDITION_WARN_RATIO,
    )


def _solve_factored(op, g, frame, rel_tol):
    """Solve ``M c = C g`` through the n x n core, from the frame's ``(s, V)`` alone.

    Returns ``(c, D_dual c, residual_matrix)``.
    """
    _require_operator_on_frame_space(op, frame)
    _, s, v = frame.r_svd
    core = (s[:, None] * (v.conj().T @ op.matrix @ v)) / s
    uc, sc, vc = svd(core, "discretized system's core")
    if rel_tol is None:
        rel_tol = frame.count * EPS
    ud = s * (v.conj().T @ g)  # U* d for d = C g = U diag(s) V* g
    # y = U* c, where c = M^+ d = U core^+ U* d
    y = vc @ (inverse_above_cutoff(sc, rel_tol) * (uc.conj().T @ ud))
    residual_matrix = euclidean_norm(core @ y - ud) / (1.0 + euclidean_norm(ud))
    f_hat = v @ (y / s)
    return frame.analysis_matrix @ f_hat, f_hat, residual_matrix


def _solve_section(op, g, frame, rel_tol, n_section):
    """Solve the explicit top-left N x N block of ``M c = C g``, N < K.

    Returns ``(c, D_dual c, residual_matrix)`` with ``c`` zero-padded to K.
    """
    d = frame.analyze(g)
    m, _ = discretize(op, frame)
    m_section = finite_section(m, n_section)
    c = np.zeros(frame.count, dtype=np.complex128)
    c[:n_section] = pseudoinverse(m_section, rel_tol) @ d[:n_section]
    residual_matrix = euclidean_norm(m @ c - d) / (1.0 + euclidean_norm(d))
    return c, frame.canonical_dual().synthesize(c), residual_matrix
