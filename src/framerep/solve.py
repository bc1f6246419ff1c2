"""Frame-discretized least-squares solver for operator equations ``O f = g``.

The equation is pushed to coefficient space over a frame ``Phi``: with
``M = C_Phi @ O @ D_dual(Phi)`` and ``d = C_Phi g``, solving ``O f = g`` is
equivalent to solving ``M c = d`` on the analysis range and synthesizing the
solution coefficients with the dual frame.  ``d`` always lies in the analysis
range, so it needs no projection.  A finite section solves the leading
N x N block ``M_N c_N = d_N`` instead and pads ``c_N`` with zeros.

Neither M nor ``M_N`` is formed, and neither is pseudo-inverted.  With the
frame's thin SVD ``C = U diag(s) V*``, ``M = U core U*`` for the n x n
``core = diag(s) V* O V diag(1/s)``.  The solve reads only the frame's first
spectral layer ``(s, V)`` (see :mod:`framerep.frames`), works on
``U* d = diag(s) V* g`` and returns ``y = U* c``, from which the solution is
``V diag(1/s) y``; the coefficient residual ``|M c - d|`` equals
``|core y - U* d|``.

* Full system (N = K): U is an isometry, so ``M^+ = U core^+ U*`` and
  ``y = core^+ U* d``; the coefficients ``c = U y`` are computed as ``C f``.
* Section (N < K): ``M_N = U_N core U_N*`` for the first N rows
  ``U_N = C[:N] V diag(1/s)`` of U.  With the reduced QR ``U_N = Q1 R1`` and
  the ``min(N, n)``-square ``X = R1 core R1*``, ``M_N = Q1 X Q1*``, so
  ``c_N = Q1 X^+ R1 U* d`` and ``y = U_N* c_N = R1* X^+ R1 U* d``.

In both cases the small matrix (core or X) has the nonzero singular values
of ``M_N``, so the relative cutoff means the same as for an explicit
pseudoinverse of ``M_N``.  Every solve costs O(K n^2 + n^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SectionTooLarge
from .frames import CONDITION_WARN_RATIO, Frame
from .linalg import EPS, as_vector, euclidean_norm, require_finite, require_shape, svd
from .represent import LinearOperator


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for :func:`solve`.

    section_size
        Solve only the leading N x N section of the K x K discretized system
        (default: N = K, the full system).
    pseudoinverse_rel_tol
        Singular values of the section ``M_N`` at or below this multiple of
        its largest one are treated as zero (default: ``N * machine
        epsilon``).
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
    system and the zero-padded coefficients ``c`` (so a truncated solve shows
    its truncation error here).  ``section_used`` is N.
    """

    solution: np.ndarray
    coefficients: np.ndarray
    residual_operator: float
    residual_matrix: float
    section_used: int
    conditioning_warning: bool


def project_onto_analysis_range(frame: Frame, c) -> np.ndarray:
    """Orthogonal projection of coefficients onto the frame's analysis range.

    Applies ``U U*`` for the frame's cached SVD ``C = U diag(s) V*``, which
    equals ``gram(frame, dual(frame))``; idempotent, self-adjoint, and the
    identity on any vector of the form ``C f``.
    """
    frame.require_frame("analysis-range projection")
    c = as_vector(c, "coefficient vector", frame.count)
    u = frame.analysis_svd[0]
    return u @ (u.conj().T @ c)


#: What :func:`solve` names when the coefficients it returns leave the float range.
_COEFFICIENTS = "solution's coefficient vector"


def solve(op: LinearOperator, g, frame: Frame,
          options: SolveOptions | None = None) -> SolveReport:
    """Solve ``op @ f = g`` by frame discretization and least squares.

    Solves ``M_N c_N = d_N`` for the leading N x N section of ``M c = C g``
    (N = K unless ``options.section_size`` truncates it) with the cutoff
    pseudoinverse, zero-pads ``c_N`` to K coefficients and synthesizes the
    solution with the dual frame.  Every section size runs in factored form
    on the frame's ``(s, V)`` (see the module docstring); no K x K array is
    formed.

    Inconsistent systems are reported through a large residual, not an error.

    Raises
    ------
    NotAFrame
        If the family does not span C^n.
    SectionTooLarge
        If the section is larger than the K x K system.
    DecompositionFailed
        If an SVD does not converge.
    FrameRepError
        If the core, the right-hand side's coefficients, the solution or its
        coefficients leave the float range.
    """
    if options is None:
        options = SolveOptions()
    g = as_vector(g, "right-hand side", frame.space_dim)
    frame.require_frame("discretization")
    n, k = frame.space_dim, frame.count
    require_shape("operator matrix", op.matrix.shape, (n, n))
    n_section = options.section_size if options.section_size is not None else k
    if n_section > k:
        raise SectionTooLarge(f"section {n_section} exceeds the {k} x {k} discretized system")
    rel_tol = options.pseudoinverse_rel_tol
    if rel_tol is None:
        rel_tol = n_section * EPS

    _, s, v = frame.r_svd
    vh = v.conj().T
    # an array that leaves the float range turns inf or NaN, and the first
    # check it meets names it
    with np.errstate(over="ignore", invalid="ignore"):
        # s_i / s_j reaches sqrt(B/A), so the core can overflow where O does not
        core = require_finite("discretized system's core",
                              (s[:, None] * (vh @ op.matrix @ v)) / s)
        # U* d for d = C g = U diag(s) V* g
        ud = require_finite("right-hand side's coefficient vector U* C g", s * (vh @ g))
        if n_section == k:
            # y = U* c for c = M^+ d = U core^+ U* d
            y = _solve_above_cutoff(core, ud, rel_tol, "discretized system's core")
        else:
            # M_N = U_N core U_N* = Q1 X Q1* with U_N = Q1 R1 and X = R1 core R1*,
            # so c_N = Q1 X^+ Q1* d_N = Q1 X^+ R1 U* d and y = U_N* c_N = R1* X^+ R1 U* d
            q1, r1 = np.linalg.qr((frame.analysis_matrix[:n_section] @ v) / s)
            z = _solve_above_cutoff(r1 @ core @ r1.conj().T, r1 @ ud, rel_tol,
                                    "finite section's core")
            y = r1.conj().T @ z
            c = np.zeros(k, dtype=np.complex128)
            c[:n_section] = require_finite(_COEFFICIENTS, q1 @ z)
        f_hat = require_finite("solution V diag(1/s) y", v @ (y / s))
        if n_section == k:
            c = require_finite(_COEFFICIENTS, frame.analysis_matrix @ f_hat)  # = U y
    # |M c - d| = |U (core y - U* d)| and |d| = |U* d|
    residual_matrix = euclidean_norm(core @ y - ud) / (1.0 + euclidean_norm(ud))
    residual_operator = euclidean_norm(op(f_hat) - g) / (1.0 + euclidean_norm(g))
    return SolveReport(
        solution=f_hat,
        coefficients=c,
        residual_operator=residual_operator,
        residual_matrix=residual_matrix,
        section_used=n_section,
        conditioning_warning=frame.condition > CONDITION_WARN_RATIO,
    )


def _solve_above_cutoff(a, b, rel_tol, what):
    """``a^+ b`` for the pseudoinverse that drops singular values ``<= rel_tol * s_max``.

    ``a^+ b`` has the norm of the solution's coefficients, so it is where
    they first leave the float range; :func:`solve` calls it under its
    ``np.errstate``.
    """
    ua, sa, va = svd(a, what)
    # reciprocals of the kept singular values, zero for the dropped ones
    inv_s = np.divide(1.0, sa, out=np.zeros_like(sa), where=sa > rel_tol * sa[0])
    x = va @ (inv_s * (ua.conj().T @ b))
    return require_finite(_COEFFICIENTS, x)
