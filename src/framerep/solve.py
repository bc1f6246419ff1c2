"""Frame-discretized least-squares solver for operator equations ``O f = g``.

The equation is pushed to coefficient space over a frame ``Phi``: with
``M = C_Phi @ O @ D_dual(Phi)`` and ``d = C_Phi g``, solving ``O f = g`` is
equivalent to solving ``M c = d`` on the analysis range and synthesizing the
solution coefficients with the dual frame.  ``d`` always lies in the analysis
range, so it needs no projection.  A finite section solves the leading
N x N block ``M_N c_N = d_N`` instead and pads ``c_N`` with zeros.

Neither M nor ``M_N`` is formed, and neither is pseudo-inverted.  With the
frame's QR ``C = Q R`` (see :mod:`framerep.frames`), ``D_dual = C^+ = R^-1
Q*``, so ``M = Q X Q*`` for the n x n core ``X = R O R^-1``.  The relative
cutoff ``SolveOptions.rel_tol`` drops the singular values of ``M_N`` at or
below ``rel_tol`` times the largest.

* Closed form (N = K, the cutoff provably drops nothing).  ``kappa_2(X) <=
  (B/A) kappa_2(O) <= (B/A) |O|_F |O^-1|_F``, so when this bound is below
  ``1 / rel_tol`` every singular value is kept, ``M^+ = Q X^-1 Q*`` and the
  solution ``R^-1 X^-1 R g`` is ``O^-1 g``.  One LU factorization of O gives
  both ``O^-1 g`` and ``|O^-1|_F``.  The coefficients are ``c = C f``, and
  ``M c - d = C (O f - g)`` because ``D_dual C = I``.  X is not formed, so no
  intermediate leaves the float range when the solution does not.  The LU
  comes first; on a frame whose singular values are not cached, one
  certificate (``Frame._condition_below``, see :mod:`framerep.frames`) that
  B/A is below both 1e6 and ``0.5 / (rel_tol |O|_F |O^-1|_F)`` settles the
  frame check, the guard and the warning; any other answer reads the
  singular values, so the report is the same bits.  A singular O, or a guard
  that fails even at B/A = 1, asks no certificate.
* Cutoff path (every other case: a section, a singular or ill-conditioned O,
  a large ``rel_tol``).  The solve reads the frame's R, works on ``Q* d = R
  g`` and returns ``y = Q* c``, from which the solution is ``R^-1 y``; the
  coefficient residual ``|M c - d|`` equals ``|X y - R g|``.

  - Full system (N = K): Q is an isometry, so ``M^+ = Q X^+ Q*`` and ``y =
    X^+ R g``; the coefficients ``c = Q y`` are computed as ``C f``.
  - Section (N < K): ``M_N = Q_N X Q_N*`` for the first N rows ``Q_N = C[:N]
    R^-1`` of Q.  With the reduced QR ``Q_N = Q1 R1`` and the
    ``min(N, n)``-square ``X_N = R1 X R1*``, ``M_N = Q1 X_N Q1*``, so
    ``c_N = Q1 X_N^+ R1 R g`` and ``y = Q_N* c_N = R1* X_N^+ R1 R g``.

  The small matrix (X or ``X_N``) has the nonzero singular values of
  ``M_N``, so the cutoff means the same as for an explicit pseudoinverse of
  ``M_N``.  The path reads R as ``R/p`` and its inverse ``(R/p)^-1``, both
  cached by the frame, for the power of two ``p`` with ``p <= s[0] < 2 p``.
  The division is exact in binary, cancels in X and in ``R^-1 y``, and
  leaves ``R g`` and y divided by p; ``C[:N]`` is divided by p before it
  meets ``(R/p)^-1``.  So neither X nor ``R g`` underflows or overflows
  merely because the frame's scale is far from 1.  Q itself is never formed,
  and R is not inverted again.

Every solve costs O(K n^2 + n^3).
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import SectionTooLarge
from .frames import CONDITION_WARN_RATIO, Frame
from .linalg import (EPS, as_vector, euclidean_norm, require_finite, require_shape,
                     solve_with_inverse, split_scale, svd)
from .represent import LinearOperator


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for :func:`solve`.

    section_size
        Solve only the leading N x N section of the K x K discretized system
        (default: N = K, the full system).
    rel_tol
        Singular values of the section ``M_N`` at or below this multiple of
        its largest one are treated as zero (default: ``N * machine
        epsilon``).
    """

    section_size: int | None = None
    rel_tol: float | None = None

    def __post_init__(self):
        if self.section_size is not None:
            try:
                size = operator.index(self.section_size)
            except TypeError:
                raise ValueError(
                    f"section_size must be an integer, got {self.section_size!r}") from None
            if size < 1:
                raise ValueError(f"section_size must be positive, got {size}")
            object.__setattr__(self, "section_size", size)
        tol = self.rel_tol
        if tol is not None and not (isinstance(tol, numbers.Real) and 0 <= tol < np.inf):
            raise ValueError(f"rel_tol must be a finite and nonnegative real number, got {tol!r}")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution vector plus diagnostics for one solve.

    ``residual_operator`` is ``|O f - g| / |g|`` in the original space;
    ``residual_matrix`` is ``|M c - d| / |d|`` for the full discretized
    system, ``d = C g`` and the zero-padded coefficients ``c`` (so a truncated
    solve shows its truncation error here).  Both are relative, so scaling g,
    O or the frame leaves them unchanged; each is 0 when its denominator is
    0.  ``section_used`` is N.
    """

    solution: np.ndarray
    coefficients: np.ndarray
    residual_operator: float
    residual_matrix: float
    section_used: int
    conditioning_warning: bool


def project_onto_analysis_range(frame: Frame, c) -> np.ndarray:
    """Orthogonal projection of coefficients onto the frame's analysis range.

    Applies ``Q Q*`` for the orthonormal Q of the frame's cached QR ``C = Q R``,
    which equals ``gram(frame, dual(frame))``; idempotent, self-adjoint, and
    the identity on any vector of the form ``C f``.  ``c`` is scaled first
    (:func:`~framerep.linalg.split_scale`); FrameRepError only if the result overflows.
    """
    # Q before the rank check: its QR caches R too, so the check takes no second QR
    q = frame._orthonormal_factor
    frame.require_frame("analysis-range projection")
    scale, c = split_scale(as_vector(c, "coefficient vector", frame.count))
    with np.errstate(over="ignore", invalid="ignore"):
        # (c* Q)* is Q* c without a conjugated copy of Q
        return require_finite("analysis-range projection", q @ (c.conj() @ q).conj() * scale)


#: What :func:`solve` names when the coefficients it returns leave the float range.
_COEFFICIENTS = "solution's coefficient vector"


def solve(op: LinearOperator, g, frame: Frame,
          options: SolveOptions | None = None) -> SolveReport:
    """Solve ``op @ f = g`` by frame discretization and least squares.

    Solves ``M_N c_N = d_N`` for the leading N x N section of ``M c = C g``
    (N = K unless ``options.section_size`` truncates it) with the cutoff
    pseudoinverse, zero-pads ``c_N`` to K coefficients and synthesizes the
    solution with the dual frame.  When the cutoff provably keeps every
    singular value of the full system, the solution is ``O^-1 g`` and is
    computed in that closed form; otherwise every section size runs in
    factored form on the frame's triangular factor R (see the module
    docstring).  No K x K array is formed.

    Inconsistent systems are reported through a large residual, not an error.

    Raises
    ------
    NotAFrame
        If the family does not span C^n.
    SectionTooLarge
        If the section is larger than the K x K system.
    DecompositionFailed
        If an SVD does not converge or R cannot be inverted.
    FrameRepError
        If the core X, the right-hand side's coefficients, the solution or its
        coefficients leave the float range.
    """
    if options is None:
        options = SolveOptions()
    g = as_vector(g, "right-hand side", frame.space_dim)
    n, k = frame.space_dim, frame.count
    n_section = options.section_size if options.section_size is not None else k
    rel_tol = options.rel_tol
    if rel_tol is None:
        rel_tol = n_section * EPS

    # the LU of O first.  B/A below 1e6 and 0.5 / (rel_tol |O|_F |O^-1|_F), taken without
    # overflow, means a frame, no warning and a rounded guard below 1
    closed = (_closed_form(op.matrix, g, rel_tol)
              if n_section == k and op.matrix.shape == (n, n) else None)
    if closed and "singular_values" not in frame.__dict__ and frame._condition_below(
            CONDITION_WARN_RATIO / max(1.0, 2 * CONDITION_WARN_RATIO * rel_tol * closed[1])):
        f_hat, warning = closed[0], False
    else:
        frame.require_frame("discretization")
        condition = frame.condition
        f_hat = closed[0] if closed and rel_tol * (condition * closed[1]) < 1.0 else None
        warning = condition > CONDITION_WARN_RATIO
    require_shape("operator matrix", op.matrix.shape, (n, n))
    if n_section > k:
        raise SectionTooLarge(f"section {n_section} exceeds the {k} x {k} discretized system")

    if f_hat is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            d = require_finite("right-hand side's coefficient vector C g",
                               frame.analysis_matrix @ g)
            # D_dual C = I, so c = C f solves M c = d, lies in M's range, and
            # M c - d = C (O f - g)
            c = require_finite(_COEFFICIENTS, frame.analysis_matrix @ f_hat)
            operator_residual = op(f_hat) - g
            # O f - g meets C as its quotient by a power of two, multiplied back
            # into the ratio, so C (O f - g) is not subnormal at a small frame scale
            residual_scale, unit_residual = split_scale(operator_residual)
            matrix_residual = frame.analysis_matrix @ unit_residual
    else:
        # the residual and right-hand side come as Q* (M c - d) and Q* d, of equal norms
        f_hat, c, matrix_residual, d = _solve_with_cutoff(op, g, frame, n_section, rel_tol)
        operator_residual, residual_scale = op(f_hat) - g, 1.0
    return SolveReport(
        solution=f_hat,
        coefficients=c,
        residual_operator=_relative(operator_residual, g),
        residual_matrix=_relative(matrix_residual, d) * residual_scale,
        section_used=n_section,
        conditioning_warning=warning,
    )


def _closed_form(o, g, rel_tol):
    """``(O^-1 g, |O|_F |O^-1|_F)`` while the closed form is possible, else None.

    The guard ``rel_tol * (condition * |O|_F |O^-1|_F) < 1`` bounds ``rel_tol
    kappa_2(X)``, so no singular value is at or below the cutoff.  None for a
    singular O, for an inverse or solution beyond the float range, and when
    the guard fails even at ``B/A = 1``, its least value.
    """
    solved = solve_with_inverse(o, g)
    if solved is None:
        return None
    f, inverse = solved
    # |O|_F |O^-1|_F >= n overflows only when kappa does; condition * |O|_F alone could
    norms = euclidean_norm(o) * euclidean_norm(inverse)
    return (f, norms) if rel_tol * norms < 1.0 else None


def _solve_with_cutoff(op, g, frame, n_section, rel_tol):
    """``(f, c, (X y - R g) / p, R g / p)`` of the factored cutoff solve (module docstring).

    ``p`` is the power of two with ``p <= s[0] < 2 p``; the caller reads only
    the ratio of the last two norms.
    """
    k = frame.count
    scale, r_unit, r_unit_inverse = frame._unit_triangular_factor
    # an array that leaves the float range turns inf or NaN, and the first
    # check it meets names it
    with np.errstate(over="ignore", invalid="ignore"):
        # kappa(R) reaches sqrt(B/A), so X can overflow where O does not
        x = require_finite("discretized system's core", r_unit @ op.matrix @ r_unit_inverse)
        # Q* d / p for d = C g = Q R g
        rg = r_unit @ g
        require_finite("right-hand side's coefficient vector Q* C g", rg * scale)
        if n_section == k:
            # y = Q* c / p for c = M^+ d = Q X^+ Q* d
            y = _solve_above_cutoff(x, rg, rel_tol, "discretized system's core")
        else:
            # M_N = Q_N X Q_N* = Q1 X_N Q1* with Q_N = Q1 R1 and X_N = R1 X R1*,
            # so c_N = Q1 X_N^+ Q1* d_N = Q1 X_N^+ R1 R g and y = Q_N* c_N = R1* X_N^+ R1 R g
            q1, r1 = np.linalg.qr((frame.analysis_matrix[:n_section] / scale) @ r_unit_inverse)
            z = _solve_above_cutoff(r1 @ x @ r1.conj().T, r1 @ rg, rel_tol,
                                    "finite section's core")
            y = r1.conj().T @ z
        # R^-1 y: p cancels between y and r_unit
        f_hat = require_finite("solution R^-1 y", r_unit_inverse @ y)
        if n_section == k:
            c = require_finite(_COEFFICIENTS, frame.analysis_matrix @ f_hat)  # = Q y
        else:
            c = np.zeros(k, dtype=np.complex128)
            c[:n_section] = require_finite(_COEFFICIENTS, q1 @ (z * scale))
        return f_hat, c, x @ y - rg, rg


def _relative(residual, reference) -> float:
    """``|residual| / |reference|``, or 0 when ``reference`` is zero."""
    scale = euclidean_norm(reference)
    return euclidean_norm(residual) / scale if scale > 0.0 else 0.0


def _solve_above_cutoff(a, b, rel_tol, what):
    """``a^+ b`` for the pseudoinverse that drops singular values ``<= rel_tol * s_max``.

    Not checked for overflow: :func:`_solve_with_cutoff` calls it under its
    ``np.errstate`` and names an inf or NaN where it reaches the solution or
    its coefficients.
    """
    ua, sa, va = svd(a, what)
    # reciprocals of the kept singular values, zero for the dropped ones
    inv_s = np.divide(1.0, sa, out=np.zeros_like(sa), where=sa > rel_tol * sa[0])
    return va @ (inv_s * (ua.conj().T @ b))
