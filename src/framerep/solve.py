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
  solution ``R^-1 X^-1 R g`` is ``O^-1 g``, with ``c = C f``, as ``D_dual C
  = I``.  X is not formed, so no intermediate leaves the float range when
  the solution does not.  One LU of O gives ``O^-1 g``, ``|O|_F`` and
  ``|O^-1|_F``; then ``Frame._condition_below`` (a screen without a QR on a
  cold frame, see :mod:`framerep.frames`) answers whether B/A is below
  :func:`_certificate_threshold`.  True settles the frame check, the guard
  and the warning; any other answer reads the singular values, so the
  report is the same bits.
* Cutoff path (every other case: a section, a singular or ill-conditioned O,
  a large ``rel_tol``).  The solve reads the frame's R, works on ``Q* d = R
  g`` and returns ``y = Q* c``, from which the solution is ``R^-1 y``.

  - Full system (N = K): Q is an isometry, so ``M^+ = Q X^+ Q*`` and ``y =
    X^+ R g``; the coefficients ``c = Q y`` are computed as ``C f``.
  - Section (N < K): ``M_N = Q_N X Q_N*`` for the first N rows ``Q_N = C[:N]
    R^-1`` of Q.  With the reduced QR ``Q_N = Q1 R1`` and the
    ``min(N, n)``-square ``X_N = R1 X R1*``, ``M_N = Q1 X_N Q1*``, so
    ``c_N = Q1 X_N^+ R1 R g`` and ``y = Q_N* c_N = R1* X_N^+ R1 R g``.

  The small matrix (X or ``X_N``) has the nonzero singular values of
  ``M_N``, so the cutoff means the same as for an explicit pseudoinverse of
  ``M_N``.  The path reads R as ``R/p`` and its inverse ``(R/p)^-1``, both
  cached by the frame, for C's power of two ``p = 2^e``, kept as e.  The
  division is exact in binary, cancels in X and in ``R^-1 y``, and leaves
  ``R g`` and y divided by p; ``C[:N]`` is divided by p before it meets
  ``(R/p)^-1``, and a section's coefficients are multiplied by p, each
  through the ``exponent`` of :func:`~framerep.linalg.finite_product`.  So
  neither X nor ``R g`` underflows or overflows merely because the frame's
  scale is far from 1.  Q itself is never formed, and R is not inverted again.

Every path returns coefficients that synthesize its solution, ``f = D_dual
c``, so ``M c - d = C (O f - g)``.  Both residuals are taken from f after
either path, and both are one ratio rule,
:func:`~framerep.linalg.product_norm_ratio`: ``O f - g`` over g, and ``C (O
f - g)`` over ``C g``, each norm read on the exponent ledger with its
product's power of two kept apart, and 0 when the denominator is 0.  So
neither norm underflows or overflows merely because of the scale of g or of
the frame, and ``C g`` is never refused.  Every solve costs O(K n^2 + n^3).
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import SectionTooLarge
from .frames import CONDITION_WARN_RATIO, Frame
from .linalg import (EPS, as_vector, finite_product, product_norm_ratio, require_shape,
                     solve_with_condition, svd)
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
    solve shows its truncation error here), read as ``|C (O f - g)| / |C g|``
    since ``f = D_dual c``.  Both are ratios on the exponent ledger of
    :func:`~framerep.linalg.product_norm_ratio`, so they are relative and
    scaling g, O or the frame leaves them unchanged; each is 0 when its
    denominator is 0.
    ``section_used`` is N.
    """

    solution: np.ndarray
    coefficients: np.ndarray
    residual_operator: float
    residual_matrix: float
    section_used: int
    conditioning_warning: bool


def project_onto_analysis_range(frame: Frame, c) -> np.ndarray:
    """Orthogonal projection of coefficients onto the frame's analysis range.

    Applies ``Q Q*`` for the orthonormal Q of the frame's cached QR ``C = Q R``
    through ``Frame._project``, the one place Q is applied; ``Q Q*`` equals
    ``gram(frame, dual(frame))``, is idempotent, self-adjoint, and the
    identity on any vector of the form ``C f``.  Both products go through
    :func:`~framerep.linalg.finite_product`, so FrameRepError is raised only
    if the projection itself overflows.
    """
    return frame._project(as_vector(c, "coefficient vector", frame.count),
                          "analysis-range projection")


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
        If the core X, a section's core, the solution or its coefficients
        leave the float range.
    """
    options = options if options is not None else SolveOptions()
    g = as_vector(g, "right-hand side", frame.space_dim)
    n, k = frame.space_dim, frame.count
    n_section = options.section_size if options.section_size is not None else k
    rel_tol = options.rel_tol if options.rel_tol is not None else n_section * EPS

    require_shape("operator matrix", op.matrix.shape, (n, n))
    if n_section > k:
        raise SectionTooLarge(f"section {n_section} exceeds the {k} x {k} discretized system")

    closed = solve_with_condition(op.matrix, g) if n_section == k else None
    if closed and frame._condition_below(_certificate_threshold(rel_tol, closed[1:])):
        f_hat, warning = closed[0], False
    else:
        frame.require_frame("discretization")
        condition = frame.condition
        f_hat = closed[0] if closed and _guard_excess(rel_tol, closed[1:], condition) < 1 else None
        warning = condition > CONDITION_WARN_RATIO

    # an array that leaves the float range turns inf or NaN, and the first
    # check it meets names it: only the returned f and c, and the products
    # formed on the way to them, are checked
    with np.errstate(over="ignore", invalid="ignore"):
        if f_hat is None:
            f_hat, c = _solve_with_cutoff(op, g, frame, n_section, rel_tol)
        if n_section == k:
            # D_dual C = I, so c = C f solves M c = d and lies in M's range
            c = finite_product(_COEFFICIENTS, frame.analysis_matrix, f_hat)
        operator_residual = op(f_hat) - g
    return SolveReport(
        solution=f_hat,
        coefficients=c,
        residual_operator=product_norm_ratio((operator_residual,), (g,)),
        # every path returns f = D_dual c, so M c - d = C (O f - g)
        residual_matrix=product_norm_ratio((frame.analysis_matrix, operator_residual),
                                           (frame.analysis_matrix, g)),
        section_used=n_section,
        conditioning_warning=warning,
    )


def _guard_excess(rel_tol: float, norms: tuple[float, float], ratio: float) -> float:
    """The closed form's guard product ``rel_tol ratio |O|_F |O^-1|_F`` at B/A = ``ratio``.

    The guard holds when it is below 1.  ``norms`` is ``(|O|_F, |O^-1|_F)``.
    Taken left to right, the product, which bounds ``rel_tol kappa_2(X)``,
    underflows only below 1 and overflows only above 1.  It is 0 for
    ``rel_tol = 0``, which sets no limit.
    """
    return rel_tol * ratio * norms[0] * norms[1] if rel_tol else 0.0


def _certificate_threshold(rel_tol: float, norms: tuple[float, float]) -> float:
    """``min(1e6, half the guard's limit)``, NaN for ``0 * inf``: B/A below it passes unwarned."""
    excess = _guard_excess(rel_tol, norms, 2 * CONDITION_WARN_RATIO)
    return CONDITION_WARN_RATIO if excess <= 1 else CONDITION_WARN_RATIO / excess


def _solve_with_cutoff(op, g, frame, n_section, rel_tol):
    """``(f, c)`` of the factored cutoff solve (module docstring), f = D_dual c; c None if N = K."""
    k = frame.count
    (exponent, r_unit), r_unit_inverse = frame._triangular_factor, frame._triangular_inverse
    # kappa(R) reaches sqrt(B/A), so X can overflow where O does not
    x = finite_product("discretized system's core", r_unit, op.matrix, r_unit_inverse)
    # Q* d / p for d = C g = Q R g
    rg = r_unit @ g
    if n_section == k:
        # y = Q* c / p for c = M^+ d = Q X^+ Q* d
        y = _solve_above_cutoff(x, rg, rel_tol, "discretized system's core")
    else:
        # M_N = Q_N X Q_N* = Q1 X_N Q1* with Q_N = Q1 R1 and X_N = R1 X R1*,
        # so c_N = Q1 X_N^+ Q1* d_N = Q1 X_N^+ R1 R g and y = Q_N* c_N = R1* X_N^+ R1 R g
        rows = finite_product("finite section's rows", frame.analysis_matrix[:n_section],
                              exponent=-exponent)
        q1, r1 = np.linalg.qr(rows @ r_unit_inverse)
        core = finite_product("finite section's core", r1, x, r1.conj().T)
        z = _solve_above_cutoff(core, r1 @ rg, rel_tol, "finite section's core")
        y = r1.conj().T @ z
    # R^-1 y: p cancels between y and r_unit
    f_hat = finite_product("solution R^-1 y", r_unit_inverse, y)
    if n_section == k:
        return f_hat, None
    c = np.zeros(k, dtype=np.complex128)
    c[:n_section] = finite_product(_COEFFICIENTS, q1, z, exponent=exponent)
    return f_hat, c


def _solve_above_cutoff(a, b, rel_tol, what):
    """``a^+ b`` for the pseudoinverse that drops singular values ``<= rel_tol * s_max``.

    Not checked for overflow: :func:`solve` runs it under its ``np.errstate``
    and names an inf or NaN where it reaches the solution or its coefficients.
    """
    ua, sa, va = svd(a, what)
    # reciprocals of the kept singular values, zero for the dropped ones
    inv_s = np.divide(1.0, sa, out=np.zeros_like(sa), where=sa > rel_tol * sa[0])
    return va @ (inv_s * (ua.conj().T @ b))
