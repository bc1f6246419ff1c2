"""Frame-discretized least-squares solver for operator equations ``O f = g``.

The equation is pushed to coefficient space over a frame ``Phi``: with
``M = C_Phi O D_dual(Phi)`` and ``d = C_Phi g``, solving ``O f = g`` is
equivalent to solving ``M c = d`` on the analysis range and synthesizing the
solution coefficients with the dual frame.  ``d`` always lies in the analysis
range, so it needs no projection.  A finite section solves the leading
N x N block ``M_N c_N = d_N`` instead and pads ``c_N`` with zeros.

Every path runs on g's mantissa: :func:`solve` first takes the
:func:`~framerep.linalg.ledger_pair` ``(e_g, g / 2^e_g)`` of g, with e_g = 0
inside the exponent ledger's band ``[2^-969, 2^960)``, and below g stands for
``g / 2^e_g``.  The returned f and c take ``2^e_g`` as the ``exponent`` of
their products, so the solve does not depend on g's scale beyond it: a g
outside the band gives the bits of the same solve on its mantissa times
``2^e_g``, wherever they are normal floats.

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
  ``|O^-1|_F`` (None, and so the cutoff path, when the LU lost O, see
  :func:`~framerep.linalg.solve_with_condition`); then
  ``Frame._condition_below`` (a screen without a QR on a cold frame at any
  frame scale, see :mod:`framerep.frames`) answers whether B/A is below
  :func:`_certificate_threshold`.  True settles the frame check, the guard
  and the warning; any other answer reads the singular values, so the
  report is the same bits.  Scaling ``O^-1 g`` by ``2^e_g`` is named, like
  the cutoff path's solution, "solution R^-1 y".
* Cutoff path (every other case: a section, a singular or ill-conditioned O,
  a large ``rel_tol``).  The solve reads the frame's R and works on ``Q* d
  = R g``; the solution is ``R^-1 y`` for ``y = Q* c``.

  - Full system (N = K): Q is an isometry, so ``M^+ = Q X^+ Q*``, ``y = X^+
    R g`` and ``f = R^-1 X^+ R g``; the coefficients ``c = Q y`` are
    computed as ``C f``.
  - Section (N < K): ``M_N = Q_N X Q_N*`` for the first N rows ``Q_N = C[:N]
    R^-1`` of Q.  With the reduced QR ``Q_N = Q1 R1`` and the
    ``min(N, n)``-square ``X_N = R1 X R1*``, ``M_N = Q1 X_N Q1*``, so
    ``c_N = Q1 X_N^+ R1 R g`` and ``f = R^-1 Q_N* c_N = R^-1 R1* X_N^+ R1 R
    g``.

  The small matrix (X or ``X_N``) has the nonzero singular values of
  ``M_N``, so the cutoff means the same as for an explicit pseudoinverse of
  ``M_N``; the pseudoinverse enters as its factors ``V diag(1/s) U*``.  Each
  value the path returns is one :func:`~framerep.linalg.finite_product`
  chain from g, written transposed (``g^T R^T ...``), so no intermediate
  leaves the float range merely because of g's scale or the frame's: a
  chain is refused only if its value is.  The path reads R as ``R/p`` and
  its inverse ``(R/p)^-1``, both cached by the frame, for C's power of two
  ``p = 2^e``, kept as e.  The division is exact in binary and cancels in X
  and in f; ``Q_N`` takes ``1/p`` and a section's coefficients take p, each
  as the ``exponent`` of its product.  Q itself is never formed, and R is
  not inverted again.

Every path returns coefficients that synthesize its solution, ``f = D_dual
c``, so ``M c - d = C (O f - g)``.  Both residuals are taken from the
returned f after either path, divided back by ``2^e_g`` (exact, also for a
subnormal f), against g's mantissa, and both are one ratio rule,
:func:`~framerep.linalg.product_norm_ratio`: ``O f - g`` over g, and ``C (O
f - g)`` over ``C g``, each norm read on the exponent ledger with its
product's power of two kept apart, and 0 when the denominator is 0.  So
neither the residual vector nor a norm underflows or overflows merely
because of the scale of g or of the frame, also where a product's entries
are in range and its norm is not, and ``C g`` is never refused.  Every solve
costs O(K n^2 + n^3).
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import SectionTooLarge
from .frames import CONDITION_WARN_RATIO, Frame
from .linalg import (EPS, as_vector, finite_product, ledger_pair, product_norm_ratio,
                     require_shape, solve_with_condition, svd)
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


#: What :func:`solve` names when the solution or the coefficients it returns leave the float range.
_SOLUTION, _COEFFICIENTS = "solution R^-1 y", "solution's coefficient vector"


def solve(op: LinearOperator, g, frame: Frame,
          options: SolveOptions | None = None) -> SolveReport:
    """Solve ``op(f) = g`` by frame discretization and least squares.

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

    # every path runs on g's mantissa g / 2^e, e = 0 inside the ledger's band
    g_exponent, g = ledger_pair(g)
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
            f_hat, c = _solve_with_cutoff(op, g, frame, n_section, rel_tol, g_exponent)
        elif g_exponent:
            f_hat = finite_product(_SOLUTION, f_hat, exponent=g_exponent)
        # the returned f over 2^e, exact also where f is subnormal; for e = 0 both
        # scalings are skipped, as they change no bit and cost 1% of a cold solve
        f_unit = finite_product(_SOLUTION, f_hat, exponent=-g_exponent) if g_exponent else f_hat
        if n_section == k:
            # D_dual C = I, so c = C f solves M c = d and lies in M's range
            c = finite_product(_COEFFICIENTS, frame.analysis_matrix, f_unit, exponent=g_exponent)
        operator_residual = op(f_unit) - g
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


def _solve_with_cutoff(op, g, frame, n_section, rel_tol, g_exponent):
    """``(f, c)`` of the factored cutoff solve (module docstring), f = D_dual c; c None if N = K.

    Each is one :func:`~framerep.linalg.finite_product` chain from g's mantissa
    ``g``, written transposed (``g^T R^T ...``) so that it runs right to left on
    vectors, and times ``2^g_exponent``.
    """
    (exponent, r_unit), r_unit_inverse = frame._triangular_factor, frame._triangular_inverse
    # kappa(R) reaches sqrt(B/A), so X can overflow where O does not
    x = finite_product("discretized system's core", r_unit, op.matrix, r_unit_inverse)
    if n_section == frame.count:
        # f = R^-1 X^+ R g, in which p cancels between R/p and (R/p)^-1
        chain = (g, r_unit.T, *_cutoff_pseudoinverse(x, rel_tol, "discretized system's core"))
        return finite_product(_SOLUTION, *chain, r_unit_inverse.T, exponent=g_exponent), None
    # M_N = Q_N X Q_N* = Q1 X_N Q1* with Q_N = C[:N] R^-1 = Q1 R1 and X_N = R1 X R1*,
    # so c_N = Q1 X_N^+ R1 R g and f = R^-1 Q_N* c_N = R^-1 R1* X_N^+ R1 R g
    q1, r1 = np.linalg.qr(finite_product("finite section's rows", frame.analysis_matrix[:n_section],
                                         r_unit_inverse, exponent=-exponent))
    core = finite_product("finite section's core", r1, x, r1.conj().T)
    chain = (g, r_unit.T, r1.T, *_cutoff_pseudoinverse(core, rel_tol, "finite section's core"))
    f_hat = finite_product(_SOLUTION, *chain, r1.conj(), r_unit_inverse.T, exponent=g_exponent)
    c_n = finite_product(_COEFFICIENTS, *chain, q1.T, exponent=exponent + g_exponent)
    return f_hat, np.concatenate((c_n, np.zeros(frame.count - n_section)))


def _cutoff_pseudoinverse(a, rel_tol, what):
    """``(conj(U), 1/s, V^T)``: the transposed factors of ``a^+ = V diag(1/s) U*``.

    The pseudoinverse drops the singular values ``<= rel_tol * s_max``: their
    reciprocals are zero.  ``1/s`` is not checked for overflow: :func:`solve`
    runs this under its ``np.errstate``, and the chain it enters names an inf.
    """
    u, s, v = svd(a, what)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > rel_tol * s[0])
    return u.conj(), inv_s, v.T
