"""Matrix representations of operators in frame coordinates.

A bounded operator ``O : C^n1 -> C^n2`` and a pair of frames ``Psi`` (in the
domain) and ``Phi`` (in the codomain) induce a coefficient-space matrix

    rep[m, k] = <O psi_k, phi_m>,   i.e.   rep = C_Phi @ O @ D_Psi,

and conversely a K_Phi x K_Psi matrix ``M`` induces the operator
``D_Phi @ M @ C_Psi``.  With canonical duals in the right slots the two maps
invert each other, compose multiplicatively, and carry the operator norm and
the Hilbert-Schmidt norm up to a factor ``sqrt(B_Psi * B_Phi)``.  In C^n the
Hilbert-Schmidt norm of an operator is the Frobenius norm of its
standard-basis matrix, and that matrix doubles as the operator's integral
kernel: ``<O f, g> = g* K f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import IncompatibleFrames
from .frames import RANK_RTOL, Frame
from .linalg import (as_matrix, as_vector, euclidean_norm, finite_product, frobenius_norm,
                     frozen, require_finite, require_shape, split_exponent, wrap_checked)


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A linear map C^dim_in -> C^dim_out held as its standard-basis matrix.

    The matrix is simultaneously the operator's integral kernel in the
    finite-dimensional sense: ``<O f, g> = g* @ matrix @ f``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        # copy before freezing so the caller's array is never locked
        object.__setattr__(self, "matrix",
                           frozen(as_matrix(self.matrix, "operator matrix").copy()))

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, f) -> np.ndarray:
        """The image ``O f`` of a vector in C^dim_in; FrameRepError on overflow."""
        f = as_vector(f, "operator argument", self.dim_in)
        return finite_product("operator image O f", self.matrix, f)

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        """Composition ``self o other`` (apply ``other`` first); FrameRepError on overflow."""
        if not isinstance(other, LinearOperator):
            return NotImplemented
        require_shape("right operator matrix", other.matrix.shape, (self.dim_in, None))
        return wrap_checked(LinearOperator, "matrix",
                            finite_product("composition", self.matrix, other.matrix))


def identity_operator(n: int) -> LinearOperator:
    """The identity on C^n."""
    return LinearOperator(np.eye(n, dtype=np.complex128))


def rank_one(f, g) -> LinearOperator:
    """The operator ``h -> <h, g> f`` with matrix ``f g*``; FrameRepError on overflow."""
    f = as_vector(f, "output vector")
    g = as_vector(g, "input vector")
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.outer(f, g.conj())
    return wrap_checked(LinearOperator, "matrix", require_finite("rank-one operator f g*", m))


def hs_norm(op: LinearOperator) -> float:
    """Hilbert-Schmidt norm: sqrt(sum_n |O e_n|^2) over any orthonormal basis.

    Independent of the basis, hence equal to the Frobenius norm of the
    standard-basis matrix; always at least the operator norm.
    """
    return frobenius_norm(op.matrix)


@dataclass(frozen=True, eq=False)
class Representation:
    """A coefficient-space matrix tagged with the frame pair that built it.

    ``matrix`` is K_analysis x K_synthesis.  Products of representations are
    only meaningful when the inner frames form a (frame, canonical dual)
    sandwich, so :meth:`compose` checks exactly that before multiplying.
    """

    matrix: np.ndarray
    analysis_frame: Frame
    synthesis_frame: Frame

    def __post_init__(self):
        m = as_matrix(self.matrix, "representation matrix",
                      (self.analysis_frame.count, self.synthesis_frame.count))
        object.__setattr__(self, "matrix", frozen(m.copy()))

    def compose(self, other: "Representation") -> "Representation":
        """Multiply two representations sharing a dual sandwich.

        Valid when ``other.analysis_frame`` is (numerically) the canonical
        dual of ``self.synthesis_frame``; the result then represents the
        composed operator over ``(self.analysis_frame, other.synthesis_frame)``.
        Raises FrameRepError if an entry leaves the float range.
        """
        if not isinstance(other, Representation):
            raise TypeError(f"expected a Representation, got {type(other).__name__}")
        require_shape("right representation matrix", other.matrix.shape,
                      (self.synthesis_frame.count, None))
        dual = self.synthesis_frame.canonical_dual()
        if other.analysis_frame is not dual and not other.analysis_frame.allclose(dual):
            raise IncompatibleFrames(
                "representation product needs the right factor's analysis "
                "frame to be the canonical dual of the left factor's "
                "synthesis frame"
            )
        m = finite_product("representation product", self.matrix, other.matrix)
        return wrap_checked(Representation, "matrix", m, analysis_frame=self.analysis_frame,
                            synthesis_frame=other.synthesis_frame)

    def __matmul__(self, other: "Representation") -> "Representation":
        if not isinstance(other, Representation):
            return NotImplemented
        return self.compose(other)


def matrix_of_operator(op: LinearOperator, analysis_frame: Frame,
                       synthesis_frame: Frame) -> Representation:
    """Represent an operator in frame coordinates.

    Entry [m, k] is ``<O psi_k, phi_m>`` where ``psi`` is the synthesis
    (domain) frame and ``phi`` the analysis (codomain) frame; as a product,
    ``C_phi @ O @ D_psi``.  The spectral norm of the result is bounded by
    ``sqrt(B_psi * B_phi) * |O|_op``.  Raises FrameRepError if an entry
    leaves the float range.
    """
    require_shape("operator matrix", op.matrix.shape,
                  (analysis_frame.space_dim, synthesis_frame.space_dim))
    m = finite_product("representation matrix C_phi O D_psi", analysis_frame.analysis_matrix,
                       op.matrix, synthesis_frame.synthesis_matrix)
    return wrap_checked(Representation, "matrix", m, analysis_frame=analysis_frame,
                        synthesis_frame=synthesis_frame)


def operator_of_matrix(matrix, synthesis_frame: Frame, analysis_frame: Frame) -> LinearOperator:
    """The operator a coefficient-space matrix induces: ``D_phi @ M @ C_psi``.

    ``matrix`` must be K_phi x K_psi for the synthesis frame ``phi`` (output
    side) and analysis frame ``psi`` (input side).  The operator norm is
    bounded by ``sqrt(B_psi * B_phi) * |M|_op``.  Raises FrameRepError if an
    entry leaves the float range.
    """
    m = as_matrix(matrix, "coefficient matrix", (synthesis_frame.count, analysis_frame.count))
    out = finite_product("induced operator D_phi M C_psi", synthesis_frame.synthesis_matrix, m,
                         analysis_frame.analysis_matrix)
    return wrap_checked(LinearOperator, "matrix", out)


def roundtrip_reconstruct(op: LinearOperator, phi: Frame, psi: Frame) -> LinearOperator:
    """Rebuild an operator from its representation over the dual frame pair.

    Realizes ``O = D_phi M C_psi`` for ``M`` the representation of ``op`` over
    ``(dual(phi), dual(psi))``, associated as ``(D_phi C_dual(phi)) O
    (D_dual(psi) C_psi)``: the K x K ``M`` is never formed, and each frame's
    scale cancels against its dual's in an n x n factor.  Each frame caches
    its factor (``psi``'s is its dual's, whose dual is ``psi``), so the first
    call costs O(K n^2 + n^3) and a call on warm frames O(n^3).
    """
    left = phi._reconstruction_factor
    right = psi.canonical_dual()._reconstruction_factor
    require_shape("operator matrix", op.matrix.shape, (phi.space_dim, psi.space_dim))
    return wrap_checked(LinearOperator, "matrix", finite_product(
        "reconstructed operator D_phi C_dual(phi) O D_dual(psi) C_psi", left, op.matrix, right))


def frame_multiplier(weights, synthesis_frame: Frame, analysis_frame: Frame) -> LinearOperator:
    """The operator induced by a diagonal coefficient matrix.

    ``weights`` is a length-K sequence (real or complex); the result is
    ``sum_k weights_k * phi_k (x) conj(psi_k)``, the induced operator of
    ``diag(weights)``, computed as one :func:`~framerep.linalg.finite_product`
    ``D_phi w C_psi``, whose 1-d middle factor scales the columns of ``D_phi``
    without the K x K diagonal.  So FrameRepError is raised only if an entry
    of the operator itself leaves the float range.
    """
    require_shape("vectors of analysis_frame", analysis_frame.vectors.shape,
                  (synthesis_frame.count, None))
    w = as_vector(weights, "multiplier weights", synthesis_frame.count)
    return wrap_checked(LinearOperator, "matrix", finite_product(
        "frame multiplier", synthesis_frame.synthesis_matrix, w, analysis_frame.analysis_matrix))


def operator_from_images(frame: Frame, images, diagnose: bool = False):
    """The bounded operator sending ``f`` to ``sum_k <f, dual_k> images_k``.

    This is the well-defined way to prescribe images for the frame vectors:
    the images enter through the canonical dual's coefficients, so the result
    is always a bounded operator.  For redundant frames the naive
    interpolation ``V(psi_k) = images_k`` generally fails; it holds for Riesz
    bases.

    With ``diagnose=True`` also returns a bool reporting whether naive
    interpolation would have been consistent, i.e. whether every linear
    dependency among the frame vectors is matched by the same dependency
    among the images.  That holds exactly when ``Q Q* conj(E) = conj(E)`` for
    the K x m image matrix E, a range test by ``Frame._project``, the one
    place the frame's Q is applied: the images count as consistent when the
    part of ``conj(E)/p`` outside the range is at most ``sqrt(RANK_RTOL)
    |E/p|``, p the images' power of two.  Raises FrameRepError if an entry of
    the operator leaves the float range.
    """
    dual = frame.canonical_dual()
    e = as_matrix(images, "images", (frame.count, None))
    op = wrap_checked(LinearOperator, "matrix",
                      finite_product("operator from images", e.T, dual.analysis_matrix))
    if not diagnose:
        return op
    # V psi_k = images_k for every k iff E^T Q Q* = E^T, i.e. Q Q* conj(E) = conj(E)
    unit = split_exponent(e.conj())[1]
    outside = unit - frame._project(unit, "interpolation diagnosis")
    return op, euclidean_norm(outside) <= math.sqrt(RANK_RTOL) * euclidean_norm(unit)


def range_map_check(op: LinearOperator, phi: Frame, psi: Frame, f) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the analysis-range mapping identity.

    The representation ``M`` of ``op`` over ``(phi, dual(psi))`` sends the
    psi-coefficients of ``f`` to the phi-coefficients of ``op(f)``; returns
    ``(lhs, rhs)``: ``lhs = M C_psi f``, evaluated right to left as ``C_phi (O
    ((D_dual(psi) C_psi) f))`` through the n x n reconstruction factor that
    :func:`roundtrip_reconstruct` uses, so neither ``M`` nor ``C_psi f`` is
    formed and a call on warm frames costs O(K n + n^2); ``rhs`` analyzes
    ``op(f)`` directly, as ``C_phi (O f)``.  Each side is one
    :func:`~framerep.linalg.finite_product`, so FrameRepError is raised only
    if an entry of a side itself leaves the float range.
    """
    right = psi.canonical_dual()._reconstruction_factor
    require_shape("operator matrix", op.matrix.shape, (phi.space_dim, psi.space_dim))
    f = as_vector(f, "input vector", psi.space_dim)
    # each side is a chain on f, taken transposed (f^T ... C_phi^T) as
    # finite_product's docstring states
    lhs = finite_product("representation image M C_psi f", f, right.T, op.matrix.T,
                         phi.analysis_matrix.T)
    return lhs, finite_product("analysis coefficients C_phi O f", f, op.matrix.T,
                               phi.analysis_matrix.T)


def kernel_of_representation(matrix, phi: Frame, psi: Frame) -> np.ndarray:
    """Assemble the integral kernel from a representation matrix.

    The kernel is the rank-one expansion ``sum_{j,k} matrix[k, j] *
    outer(phi_k, conj(psi_j))``, which in C^n is the standard-basis matrix of
    the induced operator ``D_phi @ matrix @ C_psi``; it is computed as that
    product and returned read-only.
    """
    return operator_of_matrix(matrix, phi, psi).matrix
