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

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, IncompatibleFrames
from .frames import RANK_RTOL, Frame
from .linalg import as_matrix, as_vector, frobenius_norm, singular_values

#: Relative distance within which a frame is accepted as the canonical dual
#: of another when validating representation products.
DUAL_PAIR_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A linear map C^dim_in -> C^dim_out held as its standard-basis matrix.

    The matrix is simultaneously the operator's integral kernel in the
    finite-dimensional sense: ``<O f, g> = g* @ matrix @ f``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        # copy before freezing so the caller's array is never locked
        m = as_matrix(self.matrix, "operator matrix").copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, f) -> np.ndarray:
        f = as_vector(f, "operator argument")
        if f.shape != (self.dim_in,):
            raise DimensionMismatch(
                f"operator acts on C^{self.dim_in}, got a vector of shape {f.shape}"
            )
        return self.matrix @ f

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        """Composition ``self o other`` (apply ``other`` first)."""
        if not isinstance(other, LinearOperator):
            return NotImplemented
        if self.dim_in != other.dim_out:
            raise DimensionMismatch(
                f"cannot compose: left acts on C^{self.dim_in}, "
                f"right produces C^{other.dim_out}"
            )
        return LinearOperator(self.matrix @ other.matrix)


def identity_operator(n: int) -> LinearOperator:
    """The identity on C^n."""
    return LinearOperator(np.eye(n, dtype=np.complex128))


def rank_one(f, g) -> LinearOperator:
    """The operator ``h -> <h, g> f`` with matrix ``f g*``."""
    f = as_vector(f, "output vector")
    g = as_vector(g, "input vector")
    return LinearOperator(np.outer(f, g.conj()))


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
    sandwich, so :meth:`compose` checks exactly that before multiplying;
    pass ``unchecked=True`` to experiment without the guard.
    """

    matrix: np.ndarray
    analysis_frame: Frame
    synthesis_frame: Frame

    def __post_init__(self):
        m = as_matrix(self.matrix, "representation matrix")
        expected = (self.analysis_frame.count, self.synthesis_frame.count)
        if m.shape != expected:
            raise DimensionMismatch(
                f"representation matrix shape {m.shape} does not match "
                f"frame counts {expected}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def compose(self, other: "Representation", unchecked: bool = False) -> "Representation":
        """Multiply two representations sharing a dual sandwich.

        Valid when ``other.analysis_frame`` is (numerically) the canonical
        dual of ``self.synthesis_frame``; the result then represents the
        composed operator over ``(self.analysis_frame, other.synthesis_frame)``.
        """
        if not isinstance(other, Representation):
            raise TypeError(f"expected a Representation, got {type(other).__name__}")
        if self.synthesis_frame.count != other.analysis_frame.count:
            raise DimensionMismatch(
                f"inner coefficient sizes differ: {self.synthesis_frame.count} "
                f"vs {other.analysis_frame.count}"
            )
        if not unchecked:
            dual = self.synthesis_frame.canonical_dual()
            if other.analysis_frame is not dual and not other.analysis_frame.allclose(
                dual, rtol=DUAL_PAIR_RTOL
            ):
                raise IncompatibleFrames(
                    "representation product needs the right factor's analysis "
                    "frame to be the canonical dual of the left factor's "
                    "synthesis frame; pass unchecked=True to override"
                )
        return Representation(
            matrix=self.matrix @ other.matrix,
            analysis_frame=self.analysis_frame,
            synthesis_frame=other.synthesis_frame,
        )

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
    ``sqrt(B_psi * B_phi) * |O|_op``.
    """
    if op.dim_in != synthesis_frame.space_dim:
        raise DimensionMismatch(
            f"operator domain C^{op.dim_in} does not match synthesis frame "
            f"space C^{synthesis_frame.space_dim}"
        )
    if op.dim_out != analysis_frame.space_dim:
        raise DimensionMismatch(
            f"operator codomain C^{op.dim_out} does not match analysis frame "
            f"space C^{analysis_frame.space_dim}"
        )
    m = analysis_frame.analysis_matrix @ op.matrix @ synthesis_frame.synthesis_matrix
    return Representation(m, analysis_frame=analysis_frame, synthesis_frame=synthesis_frame)


def operator_of_matrix(matrix, synthesis_frame: Frame, analysis_frame: Frame) -> LinearOperator:
    """The operator a coefficient-space matrix induces: ``D_phi @ M @ C_psi``.

    ``matrix`` must be K_phi x K_psi for the synthesis frame ``phi`` (output
    side) and analysis frame ``psi`` (input side).  The operator norm is
    bounded by ``sqrt(B_psi * B_phi) * |M|_op``.
    """
    m = as_matrix(matrix, "coefficient matrix")
    if m.shape != (synthesis_frame.count, analysis_frame.count):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not match frame counts "
            f"({synthesis_frame.count}, {analysis_frame.count})"
        )
    out = synthesis_frame.synthesis_matrix @ m @ analysis_frame.analysis_matrix
    return LinearOperator(out)


def roundtrip_reconstruct(op: LinearOperator, phi: Frame, psi: Frame) -> LinearOperator:
    """Rebuild an operator from its representation over the dual frame pair.

    Represents ``op`` over ``(dual(phi), dual(psi))`` and induces an operator
    back over ``(phi, psi)``; the result equals ``op`` up to conditioning,
    which realizes the expansion ``O = sum_{k,j} <O dual(psi)_j, dual(phi)_k>
    phi_k (x) conj(psi_j)``.
    """
    rep = matrix_of_operator(op, phi.canonical_dual(), psi.canonical_dual())
    return operator_of_matrix(rep.matrix, phi, psi)


def frame_multiplier(weights, synthesis_frame: Frame, analysis_frame: Frame) -> LinearOperator:
    """The operator induced by a diagonal coefficient matrix.

    ``weights`` is a length-K sequence (real or complex); the result is
    ``sum_k weights_k * phi_k (x) conj(psi_k)``, computed as the induced
    operator of ``diag(weights)``.
    """
    w = as_vector(weights, "multiplier weights")
    if synthesis_frame.count != analysis_frame.count:
        raise DimensionMismatch(
            f"multiplier frames need equal counts, got {synthesis_frame.count} "
            f"and {analysis_frame.count}"
        )
    if w.shape != (synthesis_frame.count,):
        raise DimensionMismatch(
            f"expected {synthesis_frame.count} weights, got {w.shape[0]}"
        )
    return operator_of_matrix(np.diag(w), synthesis_frame, analysis_frame)


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
    among the images (a kernel-containment rank test).
    """
    frame.require_frame("prescribing images")
    e = as_matrix(images, "images")
    if e.shape[0] != frame.count:
        raise DimensionMismatch(
            f"expected {frame.count} image vectors, got {e.shape[0]}"
        )
    dual = frame.canonical_dual()
    op = LinearOperator(e.T @ dual.analysis_matrix)
    if not diagnose:
        return op
    s_stack = singular_values(np.vstack([frame.synthesis_matrix, e.T]), "stacked frame and images")
    s_syn = frame.analysis_svd[1]  # D = C* has C's singular values
    cutoff = RANK_RTOL * s_stack[0]
    consistent = int(np.sum(s_stack > cutoff)) == int(np.sum(s_syn > cutoff))
    return op, consistent


def range_map_check(op: LinearOperator, phi: Frame, psi: Frame, f) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the analysis-range mapping identity.

    The representation of ``op`` over ``(phi, dual(psi))`` sends the
    psi-coefficients of ``f`` to the phi-coefficients of ``op(f)``; returns
    ``(lhs, rhs)`` where ``lhs`` pushes the coefficients through the
    representation matrix and ``rhs`` analyzes ``op(f)`` directly.
    """
    rep = matrix_of_operator(op, phi, psi.canonical_dual())
    lhs = rep.matrix @ psi.analyze(f)
    rhs = phi.analyze(op(f))
    return lhs, rhs


def kernel_of_representation(matrix, phi: Frame, psi: Frame) -> np.ndarray:
    """Assemble the integral kernel from a representation matrix.

    The kernel is the rank-one expansion ``sum_{j,k} matrix[k, j] *
    outer(phi_k, conj(psi_j))``, which in C^n is the standard-basis matrix of
    the induced operator ``D_phi @ matrix @ C_psi``; it is computed as that
    product and returned read-only.
    """
    return operator_of_matrix(matrix, phi, psi).matrix
