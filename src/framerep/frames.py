"""Frames in C^n: bounds, classification, canonical duals, Gram matrices.

A frame is an ordered family of K vectors spanning an n-dimensional complex
Hilbert space (K >= n for spanning families; K < n or rank-deficient families
are still valid Bessel sequences).  Conventions used throughout:

* the inner product ``<f, g> = sum_j f_j * conj(g_j)`` is linear in the
  first argument;
* the analysis matrix ``C`` is K x n with ``(C f)_k = <f, psi_k>``;
* the synthesis matrix ``D = C*`` is n x K with columns ``psi_k``;
* the frame operator ``S = D D* = C* C = sum_k psi_k psi_k*``;
* Gram matrices are oriented ``gram(psi, phi)[j, m] = <phi_m, psi_j>``,
  i.e. ``gram(psi, phi) = C_psi @ D_phi``.

Frames are immutable.  Each frame's one spectral primitive is the thin SVD
``C = U diag(s) V*`` of its analysis matrix, computed lazily and cached:
the bounds are ``(s_min^2, s_max^2)``, the canonical dual's analysis matrix is
``U diag(1/s) V*``, and the analysis range is spanned by the columns of U.
Working on the singular values rather than on ``S = C* C`` keeps the
condition number and the dynamic range unsquared.
"""

from __future__ import annotations

import enum
import math
import weakref
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionMismatch, NotAFrame
from .linalg import as_vector, svd

#: A family counts as a frame only when its lower bound clears this fraction
#: of the upper bound; below it the family is treated as rank deficient.
RANK_RTOL = 1e-10

#: Relative gap deciding tight / Parseval / orthonormal classifications.
TIGHT_RTOL = 1e-9

#: Frame condition B/A beyond which dual-based identities degrade; reports
#: built on such frames carry a conditioning warning.
CONDITION_WARN_RATIO = 1e6


class FrameClass(enum.Enum):
    """Classification of a vector family, most specific label wins."""

    BESSEL_ONLY = "BesselOnly"
    FRAME = "Frame"
    TIGHT_FRAME = "TightFrame"
    PARSEVAL_FRAME = "ParsevalFrame"
    RIESZ_BASIS = "RieszBasis"
    ORTHONORMAL_BASIS = "OrthonormalBasis"


class FrameBounds(NamedTuple):
    """Optimal frame bounds: the extreme eigenvalues of the frame operator.

    A bound beyond the float range reads ``inf``.
    """

    lower: float
    upper: float


class Frame:
    """An ordered family of K vectors in C^n.

    Parameters
    ----------
    vectors : array_like, shape (K, n)
        One vector per row.  Entries must be finite; zero rows are legal
        (the family is then still Bessel).
    """

    def __init__(self, vectors):
        v = np.array(vectors, dtype=np.complex128)
        if v.ndim != 2:
            raise DimensionMismatch(f"frame vectors must form a 2-d array, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatch(f"frame needs at least one vector in C^n, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch("frame vectors contain non-finite entries")
        v.setflags(write=False)
        self._vectors = v

    @property
    def vectors(self) -> np.ndarray:
        """Read-only (K, n) array, one frame vector per row."""
        return self._vectors

    @property
    def count(self) -> int:
        return self._vectors.shape[0]

    @property
    def space_dim(self) -> int:
        return self._vectors.shape[1]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"Frame(count={self.count}, space_dim={self.space_dim})"

    def __reduce__(self):
        # pickle the vectors only: cached spectral data is rebuilt on demand,
        # and a dual's weak reference to its frame cannot be pickled
        return type(self), (self._vectors,)

    # -- operators as matrices -------------------------------------------

    @property
    def analysis_matrix(self) -> np.ndarray:
        """K x n matrix C with (C f)_k = <f, psi_k>."""
        return self._vectors.conj()

    @property
    def synthesis_matrix(self) -> np.ndarray:
        """n x K matrix D = C* with columns psi_k."""
        return self._vectors.T

    @cached_property
    def frame_operator(self) -> np.ndarray:
        """n x n positive semidefinite S = sum_k psi_k psi_k* = D D*."""
        d = self.synthesis_matrix
        s = d @ d.conj().T
        s.setflags(write=False)
        return s

    @cached_property
    def analysis_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached thin SVD ``(U, s, V)`` of the analysis matrix, ``C = U diag(s) V*``.

        ``s`` holds ``min(K, n)`` singular values in descending order.

        Raises
        ------
        DecompositionFailed
            If the SVD does not converge.
        """
        return svd(self.analysis_matrix, "frame analysis matrix")

    @cached_property
    def bounds(self) -> FrameBounds:
        """Optimal bounds (A, B); A > 0 exactly when the family spans C^n."""
        s = self.analysis_svd[1]
        with np.errstate(over="ignore"):
            upper = float(np.square(s[0]))
            lower = float(np.square(s[-1])) if self.count >= self.space_dim else 0.0
        return FrameBounds(lower=lower, upper=upper)

    @property
    def is_frame(self) -> bool:
        """Whether A > RANK_RTOL * B, decided on the unsquared singular values."""
        s = self.analysis_svd[1]
        return self.count >= self.space_dim and bool(s[-1] > math.sqrt(RANK_RTOL) * s[0])

    def require_frame(self, operation: str) -> None:
        """Raise NotAFrame, naming ``operation``, unless the family is a frame."""
        if not self.is_frame:
            a, b = self.bounds
            raise NotAFrame(
                f"{operation} requires a frame: lower bound {a:.3e} "
                f"is below {RANK_RTOL:g} * upper bound {b:.3e}"
            )

    @property
    def condition(self) -> float:
        """B/A, or inf for families that do not span."""
        s = self.analysis_svd[1]
        return float(s[0] / s[-1]) ** 2 if self.is_frame else math.inf

    # -- analysis / synthesis --------------------------------------------

    def analyze(self, f) -> np.ndarray:
        """Coefficients (<f, psi_k>)_k of a vector f in C^n."""
        f = as_vector(f, "input vector")
        if f.shape != (self.space_dim,):
            raise DimensionMismatch(
                f"expected a vector of dim {self.space_dim}, got shape {f.shape}"
            )
        return self.analysis_matrix @ f

    def synthesize(self, c) -> np.ndarray:
        """Weighted sum sum_k c_k psi_k of the frame vectors."""
        c = as_vector(c, "coefficient vector")
        if c.shape != (self.count,):
            raise DimensionMismatch(
                f"expected {self.count} coefficients, got shape {c.shape}"
            )
        return self.synthesis_matrix @ c

    # -- duals and classification ----------------------------------------

    def canonical_dual(self) -> "Frame":
        """The canonical dual frame (S^-1 psi_k).

        Built from the cached SVD: the dual's analysis matrix is
        ``U diag(1/s) V*``, and the dual inherits these factors, so its bounds
        (1/B, 1/A) need no second decomposition.  The dual of the dual is this
        frame again (the same object while this frame is alive; the dual only
        holds a weak reference back).

        Raises
        ------
        NotAFrame
            If the family does not span C^n.
        """
        self.require_frame("canonical dual")
        dual = self.__dict__.get("_canonical_dual")
        if dual is None:
            primal = self.__dict__.get("_primal")
            dual = primal() if primal is not None else None
        if dual is None:
            u, s, v = self.analysis_svd
            # rows of `vectors` are conj(C) = conj(U) diag(s) V^T; invert s
            dual = Frame((u.conj() / s) @ v.T)
            dual.__dict__["analysis_svd"] = (u[:, ::-1], 1.0 / s[::-1], v[:, ::-1])
            dual.__dict__["_primal"] = weakref.ref(self)
            self.__dict__["_canonical_dual"] = dual
        return dual

    @cached_property
    def classification(self) -> FrameClass:
        if not self.is_frame:
            return FrameClass.BESSEL_ONLY
        s = self.analysis_svd[1]
        if self.count == self.space_dim:
            # |Gram - I|_F = |diag(s^2) - I|_F when U is square
            with np.errstate(over="ignore"):
                deviation = np.linalg.norm(np.square(s) - 1.0)
            if deviation <= TIGHT_RTOL * math.sqrt(self.count):
                return FrameClass.ORTHONORMAL_BASIS
        tight = 1.0 - float(s[-1] / s[0]) ** 2 <= TIGHT_RTOL
        if tight and abs(self.bounds.upper - 1.0) <= TIGHT_RTOL:
            return FrameClass.PARSEVAL_FRAME
        if tight:
            return FrameClass.TIGHT_FRAME
        if self.count == self.space_dim:
            return FrameClass.RIESZ_BASIS
        return FrameClass.FRAME

    def allclose(self, other: "Frame", rtol: float = 1e-8) -> bool:
        """Whether two frames agree vector-by-vector, relative to their scale."""
        if self.count != other.count or self.space_dim != other.space_dim:
            return False
        scale = max(
            np.linalg.norm(self._vectors, "fro"),
            np.linalg.norm(other._vectors, "fro"),
        )
        if scale == 0.0:
            return True
        return np.linalg.norm(self._vectors - other._vectors, "fro") <= rtol * scale


def standard_basis(n: int) -> Frame:
    """The standard orthonormal basis of C^n as a frame."""
    if n < 1:
        raise DimensionMismatch(f"space dimension must be positive, got {n}")
    return Frame(np.eye(n, dtype=np.complex128))


def gram(psi: Frame, phi: Frame) -> np.ndarray:
    """Gram matrix of two families, entry [j, m] = <phi_m, psi_j>.

    Equals ``C_psi @ D_phi`` (K_psi x K_phi); both families must live in the
    same space.
    """
    if psi.space_dim != phi.space_dim:
        raise DimensionMismatch(
            f"frames live in different spaces: C^{psi.space_dim} vs C^{phi.space_dim}"
        )
    return psi.analysis_matrix @ phi.synthesis_matrix


def biorthogonal(psi: Frame, phi: Frame) -> bool:
    """Whether <psi_k, phi_j> = delta_kj within tolerance.

    Requires equal counts and equal space dimension; true for a Riesz basis
    paired with its canonical dual, never for a redundant frame (K > n).
    """
    if psi.space_dim != phi.space_dim:
        raise DimensionMismatch(
            f"frames live in different spaces: C^{psi.space_dim} vs C^{phi.space_dim}"
        )
    if psi.count != phi.count:
        raise DimensionMismatch(
            f"biorthogonality needs equal counts, got {psi.count} and {phi.count}"
        )
    g = gram(phi, psi)
    eye = np.eye(psi.count)
    return bool(np.linalg.norm(g - eye, "fro") <= TIGHT_RTOL * math.sqrt(psi.count))
