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

Frames are immutable: the vectors, the cached matrices and every cached
spectral factor, the canonical dual's included, are read-only arrays.
Each frame's spectral data comes from the QR ``C/p = Q (R/p)`` of its
analysis matrix over ``p = 2^e``, the power of two of C's largest real or
imaginary part (:func:`~framerep.linalg.split_exponent`).  The frame keeps
e, not p: a result takes its power of two as the ``exponent`` of a
:func:`~framerep.linalg.finite_product`.  Powers of two cancel exactly, so
a result keeps its bits wherever it is a normal float, and every entry of
``R/p`` is below ``2 sqrt(2 K)``.  The layers are computed lazily and cached:

* ``Frame._triangular_factor`` is ``(e, R/2^e)``, the ``min(K, n) x n`` R
  kept once.  Read first, it comes from a QR that does not form Q.
* ``Frame.singular_values`` are C's singular values ``s = 2^e s(R/2^e)``,
  without singular vectors.  The bounds ``(s_min^2, s_max^2)``,
  ``is_frame``, the condition and the classification read only this layer.
* ``Frame._orthonormal_factor`` is the QR's Q, read in this module alone.
  The reduced QR that forms it also supplies ``(e, R/2^e)`` when it is not
  cached yet, so a cold canonical dual or range projection takes one QR; a
  frame whose R was read first takes a second QR for Q.  The canonical
  dual's analysis matrix ``C S^-1 = (C^+)* = Q R^-*`` needs Q and no
  singular vector; ``Frame._project`` alone applies the projector ``Q Q*``.
* ``Frame._triangular_inverse`` is ``(R/2^e)^-1``: the frame's one inverse
  of R, which the dual and the cutoff path of :mod:`framerep.solve` share.

No layer holds singular vectors.

Beside them sits one certified, one-sided screen, ``Frame._bounds_enclosure``:
a least A and a most B from the cached frame operator ``S = D C``.  It
decides, never reports, through ``Frame._condition_below(t)``, which reads
the singular values instead when they are cached.  Working on the singular
values rather than on ``S = C* C`` keeps every reported value's condition
and dynamic range unsquared.

Besides the spectral layers a frame caches, on first use, its reconstruction
factor ``D C_dual = sum_k psi_k dual_k*`` (n x n, the identity up to
rounding), the outer factor of :func:`framerep.represent.roundtrip_reconstruct`.
Numerical rank has one rule, which ``is_frame`` alone applies: C has full
rank n when its smallest singular value exceeds ``sqrt(RANK_RTOL)`` times its
largest.
"""

from __future__ import annotations

import enum
import math
import weakref
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import FrameRepError, NotAFrame
from .linalg import (EPS, as_matrix, as_vector, euclidean_norm, finite_product, frozen,
                     hermitian_eigs, inverse, require_shape, singular_values, split_exponent,
                     wrap_checked)

#: A family counts as a frame only when its lower bound clears this fraction
#: of the upper bound; below it the family is treated as rank deficient.
RANK_RTOL = 1e-10

#: Relative gap deciding tight / Parseval / orthonormal classifications.
TIGHT_RTOL = 1e-9

#: Relative distance within which :meth:`Frame.allclose` counts two frames as
#: the same, for example a frame and the canonical dual it is checked against.
SAME_FRAME_RTOL = 1e-8

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

    A bound beyond the float range reads ``inf``, and one below it reads 0:
    the bounds are the squares of the singular values, which leave the range
    at half the exponent.  So a lower bound of 0 does not say that the family
    fails to span; :attr:`Frame.is_frame` decides that from the singular values.
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
        self._vectors = frozen(as_matrix(vectors, "frame vector array").copy())

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

    @cached_property
    def analysis_matrix(self) -> np.ndarray:
        """Read-only K x n matrix C with (C f)_k = <f, psi_k>."""
        return frozen(self._vectors.conj())

    @property
    def synthesis_matrix(self) -> np.ndarray:
        """n x K matrix D = C* with columns psi_k."""
        return self._vectors.T

    @cached_property
    def frame_operator(self) -> np.ndarray:
        """n x n positive semidefinite S = sum_k psi_k psi_k* = D D*.

        Raises FrameRepError if an entry leaves the float range.
        """
        return frozen(finite_product("frame operator", self.synthesis_matrix,
                                     self.analysis_matrix))

    @cached_property
    def _triangular_factor(self) -> tuple[int, np.ndarray]:
        """Read-only ``(e, R/2^e)``: C's :func:`split_exponent`, R/2^e from a QR without Q."""
        exponent, unit = split_exponent(self.analysis_matrix)
        return exponent, frozen(np.linalg.qr(unit, mode="r"))

    @cached_property
    def singular_values(self) -> np.ndarray:
        """C's ``min(K, n)`` singular values in descending order, read-only.

        They are ``2^e`` times those of ``R/2^e`` alone, computed without
        singular vectors, so the SVD runs on at most n rows and no K x n
        factor is formed.

        Raises
        ------
        FrameRepError
            If the largest singular value leaves the float range.
        DecompositionFailed
            If the SVD does not converge.
        """
        exponent, unit = self._triangular_factor
        return frozen(finite_product("frame analysis matrix's largest singular value",
                                     singular_values(unit, "frame analysis matrix"),
                                     exponent=exponent))

    @cached_property
    def _orthonormal_factor(self) -> np.ndarray:
        """Read-only Q of the reduced QR of ``C/2^e``; caches its ``(e, R/2^e)`` if none is."""
        exponent, unit = split_exponent(self.analysis_matrix)
        q, r = np.linalg.qr(unit, mode="reduced")
        self.__dict__.setdefault("_triangular_factor", (exponent, frozen(r)))
        return frozen(q)

    @cached_property
    def _triangular_inverse(self) -> np.ndarray:
        """Read-only ``(R/2^e)^-1`` of :attr:`_triangular_factor`'s ``R/2^e``.

        The one inverse of R, for a frame (R square); DecompositionFailed if LAPACK fails.
        """
        return frozen(inverse(self._triangular_factor[1], "frame's triangular factor R"))

    @cached_property
    def _bounds_enclosure(self) -> tuple[float, float]:
        """The screen: ``(a, b)``, a least A and a most B of the exact layer's bounds.

        ``a <= A`` and ``B <= b`` for :attr:`bounds`, ``(s[-1]^2, s[0]^2)`` for
        the computed :attr:`singular_values` ``s``, without computing them: ``a =
        lambda_1 - r`` and ``b = lambda_n + r`` for the extreme eigenvalues
        ``lambda_1 <= lambda_n`` of the cached :attr:`frame_operator` S, with
        ``r = 16 (K n + n^2) eps tr S``.  With ``u = eps / 2``, ``sigma_i``
        the exact singular values of C and ``tr S = |C|_F^2``, the bound
        (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.)
        has three parts:

        * the Gram: each entry of ``D C`` is a sum of K complex products, so
          the computed S is off by at most ``gamma_{K+2} |D| |C|`` entrywise
          (ch. 3), a matrix of 2-norm at most ``gamma_{K+2} tr S``;
        * ``eigvalsh``: its eigenvalues are exact for the computed S plus a
          perturbation of 2-norm at most ``c n^2 u |S|_F <= c n^2 u tr S``
          (Householder tridiagonalization, ch. 19);
        * the exact layer: the Householder QR's ``R/p`` is exact for ``(C +
          dC) / p``, ``|dC|_F <= c K n u |C|_F`` (ch. 19), and ``s = p
          s(R/p)`` adds ``c n^2 u |R|_F``; so ``s_i`` is within ``d = c (K n
          + n^2) u |C|_F`` of ``sigma_i`` and ``s_i^2`` within ``d (2 |C|_F + d)``.

        By Weyl's theorem, with every constant ``c <= 4``, ``|lambda_i -
        s_i^2|`` is below ``8 (K n + n^2) eps tr S`` to first order.  ``r`` is
        twice that; the spare, at least ``16 eps max(A, B)``, covers the
        second-order terms and the few roundings (each at most ``u``
        relative) in forming ``a`` and ``b`` and the products that
        :meth:`_condition_below` compares.  The model of one relative
        rounding per operation fails only through underflow, whose absolute
        error per entry, about ``K 2^-1074``, is negligible beside ``eps tr
        S`` for ``tr S >= 2^-800``.  It holds for every family: for K < n, A =
        0 is an exact eigenvalue of S, so ``lambda_1 < r`` and ``a < 0``.

        The trivial enclosure ``(-inf, inf)`` when S leaves the float range,
        when ``tr S`` is outside ``[2^-800, 2^800]`` or when ``eigvalsh`` fails.
        """
        k, n = self._vectors.shape
        try:
            s = self.frame_operator
            with np.errstate(over="ignore"):
                trace = float(np.trace(s).real)
            if not 2.0**-800 <= trace <= 2.0**800:
                return -math.inf, math.inf
            eigenvalues = hermitian_eigs(s, "frame operator")
        except FrameRepError:  # S leaves the float range, or eigvalsh raises DecompositionFailed
            return -math.inf, math.inf
        radius = 16 * (k * n + n * n) * EPS * trace
        return float(eigenvalues[0]) - radius, float(eigenvalues[-1]) + radius

    def _condition_below(self, t: float) -> bool:
        """Whether :attr:`condition` is below ``t``, exactly if :attr:`singular_values` are cached.

        False for a ``t`` not above 1 (NaN included), as B/A >= 1, before any
        layer is read.  Otherwise True only when the screen's ``(a, b)`` proves
        it, with no QR or SVD: ``a > RANK_RTOL b`` (the frame check) and ``b (1
        + 2^-30) < t a``, the factor covering the two products' roundings and
        the exact layer's own in ``(s[0] / s[-1])^2``.
        """
        if not t > 1.0:
            return False
        if "singular_values" in self.__dict__:
            return self.condition < t  # inf for a family that is no frame
        a, b = self._bounds_enclosure
        return a > RANK_RTOL * b and b * (1 + 2.0**-30) < t * a

    @cached_property
    def bounds(self) -> FrameBounds:
        """Optimal bounds (A, B), ``(s[-1]^2, s[0]^2)`` for the singular values s.

        A > 0 exactly when the family spans C^n, up to the float range's ends:
        a bound below the range reads 0 (``Frame(psi * 1e-165).bounds`` is
        ``(0.0, 0.0)`` for a frame psi near scale 1) and one above it ``inf``,
        while :attr:`is_frame` decides spanning from s itself.
        """
        s = self.singular_values
        with np.errstate(over="ignore"):
            upper = float(np.square(s[0]))
            lower = float(np.square(s[-1])) if self.count >= self.space_dim else 0.0
        return FrameBounds(lower=lower, upper=upper)

    @property
    def is_frame(self) -> bool:
        """Whether A > RANK_RTOL * B: K >= n and ``s[-1] > sqrt(RANK_RTOL) s[0]``.

        The one rank rule.  It is relative, so scaling the frame does not change it.
        """
        s = self.singular_values
        return self.count >= self.space_dim and bool(s[-1] > math.sqrt(RANK_RTOL) * s[0])

    def require_frame(self, operation: str) -> None:
        """Raise NotAFrame, naming ``operation`` and the part of the rank rule that fails."""
        if not self.is_frame:
            k, n = self._vectors.shape
            if k < n:
                raise NotAFrame(f"{operation} requires a frame: {k} vectors cannot span C^{n}")
            s = self.singular_values
            raise NotAFrame(f"{operation} requires a frame: smallest singular value {s[-1]:.3e} "
                            f"is at most {math.sqrt(RANK_RTOL):g} * largest {s[0]:.3e}")

    @property
    def condition(self) -> float:
        """B/A, or inf for families that do not span."""
        s = self.singular_values
        return float(s[0] / s[-1]) ** 2 if self.is_frame else math.inf

    # -- analysis / synthesis --------------------------------------------

    def analyze(self, f) -> np.ndarray:
        """Coefficients (<f, psi_k>)_k of a vector f in C^n; FrameRepError on overflow."""
        f = as_vector(f, "input vector", self.space_dim)
        return finite_product("analysis coefficients C f", self.analysis_matrix, f)

    def synthesize(self, c) -> np.ndarray:
        """Weighted sum sum_k c_k psi_k of the frame vectors; FrameRepError on overflow."""
        c = as_vector(c, "coefficient vector", self.count)
        return finite_product("synthesis D c", self.synthesis_matrix, c)

    # -- duals and classification ----------------------------------------

    def canonical_dual(self) -> "Frame":
        """The canonical dual frame (S^-1 psi_k).

        Built from the cached QR ``C = Q R``: the dual's analysis matrix is
        ``C S^-1 = Q R^-*``, formed as ``Q (R/2^e)^-*`` from the frame's
        cached inverse and scaled by ``2^-e`` on the exponent ledger.  The
        dual inherits the singular values, reversed and inverted, so its
        bounds (1/B, 1/A) need no decomposition.  The dual of the dual is this frame again (the same
        object while this frame is alive; the dual only holds a weak reference
        back).

        Raises
        ------
        NotAFrame
            If the family does not span C^n.
        FrameRepError
            If an entry or the largest singular value of the dual leaves the
            float range.
        DecompositionFailed
            If LAPACK fails to invert R.
        """
        dual = self.__dict__.get("_canonical_dual")
        if dual is None:
            primal = self.__dict__.get("_primal")
            dual = primal() if primal is not None else None
        if dual is not None:
            return dual
        # Q before the rank check: its QR caches R too, so the check takes no second QR
        q = self._orthonormal_factor
        self.require_frame("canonical dual")
        # rows of `vectors` are conj(Q R^-*) = conj(Q) (R/2^e)^-T 2^-e
        vectors = finite_product("canonical dual", q.conj(), self._triangular_inverse.T,
                                 exponent=-self._triangular_factor[0])
        # the rank rule keeps s[-1] / s[0] above 1e-5, so 1 / s_unit stays in range
        s_exponent, s_unit = split_exponent(self.singular_values)
        s_dual = finite_product("canonical dual's largest singular value", 1.0 / s_unit[::-1],
                                exponent=-s_exponent)
        dual = wrap_checked(Frame, "_vectors", vectors, singular_values=frozen(s_dual),
                            _primal=weakref.ref(self))
        self.__dict__["_canonical_dual"] = dual
        return dual

    def _project(self, a: np.ndarray, operation: str) -> np.ndarray:
        """``Q Q* a`` for a K-vector or K x m block ``a``; NotAFrame if no frame.

        ``Q* a`` and ``Q (Q* a)`` are each a :func:`finite_product`, so
        FrameRepError naming ``operation`` is raised only if one of them overflows.
        """
        # Q before the rank check: its QR caches R too, so the check takes no second QR
        q = self._orthonormal_factor
        self.require_frame(operation)
        # (a* Q)* is Q* a without a conjugated copy of Q
        return finite_product(operation, q, finite_product(operation, a.conj().T, q).conj().T)

    @cached_property
    def _reconstruction_factor(self) -> np.ndarray:
        """Read-only n x n ``D C_dual = sum_k psi_k dual_k*``, the identity up to rounding.

        Raises NotAFrame like :meth:`canonical_dual`.  By Cauchy-Schwarz every
        entry is at most ``s_max / s_min`` (a row of D has norm at most
        ``s_max``, a column of ``C_dual`` at most ``1 / s_min``), which the
        rank rule keeps below ``RANK_RTOL^-1/2``: the product stays in range.
        """
        return frozen(self.synthesis_matrix @ self.canonical_dual().analysis_matrix)

    @cached_property
    def classification(self) -> FrameClass:
        """The most specific label, with one gap TIGHT_RTOL on ``1 - A/B`` and on ``|B - 1|``."""
        if not self.is_frame:
            return FrameClass.BESSEL_ONLY
        basis = self.count == self.space_dim
        s = self.singular_values
        if 1.0 - float(s[-1] / s[0]) ** 2 > TIGHT_RTOL:
            return FrameClass.RIESZ_BASIS if basis else FrameClass.FRAME
        if abs(self.bounds.upper - 1.0) > TIGHT_RTOL:
            return FrameClass.TIGHT_FRAME
        return FrameClass.ORTHONORMAL_BASIS if basis else FrameClass.PARSEVAL_FRAME

    def allclose(self, other: "Frame") -> bool:
        """Whether two frames agree vector-by-vector within SAME_FRAME_RTOL of their scale.

        Both frames' real and imaginary parts are divided by the largest of
        them first, so the difference and the norms stay in the float range
        at any scale (a real array divided by a subnormal number stays finite).
        """
        if self._vectors.shape != other._vectors.shape:
            return False
        a, b = (frame._vectors.ravel().view(np.float64) for frame in (self, other))
        scale = max(np.abs(a).max(), np.abs(b).max())
        if scale == 0.0:
            return True
        a, b = a / scale, b / scale
        return euclidean_norm(a - b) <= SAME_FRAME_RTOL * max(euclidean_norm(a), euclidean_norm(b))


def gram(psi: Frame, phi: Frame) -> np.ndarray:
    """Gram matrix of two families, entry [j, m] = <phi_m, psi_j>.

    Equals ``C_psi @ D_phi`` (K_psi x K_phi); both families must live in the
    same space.  Raises FrameRepError if an entry leaves the float range.
    """
    require_shape("vectors of phi", phi.vectors.shape, (None, psi.space_dim))
    return finite_product("Gram matrix", psi.analysis_matrix, phi.synthesis_matrix)


def biorthogonal(psi: Frame, phi: Frame) -> bool:
    """Whether <psi_k, phi_j> = delta_kj within tolerance.

    Requires equal counts and equal space dimension; true for a Riesz basis
    paired with its canonical dual, never for a redundant frame (K > n): the
    K x K Gram has rank at most n, so ``|Gram - I|_F >= sqrt(K - n)``, and it
    is not formed.
    """
    require_shape("vectors of phi", phi.vectors.shape, psi.vectors.shape)
    if psi.count > psi.space_dim:
        return False
    # gram(psi, phi) = gram(phi, psi)* has the same distance from I
    deviation = euclidean_norm(gram(psi, phi) - np.eye(psi.count))
    return deviation <= TIGHT_RTOL * math.sqrt(psi.count)
