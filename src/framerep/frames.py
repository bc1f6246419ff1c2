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
Each frame's spectral data comes from the QR factorization ``C = Q R`` of its
analysis matrix, in layers computed lazily and cached:

* ``Frame._triangular_factor`` is the small ``min(K, n) x n`` R.  Read
  first, it comes from a QR that does not form Q.
* ``Frame.singular_values`` are C's singular values ``s``: those of R alone,
  without singular vectors.  The bounds ``(s_min^2, s_max^2)``,
  ``is_frame``, the condition and the classification read only this layer.
* ``Frame._orthonormal_factor`` is the QR's Q.  The reduced QR that forms it
  also supplies R when R is not cached yet, so a cold canonical dual or
  range projection takes one QR; a frame whose R was read first takes a
  second QR for Q.  The canonical dual's analysis matrix
  ``C S^-1 = (C^+)* = Q R^-*`` and the projection ``Q Q*`` onto the analysis
  range need Q and no singular vector.
* ``Frame._unit_triangular_factor`` is ``(p, R/p, (R/p)^-1)`` for the power
  of two ``p <= s[0] < 2 p``: the frame's one inverse of R, which the dual
  and the cutoff path of :mod:`framerep.solve` share.

No layer holds singular vectors.

Beside the exact layers sits one certified screen,
``Frame._bounds_enclosure``: the eigenvalues of the cached frame operator
``S = D C``, widened by a stated worst-case bound on the rounding of S, of
``eigvalsh`` and of the exact layers, enclose the bounds that
``singular_values`` would give.  It decides, never reports: a cold
full-system solve that may take the closed form takes its frame check,
closed-form guard and conditioning warning from it
(``Frame._condition_range``) and reads the exact layers only where the
enclosure straddles a threshold, so its report is the same bits.
Every reported bound, condition and classification is the exact layers'.

Working on the singular values rather than on ``S = C* C`` keeps the
condition number and the dynamic range of every reported value unsquared;
the screen works on S, where squaring only widens what it hands back
to these layers.

Besides the spectral layers a frame caches, on first use, its reconstruction
factor ``D C_dual = sum_k psi_k dual_k*`` (n x n, the identity up to
rounding), the outer factor of :func:`framerep.represent.roundtrip_reconstruct`.
Numerical rank has one rule, :func:`numerical_rank`, which ``is_frame``
applies to C and the diagnosis of ``operator_from_images`` to its stacked
blocks.
"""

from __future__ import annotations

import enum
import math
import weakref
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import DecompositionFailed, FrameRepError, NotAFrame
from .linalg import (EPS, as_matrix, as_vector, divide_parts, euclidean_norm, finite_product,
                     frozen, hermitian_eigs, inverse, power_of_two_below, require_finite,
                     require_shape, singular_values, wrap_checked)

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
    def _triangular_factor(self) -> np.ndarray:
        """Read-only ``min(K, n) x n`` R of ``C = Q R``, Q not formed; FrameRepError on overflow."""
        return _checked_triangular_factor(np.linalg.qr(self.analysis_matrix, mode="r"))

    @cached_property
    def singular_values(self) -> np.ndarray:
        """C's ``min(K, n)`` singular values in descending order, read-only.

        They are R's, computed without singular vectors, so the SVD runs on at
        most n rows and no K x n factor is formed.

        Raises
        ------
        FrameRepError
            If an entry of R leaves the float range.
        DecompositionFailed
            If the SVD does not converge.
        """
        return frozen(singular_values(self._triangular_factor, "frame analysis matrix"))

    @cached_property
    def _orthonormal_factor(self) -> np.ndarray:
        """Read-only Q of the reduced QR ``C = Q R``; caches its R (the same bits) if none is."""
        q, r = np.linalg.qr(self.analysis_matrix, mode="reduced")
        if "_triangular_factor" not in self.__dict__:
            self.__dict__["_triangular_factor"] = _checked_triangular_factor(r)
        return frozen(q)

    @cached_property
    def _unit_triangular_factor(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Read-only ``(p, R/p, (R/p)^-1)``, ``p`` the :func:`power_of_two_below` ``s[0]``.

        The one inverse of R, for a frame (R square); DecompositionFailed if LAPACK fails.
        """
        scale = power_of_two_below(self.singular_values[0])
        unit = frozen(divide_parts(self._triangular_factor, scale))
        return scale, unit, frozen(inverse(unit, "frame's triangular factor R"))

    @cached_property
    def _bounds_enclosure(self) -> tuple[FrameBounds, FrameBounds] | None:
        """The screen: ``(least, most)`` around the bounds the exact layer computes, or None.

        ``least <= (s[-1]^2, s[0]^2) <= most`` entrywise for the computed
        singular values ``s`` of :attr:`singular_values`, without computing
        them: the enclosure is ``lambda_i +- r`` for the extreme eigenvalues
        ``lambda_i`` of the cached :attr:`frame_operator` S, with
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
        * the exact layer: the Householder QR's R is exact for ``C + dC``,
          ``|dC|_F <= c K n u |C|_F`` (ch. 19), and the SVD of R adds
          ``c n^2 u |R|_F``; so ``s_i`` is within ``d = c (K n + n^2) u
          |C|_F`` of ``sigma_i`` and ``s_i^2`` within ``d (2 |C|_F + d)``.

        By Weyl's theorem, with every constant ``c <= 4``, ``|lambda_i -
        s_i^2|`` is below ``8 (K n + n^2) eps tr S`` to first order.  ``r`` is
        twice that; the spare, at least ``16 eps max(A, B)``, covers the
        second-order terms and the few roundings (each at most ``u``
        relative) in forming ``lambda_i +- r`` and the ratios that
        :meth:`_condition_range` compares.  The model of one relative
        rounding per operation fails only through underflow, whose absolute
        error per entry, about ``K 2^-1074``, is negligible beside ``eps tr
        S`` for ``tr S >= 2^-800``.

        None when K < n, when S leaves the float range, when ``tr S`` is
        outside ``[2^-800, 2^800]`` or when ``eigvalsh`` fails.
        """
        k, n = self._vectors.shape
        if k < n:
            return None
        try:
            s = self.frame_operator
        except FrameRepError:
            return None
        trace = float(np.trace(s).real)
        if not 2.0**-800 <= trace <= 2.0**800:
            return None
        try:
            eigenvalues = hermitian_eigs(s, "frame operator")
        except DecompositionFailed:
            return None
        radius = 16 * (k * n + n * n) * EPS * trace
        low, high = float(eigenvalues[0]), float(eigenvalues[-1])
        return (FrameBounds(low - radius, high - radius),
                FrameBounds(low + radius, high + radius))

    def _condition_range(self, operation: str) -> tuple[float, float]:
        """``(lo, hi)`` around :attr:`condition`; NotAFrame naming ``operation`` unless a frame.

        While the singular values are not cached and the screen
        (:attr:`_bounds_enclosure`) proves ``A > RANK_RTOL * B`` for the
        exact layer's A and B, the range is ``(B_lo / A_hi, B_hi / A_lo)``
        and no QR or SVD runs.  Otherwise both ends are the exact condition.
        The screen decides; it never reports a bound.
        """
        screen = None if "singular_values" in self.__dict__ else self._bounds_enclosure
        if screen is not None:
            least, most = screen
            if least.lower > RANK_RTOL * most.upper:
                return least.upper / most.lower, most.upper / least.lower
        self.require_frame(operation)
        condition = self.condition
        return condition, condition

    @cached_property
    def bounds(self) -> FrameBounds:
        """Optimal bounds (A, B); A > 0 exactly when the family spans C^n."""
        s = self.singular_values
        with np.errstate(over="ignore"):
            upper = float(np.square(s[0]))
            lower = float(np.square(s[-1])) if self.count >= self.space_dim else 0.0
        return FrameBounds(lower=lower, upper=upper)

    @property
    def is_frame(self) -> bool:
        """Whether A > RANK_RTOL * B, i.e. whether the :func:`numerical_rank` of C is n."""
        return numerical_rank(self.singular_values) == self.space_dim

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
        ``C S^-1 = Q R^-*``, formed as ``Q (R/p)^-*`` from the frame's cached
        inverse and divided by ``p`` exactly.  The dual inherits the singular
        values, reversed and inverted, so its bounds (1/B, 1/A) need no
        decomposition.  The dual of the dual is this frame again (the same
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
        if dual is None:
            # Q before the rank check: its QR caches R too, so the check takes no second QR
            q = self._orthonormal_factor
        self.require_frame("canonical dual")
        if dual is None:
            scale, _, unit_inverse = self._unit_triangular_factor
            s = self.singular_values
            with np.errstate(over="ignore", invalid="ignore"):
                # rows of `vectors` are conj(Q R^-*) = conj(Q) (R/p)^-T / p
                vectors = require_finite("canonical dual",
                                         divide_parts(q.conj() @ unit_inverse.T, scale))
                s_dual = require_finite("canonical dual's largest singular value", 1.0 / s[::-1])
            dual = wrap_checked(Frame, "_vectors", vectors, singular_values=frozen(s_dual),
                                _primal=weakref.ref(self))
            self.__dict__["_canonical_dual"] = dual
        return dual

    @cached_property
    def _reconstruction_factor(self) -> np.ndarray:
        """Read-only n x n ``D C_dual = sum_k psi_k dual_k*``, the identity up to rounding.

        Raises NotAFrame like :meth:`canonical_dual`.  An entry beyond the
        float range is kept as inf or NaN, for the product that reads it to name.
        """
        dual = self.canonical_dual()
        with np.errstate(over="ignore", invalid="ignore"):
            return frozen(self.synthesis_matrix @ dual.analysis_matrix)

    @cached_property
    def classification(self) -> FrameClass:
        if not self.is_frame:
            return FrameClass.BESSEL_ONLY
        s = self.singular_values
        if self.count == self.space_dim:
            # |Gram - I|_F = |diag(s^2) - I|_F when U is square
            with np.errstate(over="ignore"):
                deviation = euclidean_norm(np.square(s) - 1.0)
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


def _checked_triangular_factor(r: np.ndarray) -> np.ndarray:
    """``r``, a frame's R, frozen; FrameRepError if an entry left the float range."""
    return frozen(require_finite("frame analysis matrix's triangular factor R", r))


def numerical_rank(s: np.ndarray) -> int:
    """How many of the descending singular values ``s`` exceed ``sqrt(RANK_RTOL) * s[0]``.

    The one rank rule: a family is a frame when its analysis matrix has full
    rank n by it, which is ``A > RANK_RTOL * B``.  It is relative, so scaling
    the matrix does not change it.
    """
    return int(np.count_nonzero(s > math.sqrt(RANK_RTOL) * s[0]))


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
