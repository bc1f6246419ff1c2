"""Dense complex linear algebra kernel.

Everything in the package runs on ``numpy.complex128`` arrays: matrices are
2-d, vectors 1-d.  The helpers here coerce inputs to that form, hold the one
shape rule (for each argument and for the agreement of several operands) and
the one scale-safe entrywise 2-norm, the one exact split of an array's
scale into a power of two (:func:`split_exponent`), refuse non-finite
entries, take every checked matrix product, and every power of two a result
is scaled by, on one exponent ledger that refuses it only when the product
itself leaves the float range (:func:`finite_product`), hold that ledger's
one band ``[2^-969, 2^960)`` for every caller that keeps a product's power of
two apart (:func:`ledger_pair`), freeze every array the
package keeps (:func:`frozen`), and wrap the numpy/LAPACK decompositions
behind the small set of operations the frame and representation modules rely
on.  A LAPACK decomposition or inversion that fails raises
:class:`DecompositionFailed`.

Singular values come in descending order.  All tolerances are relative to
the scale of the input (its largest singular value); there are no absolute
cutoffs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .exceptions import DecompositionFailed, DimensionMismatch, FrameRepError

#: Machine epsilon for float64, the base unit of all default tolerances.
EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix", shape=(None, None)) -> np.ndarray:
    """Coerce ``a`` to a finite complex128 2-d array of ``shape`` (``None``: any length).

    The one check of an argument's shape: callers state it here, not afterwards.

    Raises
    ------
    DimensionMismatch
        Naming ``name``, if ``a`` is not 2-d, differs from ``shape``, is
        empty, or contains NaN/Inf.
    """
    return _as_finite(a, name, shape)


def as_vector(v, name: str = "vector", length: int | None = None) -> np.ndarray:
    """Coerce ``v`` to a finite complex128 1-d array of ``length`` (``None``: any).

    Raises like :func:`as_matrix`.
    """
    return _as_finite(v, name, (length,))


def require_shape(name: str, shape: tuple, expected: tuple) -> None:
    """The one shape rule: ``shape`` must equal ``expected`` (``None``: any length).

    :func:`as_matrix` and :func:`as_vector` apply it to each argument, and a
    function of several operands applies it to their agreement.

    Raises
    ------
    DimensionMismatch
        Naming ``name`` and both shapes, if they differ.
    """
    if len(shape) != len(expected) or any(
            want is not None and want != got for want, got in zip(expected, shape)):
        wanted = str(expected).replace("None", "any")
        raise DimensionMismatch(f"{name} must have shape {wanted}, got {shape}")


def _as_finite(a, name: str, shape: tuple) -> np.ndarray:
    out = np.asarray(a, dtype=np.complex128)
    if out.ndim != len(shape):
        raise DimensionMismatch(f"{name} must be {len(shape)}-dimensional, got ndim={out.ndim}")
    require_shape(name, out.shape, shape)
    if out.size == 0:
        raise DimensionMismatch(f"{name} must have positive dimensions, got shape {out.shape}")
    if not _is_finite(out):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return out


def _is_finite(a: np.ndarray) -> bool:
    """Whether every real and imaginary part of the complex128 array ``a`` is finite."""
    # one pass over both parts, about twice as fast as testing the complex
    # entries; the view needs contiguous memory, which ravel in memory order
    # gives without a copy unless ``a`` is strided
    return bool(np.isfinite(a.ravel(order="K").view(np.float64)).all())


@contextmanager
def _converging(step: str):
    """Re-raise a LAPACK failure as DecompositionFailed naming ``step``."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailed(f"{step} failed: {exc}") from exc


def svd(a: np.ndarray, what: str = "matrix") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``a == U @ diag(s) @ V*`` of a finite 2-d ``a``.

    Thin factors; ``s`` holds all ``min(rows, cols)`` singular values in
    descending order, zeros included.  ``a`` is not checked again: every
    caller passes an array already built finite, such as a result of
    :func:`finite_product`.  ``what`` names the matrix in the error raised
    when LAPACK does not converge.

    Raises
    ------
    DecompositionFailed
        If the SVD does not converge.
    """
    with _converging(f"SVD of the {what}"):
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh.conj().T


def singular_values(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """The singular values of :func:`svd` alone, without computing the factors.

    ``a`` is finite and 2-d, as for :func:`svd`, and is not checked again.
    """
    with _converging(f"SVD of the {what}"):
        return np.linalg.svd(a, compute_uv=False)


def hermitian_eigs(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """The eigenvalues of a finite Hermitian ``a`` in ascending order, without eigenvectors.

    Raises DecompositionFailed naming ``what`` if LAPACK does not converge.
    """
    with _converging(f"eigenvalues of the {what}"):
        return np.linalg.eigvalsh(a)


def inverse(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``a^-1`` for a finite square ``a``; DecompositionFailed naming ``what`` if it is singular."""
    with _converging(f"inverse of the {what}"):
        return np.linalg.inv(a)


def solve_with_condition(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, float] | None:
    """``(a^-1 b, |a|_F, |a^-1|_F)`` for a square ``a`` and a vector ``b``, from one LU of ``a``.

    None if ``a`` is singular to working precision (a zero pivot), an entry
    of ``a^-1 b`` or ``a^-1`` leaves the float range, or the LU lost ``a``:
    ``|a|_F |a^-1|_F >= sqrt(n) >= 1`` for every invertible ``a``, so a
    product below 1/2 (such as an ``a^-1`` underflowed to zero) is no
    inverse.  No warning is emitted.
    """
    n = a.shape[0]
    try:
        x = np.linalg.solve(a, np.column_stack([b, np.eye(n)]))
    except np.linalg.LinAlgError:  # a zero pivot, or inf - inf in the substitution
        return None
    if not _is_finite(x):
        return None
    norms = euclidean_norm(a), euclidean_norm(x[:, 1:])
    return (x[:, 0], *norms) if norms[0] * norms[1] >= 0.5 else None


def finite_product(what: str, *factors: np.ndarray, exponent: int = 0) -> np.ndarray:
    """The product of ``factors`` times ``2^exponent``, refused only if it leaves the float range.

    The float64 or complex128 factors are multiplied left to right as
    matrices, except that a 1-d factor between two others is a diagonal: it
    scales the columns of the product before it and is never formed.  A
    chain applied to a vector v is written transposed, ``v^T A^T B^T ...``
    for ``... B A v``, so that it runs right to left on vectors; ``v @ M.T``
    has the bits of ``M @ v``.

    The product is :func:`ledger_pair`'s with no ceiling.  The direct
    product P is kept when its largest real or imaginary part lies
    in ``[2^-969, inf)`` (2^-969 is tiny/eps: below it an entry may have lost
    digits to underflow) or when a factor is zero, which makes P exactly
    zero.  Otherwise P is recomputed on the exponent ledger: each factor and
    each partial product is divided by its power of two
    (:func:`split_exponent`), so no step leaves the float range, and the
    integer exponents are summed apart.  One final ``ldexp`` applies them
    together with ``exponent``.  So a product is returned whenever it is in
    range, whatever its partial products or ``2^exponent`` alone do; it may
    then be subnormal.  The ledger's split copies keep each factor's layout,
    so wherever every factor, partial product and result is a normal float,
    a ledger product is the direct product's bits times its power of two.

    Raises
    ------
    FrameRepError
        Naming ``what``, if the product overflows or a factor is not finite.
    """
    shift, out = ledger_pair(*factors, ceiling=np.inf)
    if not (shift or exponent):
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(what, _ldexp(out, shift + exponent))


def product_norm_ratio(numerator: tuple, denominator: tuple) -> float:
    """``|P| / |Q|`` for the products P of ``numerator`` and Q of ``denominator``, 0 if Q is zero.

    The ratio of the 2-norms is taken of the :func:`ledger_pair` quotients
    ``P / 2^e`` and ``Q / 2^f`` and shifted by ``2^(e - f)``, so only the
    ratio can leave the float range.
    """
    (e, p), (f, q) = (ledger_pair(*factors) for factors in (numerator, denominator))
    reference = euclidean_norm(q)
    ratio = euclidean_norm(p) / reference if reference > 0.0 else 0.0
    if e == f:
        return ratio
    with np.errstate(over="ignore"):
        return float(np.ldexp(ratio, e - f))


def ledger_pair(*factors: np.ndarray, ceiling: float = 2.0**960) -> tuple[int, np.ndarray]:
    """``(e, P / 2^e)`` for the product P of ``factors``, multiplied as in :func:`finite_product`.

    The one band rule of the package's float range.  A direct product whose
    largest real or imaginary part lies in ``[2^-969, ceiling)``, or which
    a zero factor makes exactly zero, is returned as it is, with e = 0.  One
    at or above ``ceiling``, whose entries are in range but whose norm or
    trace may not be, is returned as its own :func:`split_exponent`.  Any
    other product (one that overflows, or lies below 2^-969) is recomputed
    on the exponent ledger, and ``P / 2^e`` has its largest part in ``[1,
    2)``.  A factor that is not finite leaves ``P / 2^e`` not finite, with e
    = -1, :func:`split_exponent`'s exponent for it.
    """
    # a 1-d factor between two others is a diagonal, applied as a column scaling
    steps = [(np.multiply if factor.ndim == 1 and i < len(factors) - 1 else np.matmul, factor)
             for i, factor in enumerate(factors[1:], 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        out = factors[0]
        for multiply, factor in steps:
            out = multiply(out, factor)
        largest = _largest_part(out)
        if largest < np.inf and (largest >= 2.0**-969 or not all(map(np.any, factors))):
            return (0, out) if largest < ceiling else split_exponent(out)
        exponent, out = split_exponent(factors[0])
        for multiply, factor in steps:
            factor_exponent, unit = split_exponent(factor)
            product_exponent, out = split_exponent(multiply(out, unit))
            exponent += factor_exponent + product_exponent
    # so finite_product never returns a product that is not finite unchecked
    return (exponent, out) if _is_finite(out) else (-1, out)


def require_finite(what: str, out: np.ndarray) -> np.ndarray:
    """``out``, a complex128 result computed from finite inputs, if it is finite.

    Finite inputs give an inf or NaN entry only when the computation leaves
    the float range; run it under ``np.errstate(over="ignore",
    invalid="ignore")`` so that this check, not a RuntimeWarning, reports it.

    Raises
    ------
    FrameRepError
        Naming ``what``, if ``out`` has an inf or NaN entry.
    """
    if not _is_finite(out):
        raise FrameRepError(f"the {what} overflows the float range")
    return out


def frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place; the one way a kept array is frozen.

    Views taken of it afterwards are read-only too.
    """
    a.setflags(write=False)
    return a


def wrap_checked(cls, field: str, array: np.ndarray, **others):
    """A ``cls`` holding ``array`` as ``field``, plus ``others``, built without its constructor.

    Only for a fresh, already checked array that nothing else holds, such as a
    result of :func:`finite_product`: it is frozen in place, not checked again or copied.
    """
    obj = object.__new__(cls)
    obj.__dict__.update({field: frozen(array)}, **others)
    return obj


def split_exponent(a: np.ndarray) -> tuple[int, np.ndarray]:
    """``(e, a / 2^e)``: ``2^e <= x < 2^(e+1)`` for the largest real or imaginary part x of ``a``.

    The one place a scale is split off in binary.  The quotient, a new array
    of ``a``'s dtype (float64 or complex128), has its largest part in ``[1,
    2)`` and keeps every digit wherever it is a normal float: scaling by a
    power of two is exact there.  For a zero ``a``, e is -1.  The parts are
    compared, as a modulus may overflow.
    """
    exponent = math.frexp(_largest_part(a))[1] - 1
    return exponent, _ldexp(a, -exponent)


def _largest_part(a: np.ndarray) -> float:
    """The largest magnitude of a part of a float64 or complex128 ``a``; NaN if one is NaN.

    ``max(max, -min)`` of the float view, so no array of moduli is allocated.
    """
    parts = np.ascontiguousarray(a).view(np.float64)
    return float(max(parts.max(), -parts.min()))


def _ldexp(a: np.ndarray, exponent: int) -> np.ndarray:
    """``a * 2^exponent`` in ``a``'s dtype, each real and imaginary part rounded once.

    Exact wherever the result is a normal float.  numpy has no complex
    ldexp, so the parts are scaled through the float view.  An F-contiguous
    ``a`` is scaled as its transpose, so the result keeps its layout and a
    product with it runs the same kernel as with ``a``.
    """
    if a.flags.f_contiguous and not a.flags.c_contiguous:
        return _ldexp(a.T, exponent).T
    a = np.ascontiguousarray(a)
    return np.ldexp(a.view(np.float64), exponent).view(a.dtype)


def euclidean_norm(x: np.ndarray) -> float:
    """The entrywise 2-norm ``sqrt(sum |x_i|^2)`` of an array of any shape, at any scale.

    Squaring the entries, as ``np.linalg.norm`` does, leaves the float range
    beyond about 1e±154, so the moduli are divided by the largest one first.
    Below the ledger's floor, a largest modulus under 2^-969 (see
    :func:`finite_product`), a subnormal entry's modulus would be rounded on
    the subnormal grid, so there ``x`` is multiplied by 2^1074 first, which
    is exact, and the norm is divided back once; above it the moduli are
    taken as they are.  Callers pass finite arrays; an inf or NaN entry
    gives inf or NaN.
    """
    a = np.abs(x)
    scale = float(a.max())
    if 0.0 < scale < 2.0**-969:
        return math.ldexp(euclidean_norm(_ldexp(x, 1074)), -1074)
    if not 0.0 < scale < np.inf:
        return scale
    return scale * float(np.linalg.norm(a / scale))


def operator_norm(a) -> float:
    """Spectral norm: the largest singular value, inf beyond the float range.

    ``a`` may be any array: it is checked finite here, by :func:`as_matrix`.
    At every scale, above the ledger's floor and below it, the largest
    singular value is read through :func:`singular_values` of the
    :func:`split_exponent` quotient, whose largest part lies in [1, 2), and
    multiplied back by its power of two.

    Raises
    ------
    DecompositionFailed
        If the SVD does not converge.
    """
    exponent, unit = split_exponent(as_matrix(a))
    return 2.0**exponent * float(singular_values(unit)[0])


def frobenius_norm(a) -> float:
    """Entrywise 2-norm ``sqrt(sum |a_ij|^2)``; always >= operator_norm."""
    return euclidean_norm(as_matrix(a))
