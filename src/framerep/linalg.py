"""Dense complex linear algebra kernel.

Everything in the package runs on ``numpy.complex128`` arrays: matrices are
2-d, vectors 1-d.  The helpers here coerce inputs to that form, hold the one
shape rule (for each argument and for the agreement of several operands) and
the one scale-safe entrywise 2-norm, the one exact split of a scale into a
power of two (:func:`power_of_two_below`; :func:`split_scale` for an array,
:func:`divide_parts` to divide by it exactly),
refuse non-finite entries and overflowing products, freeze every array the
package keeps (:func:`frozen`), and wrap the numpy/LAPACK decompositions
behind the small set of operations the frame and representation modules rely
on.  A LAPACK decomposition or inversion that fails raises
:class:`DecompositionFailed`.

Singular values come in descending order.  All tolerances are relative to
the scale of the input (its largest singular value); there are no absolute
cutoffs.
"""

from __future__ import annotations

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


def svd(a, what: str = "matrix") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``a == U @ diag(s) @ V*``.

    Thin factors; ``s`` holds all ``min(rows, cols)`` singular values in
    descending order, zeros included.  ``what`` names the matrix in the
    error raised when LAPACK does not converge.

    Raises
    ------
    DecompositionFailed
        If the SVD does not converge.
    """
    with _converging(f"SVD of the {what}"):
        u, s, vh = np.linalg.svd(as_matrix(a, what), full_matrices=False)
    return u, s, vh.conj().T


def singular_values(a, what: str = "matrix") -> np.ndarray:
    """The singular values of :func:`svd` alone, without computing the factors."""
    with _converging(f"SVD of the {what}"):
        return np.linalg.svd(as_matrix(a, what), compute_uv=False)


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


def solve_with_inverse(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(a^-1 b, a^-1)`` for a square ``a`` and a vector ``b``, from one LU factorization.

    None if ``a`` is singular to working precision (a zero pivot) or an entry
    of either result leaves the float range; no warning is emitted.
    """
    n = a.shape[0]
    try:
        x = np.linalg.solve(a, np.column_stack([b, np.eye(n)]))
    except np.linalg.LinAlgError:  # a zero pivot, or inf - inf in the substitution
        return None
    if not _is_finite(x):
        return None
    return x[:, 0], x[:, 1:]


def finite_product(what: str, *factors: np.ndarray) -> np.ndarray:
    """The matrix product of finite complex128 ``factors``, taken left to right.

    Raises
    ------
    FrameRepError
        Naming ``what``, if the product overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = factors[0]
        for factor in factors[1:]:
            out = out @ factor
    return require_finite(what, out)


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


def power_of_two_below(x: float) -> float:
    """The power of two ``p`` with ``p <= x < 2 p`` for a finite ``x > 0`` (1/2 for ``x = 0``).

    The one place a scale is split off in binary: dividing or multiplying by
    ``p`` is exact wherever the result stays a normal float, so an array
    divided by it keeps every digit while its largest value moves into
    ``[1, 2)``.  ``p`` itself is a float for every positive float ``x``.
    """
    return float(np.ldexp(1.0, np.frexp(x)[1] - 1))


def split_scale(a: np.ndarray) -> tuple[float, np.ndarray]:
    """``(p, a / p)``, ``p`` the :func:`power_of_two_below` the largest real or imaginary part.

    The quotient, a new array, has its largest part in ``[1, 2)``.  The parts
    are compared, as a modulus may overflow, and divided by
    :func:`split_scale_in_place`.
    """
    quotient = np.array(a, dtype=np.complex128, order="C")
    return split_scale_in_place(quotient), quotient


def split_scale_in_place(a: np.ndarray) -> float:
    """Divide the C-contiguous complex128 ``a`` in place as :func:`split_scale` does; return ``p``.

    The largest part is ``max(max, -min)`` of the parts, so no array of
    moduli is allocated; the quotient is the same bits as :func:`divide_parts`'s.
    """
    parts = a.view(np.float64)
    scale = power_of_two_below(float(max(parts.max(), -parts.min())))
    parts /= scale
    return scale


def divide_parts(a: np.ndarray, scale: float) -> np.ndarray:
    """``a / scale`` for a complex128 ``a``, its real and imaginary parts divided.

    Exact for a power of two ``scale`` wherever the result is a normal float.
    numpy divides a complex array by a subnormal number through its
    overflowing reciprocal; dividing the parts does not.
    """
    return (np.ascontiguousarray(a).view(np.float64) / scale).view(np.complex128)


def euclidean_norm(x: np.ndarray) -> float:
    """The entrywise 2-norm ``sqrt(sum |x_i|^2)`` of an array of any shape, at any scale.

    Squaring the entries, as ``np.linalg.norm`` does, leaves the float range
    beyond about 1e±154, so the moduli are divided by the largest one first.
    A real array divided by a subnormal number stays finite, so this holds
    down to the smallest float.  An inf or NaN entry gives inf or NaN.
    """
    a = np.abs(x)
    scale = float(a.max())
    if not 0.0 < scale < np.inf:
        return scale
    return scale * float(np.linalg.norm(a / scale))


def operator_norm(a) -> float:
    """Spectral norm: the largest singular value, inf beyond the float range.

    Taken of the :func:`split_scale` quotient and multiplied back.
    """
    scale, unit = split_scale(as_matrix(a))
    return scale * float(np.linalg.norm(unit, 2))


def frobenius_norm(a) -> float:
    """Entrywise 2-norm ``sqrt(sum |a_ij|^2)``; always >= operator_norm."""
    return euclidean_norm(as_matrix(a))
