"""Tests for the dense complex linear-algebra kernel."""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framerep import (
    DecompositionFailed,
    DimensionMismatch,
    Frame,
    FrameRepError,
    LinearOperator,
    Representation,
    biorthogonal,
    frame_multiplier,
    frobenius_norm,
    gram,
    hs_norm,
    identity_operator,
    matrix_of_operator,
    operator_from_images,
    operator_norm,
    operator_of_matrix,
    project_onto_analysis_range,
    solve,
)
from framerep.linalg import (as_matrix, as_vector, euclidean_norm, finite_product,
                             product_norm_ratio, require_shape, svd)
from helpers import no_convergence, random_complex


class TestSvd:
    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 2.0]))
        assert np.allclose(s, [3.0, 2.0], atol=1e-14)

    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((2, 2)))
        assert np.array_equal(s, [0.0, 0.0])

    def test_tall_embedding(self):
        a = np.array([[1, 0], [0, 0], [0, 0]], dtype=complex)
        _, s, _ = svd(a)
        assert np.allclose(s, [1.0, 0.0], atol=1e-14)

    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = random_complex(rng, rng.integers(1, 12), rng.integers(1, 12))
            u, s, v = svd(a)
            rebuilt = (u * s) @ v.conj().T
            assert np.linalg.norm(rebuilt - a, "fro") <= 1e-10 * np.linalg.norm(a, "fro")
            assert np.all(np.diff(s) <= 0)
            assert np.all(s >= 0)


class TestDecompositionFailure:
    def test_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(DecompositionFailed, match="SVD of the matrix") as info:
            svd(np.eye(2))
        # LinAlgError subclasses ValueError, which the CLI reports as misuse
        assert not isinstance(info.value, ValueError)

    def test_operator_norm(self, monkeypatch):
        # the spectral norm reads its largest singular value through the same wrapper
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(DecompositionFailed, match="SVD of the matrix") as info:
            operator_norm(np.eye(2))
        assert not isinstance(info.value, ValueError)

    def test_pseudoinverse(self, psi0, monkeypatch):
        # the solver's cutoff pseudoinverse of the n x n core is the
        # package's one pseudoinverse, which a singular operator reaches;
        # the frame's own SVD succeeds first
        psi0.singular_values
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(DecompositionFailed, match="core") as info:
            solve(LinearOperator(np.diag([1.0, 0.0])), [1, 0], psi0)
        assert not isinstance(info.value, ValueError)


def _ldexp(a, exponent):
    """``a * 2^exponent`` for a complex array, each part rounded once."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.ascontiguousarray(a).view(np.float64), exponent).view(np.complex128)


def _largest_part(a):
    return float(np.abs(np.ascontiguousarray(a).view(np.float64)).max())


class TestExponentLedger:
    """``finite_product`` returns its direct product, or the exact product on its ledger,
    times ``2^exponent``; a 1-d middle factor is a diagonal."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(2, 3), vector=st.booleans(),
           diagonal=st.booleans(),
           exponents=st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
           exponent=st.just(0) | st.integers(-1100, 1100))
    def test_direct_or_scaled_by_its_exponents(self, seed, length, vector, diagonal, exponents,
                                               exponent):
        rng = np.random.default_rng(seed)
        dims = rng.integers(1, 7, size=length + 1)
        diagonal = diagonal and length == 3
        if diagonal:
            dims[2] = dims[1]
        factors = [random_complex(rng, dims[i], dims[i + 1]) for i in range(length)]
        if vector:
            factors[-1] = factors[-1][:, 0]
        exponents = exponents[:length]
        scaled = [_ldexp(factor, k) for factor, k in zip(factors, exponents)]
        with np.errstate(over="ignore", invalid="ignore"):
            if diagonal:
                # a 1-d middle factor: the direct product scales the columns,
                # and the exact one below multiplies by the dense diag
                scaled[1], factors[1] = np.diagonal(scaled[1]).copy(), np.diagonal(factors[1])
                direct = (scaled[0] * scaled[1]) @ scaled[2]
            else:
                direct = functools.reduce(np.matmul, scaled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = finite_product("chain", *scaled, exponent=exponent)
            except FrameRepError as exc:
                got = exc
        if 2.0**-969 <= _largest_part(direct) < np.inf:
            expected = _ldexp(direct, exponent)
            if np.isfinite(expected).all():
                assert np.array_equal(got, expected)
            else:
                assert isinstance(got, FrameRepError)
            return
        if diagonal:
            factors[1] = np.diag(factors[1])
        exact = functools.reduce(np.matmul, factors)
        # the base-2 exponent of the largest part of 2^(sum(k) + exponent) times the exact product
        top = math.log2(_largest_part(exact)) + sum(exponents) + exponent
        if -960 <= top <= 1000:
            expected = _ldexp(exact, sum(exponents) + exponent)
            assert not isinstance(got, FrameRepError)
            assert _largest_part(got - expected) <= 1e-13 * _largest_part(expected)
        elif top > 1030:
            assert isinstance(got, FrameRepError)
            assert str(got) == "the chain overflows the float range"


class TestNorms:
    def test_diagonal(self):
        a = np.diag([3.0, 4.0])
        assert operator_norm(a) == pytest.approx(4.0, abs=1e-14)
        assert frobenius_norm(a) == pytest.approx(5.0, abs=1e-14)

    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-14)
        assert frobenius_norm(np.eye(5)) == pytest.approx(np.sqrt(5), abs=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        u = random_complex(rng, 4)
        v = random_complex(rng, 6)
        a = np.outer(u, v.conj())
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        assert operator_norm(a) == pytest.approx(expected, rel=1e-12)
        assert frobenius_norm(a) == pytest.approx(expected, rel=1e-12)

    def test_frobenius_dominates_operator_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = random_complex(rng, rng.integers(1, 10), rng.integers(1, 10))
            assert frobenius_norm(a) >= operator_norm(a) - 1e-12

    def test_frobenius_adjoint_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = random_complex(rng, rng.integers(1, 10), rng.integers(1, 10))
            x, y = frobenius_norm(a) ** 2, frobenius_norm(a.conj().T) ** 2
            assert abs(x - y) <= 1e-12 * x

    @pytest.mark.parametrize("t", [1e-300, 1e-200, 1e200, 1e300])
    def test_beyond_squaring_range(self, t):
        # the squares of the entries leave the float range; the norm does not
        assert frobenius_norm(np.eye(3) * t) == pytest.approx(np.sqrt(3) * t, rel=1e-15)
        assert euclidean_norm(np.full(4, 1j * t)) == pytest.approx(2 * t, rel=1e-15)

    def test_operator_norm_beyond_float_range_is_inf(self):
        # the modulus of the entry overflows although both of its parts are finite
        a = [[1.7e308 + 1.7e308j]]
        assert operator_norm(a) == frobenius_norm(a) == np.inf

    @pytest.mark.parametrize("t", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_operator_norm_is_homogeneous(self, t):
        a = random_complex(np.random.default_rng(8), 4, 3)
        assert operator_norm(t * a) == pytest.approx(t * operator_norm(a), rel=1e-14)
        assert operator_norm(t * a) <= frobenius_norm(t * a)

    def test_subnormal_largest_modulus(self):
        # dividing by a subnormal modulus stays finite for the real moduli
        assert euclidean_norm(np.array([3e-320, 1e-320j])) == pytest.approx(np.sqrt(10) * 1e-320,
                                                                             rel=1e-3)
        # a rank-one row: its operator norm is its Frobenius norm
        for row in ([3e-320, 1e-320j], [3e-320 + 1e-320j]):
            assert operator_norm([row]) == pytest.approx(euclidean_norm(np.array(row)), rel=1e-3)

    def test_moduli_below_the_ledger_floor(self):
        # a complex entry's modulus would be rounded on the subnormal grid, so
        # the norm is that of the entries times 2^1074, rounded once
        for seed in range(300):
            rng = np.random.default_rng(seed)
            a = _ldexp(random_complex(rng, *rng.integers(1, 6, 2)), -int(rng.integers(970, 1061)))
            expected = math.ldexp(np.linalg.norm(_ldexp(a, 1074)), -1074)
            assert frobenius_norm(a) == hs_norm(LinearOperator(a))
            assert frobenius_norm(a) == pytest.approx(expected, rel=1e-12, abs=0), seed

    @pytest.mark.parametrize("top, expected", [(0.5e308, 0.5), (1e308, 1.0)])
    def test_ratio_of_norms_beyond_the_float_range(self, top, expected):
        # each vector's entries are in range, but its 2-norm is not
        numerator, denominator = (np.full(4, x, dtype=np.complex128) for x in (top, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert product_norm_ratio((numerator,), (denominator,)) == expected

    def test_matches_numpy_in_range(self):
        rng = np.random.default_rng(7)
        for shape in [(1,), (64,), (5, 3), (2, 3, 4)]:
            x = random_complex(rng, *shape)
            assert euclidean_norm(x) == pytest.approx(np.linalg.norm(x.ravel()), rel=1e-15)

    @pytest.mark.parametrize("entry, expected", [(0.0, 0.0), (np.inf, np.inf), (np.nan, np.nan)])
    def test_zero_and_non_finite(self, entry, expected):
        assert euclidean_norm(np.array([entry, 0.0])) == pytest.approx(expected, nan_ok=True)


class TestShapeRule:
    """One rule, ``require_shape``, checks each argument's shape (through
    ``as_matrix`` / ``as_vector``) and the agreement of several operands."""

    def test_free_axis_accepts_any_length(self):
        assert as_matrix(np.ones((3, 5)), "m", (3, None)).shape == (3, 5)
        assert as_vector(np.ones(7), "v").shape == (7,)

    def test_ndim_error_comes_before_shape_error(self):
        with pytest.raises(DimensionMismatch, match="m must be 2-dimensional, got ndim=1"):
            as_matrix(np.ones(3), "m", (3, 3))

    def test_rank_differs(self):
        with pytest.raises(DimensionMismatch,
                           match=re.escape("x must have shape (2, 2), got (2,)")):
            require_shape("x", (2,), (2, 2))

    def test_scalar_given_a_length_is_not_a_vector(self):
        # a 0-d scalar is not a vector of dimension one
        with pytest.raises(DimensionMismatch, match="v must be 1-dimensional, got ndim=0"):
            as_vector(2.0, "v", 1)

    @pytest.mark.parametrize("call, message", [
        (lambda f: f.analyze([1, 2, 3]), "input vector must have shape (2,), got (3,)"),
        (lambda f: f.synthesize([1, 2]), "coefficient vector must have shape (3,), got (2,)"),
        (lambda f: identity_operator(2)([1, 2, 3]),
         "operator argument must have shape (2,), got (3,)"),
        (lambda f: Representation(np.ones((2, 3)), f, f),
         "representation matrix must have shape (3, 3), got (2, 3)"),
        (lambda f: operator_of_matrix(np.ones((2, 3)), f, f),
         "coefficient matrix must have shape (3, 3), got (2, 3)"),
        (lambda f: frame_multiplier([1, 1], f, f),
         "multiplier weights must have shape (3,), got (2,)"),
        (lambda f: operator_from_images(f, np.ones((2, 2))),
         "images must have shape (3, any), got (2, 2)"),
        (lambda f: project_onto_analysis_range(f, [1, 2]),
         "coefficient vector must have shape (3,), got (2,)"),
        (lambda f: solve(identity_operator(2), [1, 2, 3], f),
         "right-hand side must have shape (2,), got (3,)"),
        # operands that must agree with each other
        (lambda f: gram(f, Frame(np.eye(3))),
         "vectors of phi must have shape (any, 2), got (3, 3)"),
        (lambda f: biorthogonal(f, Frame(np.eye(2))),
         "vectors of phi must have shape (3, 2), got (2, 2)"),
        (lambda f: identity_operator(2) @ identity_operator(3),
         "right operator matrix must have shape (2, any), got (3, 3)"),
        (lambda f: matrix_of_operator(identity_operator(2), f, f)
         @ matrix_of_operator(identity_operator(2), Frame(np.eye(2)), f),
         "right representation matrix must have shape (3, any), got (2, 3)"),
        (lambda f: matrix_of_operator(identity_operator(3), f, f),
         "operator matrix must have shape (2, 2), got (3, 3)"),
        (lambda f: frame_multiplier([1, 1, 1], f, Frame(np.eye(2))),
         "vectors of analysis_frame must have shape (3, any), got (2, 2)"),
        (lambda f: solve(identity_operator(3), [1, 2], f),
         "operator matrix must have shape (2, 2), got (3, 3)"),
    ], ids=["analyze", "synthesize", "operator_call", "Representation", "operator_of_matrix",
            "frame_multiplier", "operator_from_images", "project_onto_analysis_range", "solve",
            "gram", "biorthogonal", "operator_matmul", "representation_matmul",
            "matrix_of_operator", "frame_multiplier_counts", "solve_operator"])
    def test_entry_points_name_the_argument_and_both_shapes(self, psi0, call, message):
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            call(psi0)
