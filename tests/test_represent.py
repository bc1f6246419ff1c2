"""Tests for frame-coordinate operator representations and their identities."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framerep import (
    DimensionMismatch,
    Frame,
    FrameRepError,
    IncompatibleFrames,
    LinearOperator,
    NotAFrame,
    Representation,
    frame_multiplier,
    frobenius_norm,
    gram,
    hs_norm,
    identity_operator,
    kernel_of_representation,
    matrix_of_operator,
    operator_from_images,
    operator_norm,
    operator_of_matrix,
    range_map_check,
    rank_one,
    roundtrip_reconstruct,
)
from framerep.linalg import euclidean_norm
from helpers import (
    LAYOUTS,
    frame_with_condition,
    imaginary_nan,
    random_complex,
    random_frame,
    random_operator,
    random_riesz_basis,
    random_unitary,
    rank_one_expansion,
)


class TestLinearOperator:
    def test_apply(self):
        op = LinearOperator([[2, 0], [0, 3]])
        assert np.allclose(op([1, 1]), [2, 3], atol=0)

    def test_dimensions(self):
        op = LinearOperator(np.ones((3, 2)))
        assert (op.dim_in, op.dim_out) == (2, 3)

    def test_apply_dim_check(self):
        with pytest.raises(DimensionMismatch):
            LinearOperator([[2, 0], [0, 3]])([1, 1, 1])

    def test_compose(self):
        a = LinearOperator([[0, 1], [1, 0]])
        b = LinearOperator([[2, 0], [0, 3]])
        assert np.allclose((a @ b).matrix, [[0, 3], [2, 0]], atol=0)

    def test_compose_dim_check(self):
        with pytest.raises(DimensionMismatch):
            LinearOperator(np.ones((2, 2))) @ LinearOperator(np.ones((3, 3)))

    def test_matrix_read_only(self):
        op = identity_operator(2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 7

    def test_does_not_freeze_callers_array(self, onb2):
        for construct in (LinearOperator, lambda a: Representation(a, onb2, onb2)):
            source = np.array([[1, 2j], [3, 4]])
            built = construct(source)
            assert source.flags.writeable
            assert np.array_equal(source, [[1, 2j], [3, 4]])
            assert not built.matrix.flags.writeable
            source[0, 0] = 5.0  # the public constructors copy
            assert built.matrix[0, 0] == 1.0

    @pytest.mark.parametrize("construct", [
        LinearOperator,
        lambda a: Representation(a, analysis_frame=Frame(np.eye(3)),
                                 synthesis_frame=Frame(np.eye(2))),
    ], ids=["LinearOperator", "Representation"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rejects_imaginary_nan_in_any_layout(self, construct, layout):
        with pytest.raises(DimensionMismatch, match="contains non-finite entries"):
            construct(imaginary_nan(3, 2, layout))


PRODUCTS = {
    "matrix_of_operator": lambda f: matrix_of_operator(identity_operator(2), f, f),
    "operator_of_matrix": lambda f: operator_of_matrix(np.eye(3), f, f),
    "frame_multiplier": lambda f: frame_multiplier(np.ones(3), f, f),
    "operator_from_images": lambda f: operator_from_images(f, f.vectors),
    "operator_matmul": lambda f: identity_operator(2) @ identity_operator(2),
    "representation_matmul": lambda f: (
        matrix_of_operator(identity_operator(2), f, f.canonical_dual())
        @ matrix_of_operator(identity_operator(2), f, f.canonical_dual())),
    "rank_one": lambda f: rank_one(f.vectors[0], f.vectors[1]),
}


@pytest.mark.parametrize("product", PRODUCTS.values(), ids=PRODUCTS.keys())
def test_product_results_are_read_only(product, psi0):
    result = product(psi0)
    with pytest.raises(ValueError):
        result.matrix[0, 0] = 7


@pytest.mark.parametrize("product", [
    lambda rep: identity_operator(2) @ 3,
    lambda rep: rep @ 3,
    lambda rep: rep.compose(3),
], ids=["operator_matmul", "representation_matmul", "representation_compose"])
def test_product_with_a_non_operand_is_a_type_error(product, psi0):
    with pytest.raises(TypeError):
        product(matrix_of_operator(identity_operator(2), psi0, psi0.canonical_dual()))


class TestRankOne:
    def test_outer_product(self):
        op = rank_one([1, 0], [0, 1])
        assert np.allclose(op.matrix, [[0, 1], [0, 0]], atol=0)

    def test_acts_as_inner_product(self):
        rng = np.random.default_rng(30)
        f, g = random_complex(rng, 3), random_complex(rng, 5)
        h = random_complex(rng, 5)
        op = rank_one(f, g)
        assert np.allclose(op(h), np.vdot(g, h) * f, rtol=1e-13, atol=0)

    def test_unit_vector_gives_projector(self):
        f = np.array([1.0, 1.0]) / np.sqrt(2)
        p = rank_one(f, f).matrix
        assert np.allclose(p @ p, p, atol=1e-15)

    def test_zero_input_side(self):
        assert np.allclose(rank_one([1, 2], [0, 0]).matrix, np.zeros((2, 2)), atol=0)


class TestHsNorm:
    def test_diagonal(self):
        assert hs_norm(LinearOperator(np.diag([3.0, 4.0]))) == pytest.approx(5.0, abs=1e-14)

    def test_identity(self):
        assert hs_norm(identity_operator(7)) == pytest.approx(np.sqrt(7), rel=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(31)
        f, g = random_complex(rng, 4), random_complex(rng, 3)
        expected = np.linalg.norm(f) * np.linalg.norm(g)
        assert hs_norm(rank_one(f, g)) == pytest.approx(expected, rel=1e-13)

    def test_independent_of_orthonormal_basis(self):
        rng = np.random.default_rng(32)
        op = random_operator(rng, 4, 4)
        q = random_unitary(rng, 4)
        via_basis = np.sqrt(sum(np.linalg.norm(op(q[:, i])) ** 2 for i in range(4)))
        assert hs_norm(op) == pytest.approx(via_basis, rel=1e-12)

    @pytest.mark.parametrize("t", [1e-300, 1e-200, 1e200, 1e300])
    def test_beyond_squaring_range(self, t):
        assert hs_norm(LinearOperator(np.eye(3) * t)) == pytest.approx(np.sqrt(3) * t, rel=1e-15)

    def test_dominates_operator_norm(self):
        rng = np.random.default_rng(33)
        op = random_operator(rng, 5, 3)
        assert hs_norm(op) >= operator_norm(op.matrix) - 1e-12


class TestMatrixOfOperator:
    def test_frame_operator_over_dual_pair_gives_gram(self, psi0):
        op = LinearOperator(psi0.frame_operator)
        rep = matrix_of_operator(op, psi0, psi0.canonical_dual())
        assert np.allclose(rep.matrix, gram(psi0, psi0), atol=1e-12)

    def test_identity_gives_cross_gram(self, psi0):
        rep = matrix_of_operator(identity_operator(2), psi0, psi0)
        assert np.allclose(rep.matrix, gram(psi0, psi0), atol=1e-12)

    def test_onb_pair_recovers_ordinary_matrix(self, onb2):
        rng = np.random.default_rng(34)
        op = random_operator(rng, 2, 2)
        rep = matrix_of_operator(op, onb2, onb2)
        assert np.allclose(rep.matrix, op.matrix, atol=1e-14)

    def test_entries_are_inner_products(self):
        rng = np.random.default_rng(35)
        psi = random_frame(rng, 3, 5)
        phi = random_frame(rng, 4, 6)
        op = random_operator(rng, 4, 3)
        rep = matrix_of_operator(op, phi, psi)
        for m in range(phi.count):
            for n in range(psi.count):
                expected = np.vdot(phi.vectors[m], op(psi.vectors[n]))
                assert rep.matrix[m, n] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_norm_bound(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            n1, n2 = rng.integers(1, 6, size=2)
            psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 4)))
            phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 4)))
            op = random_operator(rng, n2, n1)
            rep = matrix_of_operator(op, phi, psi)
            bound = np.sqrt(psi.bounds.upper * phi.bounds.upper) * operator_norm(op.matrix)
            assert operator_norm(rep.matrix) <= bound * (1 + 1e-9)

    def test_dim_mismatch(self, psi0, onb2):
        with pytest.raises(DimensionMismatch):
            matrix_of_operator(LinearOperator(np.ones((3, 3))), psi0, onb2)


class TestOperatorOfMatrix:
    def test_identity_over_dual_pair(self, psi0):
        op = operator_of_matrix(np.eye(3), psi0, psi0.canonical_dual())
        assert np.allclose(op.matrix, np.eye(2), atol=1e-12)

    def test_identity_over_same_frame_gives_frame_operator(self, psi0):
        op = operator_of_matrix(np.eye(3), psi0, psi0)
        assert np.allclose(op.matrix, psi0.frame_operator, atol=1e-12)

    def test_zero(self, psi0):
        op = operator_of_matrix(np.zeros((3, 3)), psi0, psi0)
        assert np.allclose(op.matrix, np.zeros((2, 2)), atol=0)

    def test_norm_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            n1, n2 = rng.integers(1, 6, size=2)
            psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 4)))
            phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 4)))
            m = random_complex(rng, phi.count, psi.count)
            op = operator_of_matrix(m, phi, psi)
            bound = np.sqrt(psi.bounds.upper * phi.bounds.upper) * operator_norm(m)
            assert operator_norm(op.matrix) <= bound * (1 + 1e-9)

    def test_shape_check(self, psi0, onb2):
        with pytest.raises(DimensionMismatch):
            operator_of_matrix(np.eye(2), psi0, onb2)


#: Frame scales whose squares or inverse squares lie outside the normal float range.
SCALES = [1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300]


class TestRoundtrip:
    def test_golden(self, psi0):
        op = LinearOperator([[1, 2], [3, 4]])
        back = roundtrip_reconstruct(op, psi0, psi0)
        assert np.allclose(back.matrix, op.matrix, atol=1e-12)

    def test_identity_any_pair(self, psi0, mercedes):
        back = roundtrip_reconstruct(identity_operator(2), psi0, mercedes)
        assert np.allclose(back.matrix, np.eye(2), atol=1e-12)

    def test_rank_one_over_tight_frame(self, mercedes):
        op = rank_one([1, 0], [0, 1])
        back = roundtrip_reconstruct(op, mercedes, mercedes)
        assert np.allclose(back.matrix, op.matrix, atol=1e-12)

    def test_random_mixed_spaces(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            n1, n2 = rng.integers(1, 7, size=2)
            psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 5)))
            phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 5)))
            op = random_operator(rng, n2, n1)
            back = roundtrip_reconstruct(op, phi, psi)
            scale = frobenius_norm(op.matrix)
            assert frobenius_norm(back.matrix - op.matrix) <= 1e-9 * scale

    def test_injectivity_of_representation(self):
        rng = np.random.default_rng(39)
        psi = random_frame(rng, 3, 5)
        phi = random_frame(rng, 3, 6)
        op1 = random_operator(rng, 3, 3)
        op2 = random_operator(rng, 3, 3)
        rep1 = matrix_of_operator(op1, phi, psi)
        rep2 = matrix_of_operator(op2, phi, psi)
        assert not np.allclose(rep1.matrix, rep2.matrix, atol=1e-10)

    def test_requires_frames(self, psi0):
        with pytest.raises(NotAFrame):
            roundtrip_reconstruct(identity_operator(2), psi0, Frame([[1, 0], [2, 0]]))

    @pytest.mark.parametrize("scale", SCALES)
    def test_identity_at_any_scale(self, psi0, scale):
        # the representation over the duals has entries near scale**-2, which
        # leave the float range; the round trip must not pass through them
        frame = Frame(psi0.vectors * scale)
        back = roundtrip_reconstruct(identity_operator(2), frame, frame)
        assert np.abs(back.matrix - np.eye(2)).max() <= 1e-14

    def test_riesz_basis_at_large_scale(self):
        rng = np.random.default_rng(61)
        phi = Frame(random_riesz_basis(rng, 3, 1e2).vectors * 1e160)
        psi = Frame(random_riesz_basis(rng, 3, 1e2).vectors * 1e160)
        op = random_operator(rng, 3, 3)
        back = roundtrip_reconstruct(op, phi, psi)
        assert frobenius_norm(back.matrix - op.matrix) <= 1e-14 * frobenius_norm(op.matrix)


class TestRoundtripCache:
    """Each frame keeps its n x n factor D C_dual; a warm round trip multiplies three n x n arrays."""

    @staticmethod
    def uncached(op, phi, psi):
        with np.errstate(over="ignore", invalid="ignore"):
            left = phi.synthesis_matrix @ phi.canonical_dual().analysis_matrix
            right = psi.canonical_dual().synthesis_matrix @ psi.analysis_matrix
            return left @ op.matrix @ right

    @pytest.mark.parametrize("scale", [1.0, *SCALES])
    def test_equals_uncached_product_bit_for_bit(self, scale):
        rng = np.random.default_rng(62)
        phi = Frame(random_complex(rng, 9, 4) * scale)
        psi = Frame(random_complex(rng, 7, 3) / scale)
        op = random_operator(rng, 4, 3)
        for args in ((op, phi, psi), (random_operator(rng, 3, 3), psi, psi)):
            expected = self.uncached(*args)
            for _ in range(2):  # the call that fills the caches, then one that reads them
                assert np.array_equal(roundtrip_reconstruct(*args).matrix, expected)

    def test_warm_call_reads_no_frame_matrix(self, monkeypatch, psi0, mercedes):
        op = LinearOperator([[1, 2], [3, 4]])
        reads = []
        for name in ("analysis_matrix", "synthesis_matrix"):
            def counted(frame, original=Frame.__dict__[name], name=name):
                reads.append(name)
                return original.__get__(frame, Frame)
            monkeypatch.setattr(Frame, name, property(counted))
        first = roundtrip_reconstruct(op, psi0, mercedes)
        assert reads  # the cold call reads them, so the counter sees reads
        reads.clear()
        second = roundtrip_reconstruct(op, psi0, mercedes)
        assert reads == []
        assert np.array_equal(second.matrix, first.matrix)

    def test_requires_frames_before_checking_the_operator(self, psi0):
        with pytest.raises(NotAFrame):
            roundtrip_reconstruct(identity_operator(3), Frame([[1, 0], [2, 0]]), psi0)
        with pytest.raises(NotAFrame):
            roundtrip_reconstruct(identity_operator(3), psi0, Frame([[1, 0], [2, 0]]))
        roundtrip_reconstruct(identity_operator(2), psi0, psi0)
        with pytest.raises(DimensionMismatch):
            roundtrip_reconstruct(identity_operator(3), psi0, psi0)


class TestRepresentationCompose:
    def test_multiplicative_with_dual_sandwich(self):
        rng = np.random.default_rng(40)
        n1, n2, n3 = 3, 4, 2
        psi = random_frame(rng, n1, 5)
        phi = random_frame(rng, n2, 6)
        xi = random_frame(rng, n3, 4)
        op = random_operator(rng, n2, n3)
        p = random_operator(rng, n3, n1)
        left = matrix_of_operator(op, phi, xi)
        right = matrix_of_operator(p, xi.canonical_dual(), psi)
        product = left @ right
        direct = matrix_of_operator(op @ p, phi, psi)
        scale = frobenius_norm(direct.matrix)
        assert frobenius_norm(product.matrix - direct.matrix) <= 1e-9 * scale
        assert product.analysis_frame is phi
        assert product.synthesis_frame is psi

    def test_rejects_non_dual_sandwich(self):
        rng = np.random.default_rng(41)
        psi = random_frame(rng, 3, 5)
        phi = random_frame(rng, 3, 5)
        xi = random_frame(rng, 3, 4)
        left = matrix_of_operator(identity_operator(3), phi, xi)
        right = matrix_of_operator(identity_operator(3), xi, psi)  # not dual(xi)
        with pytest.raises(IncompatibleFrames):
            left.compose(right)

    @pytest.mark.parametrize("t", [1e-170, 1e-160, 1e160, 1e170])
    def test_dual_check_beyond_squaring_range(self, t):
        # the inner frame xi is at scale t and its dual at 1/t; the outer
        # frames keep both representation matrices near 1
        rng = np.random.default_rng(42)
        vectors = np.array([[1, 0], [0, 1], [1, 1]])
        xi = Frame(vectors * t)
        left = matrix_of_operator(identity_operator(2), Frame(vectors / t), xi)
        dual_copy = Frame(xi.canonical_dual().vectors)
        right = matrix_of_operator(identity_operator(2), dual_copy, Frame(vectors * t))
        assert left.compose(right).synthesis_frame is right.synthesis_frame
        wrong = matrix_of_operator(identity_operator(2), Frame(random_complex(rng, 3, 2) / t),
                                   Frame(vectors * t))
        with pytest.raises(IncompatibleFrames):
            left.compose(wrong)

    def test_count_mismatch(self):
        rng = np.random.default_rng(43)
        psi = random_frame(rng, 3, 5)
        phi = random_frame(rng, 3, 4)
        left = matrix_of_operator(identity_operator(3), phi, psi)
        with pytest.raises(DimensionMismatch):
            left.compose(left)

    def test_matrix_shape_validation(self, psi0, onb2):
        with pytest.raises(DimensionMismatch):
            Representation(np.eye(3), analysis_frame=psi0, synthesis_frame=onb2)


class TestBanachAlgebraStructure:
    def test_fixed_frame_multiplicativity(self):
        rng = np.random.default_rng(44)
        phi = random_frame(rng, 4, 7)
        dual = phi.canonical_dual()
        op = random_operator(rng, 4, 4)
        p = random_operator(rng, 4, 4)
        lhs = matrix_of_operator(op @ p, phi, dual).matrix
        rhs = matrix_of_operator(op, phi, dual).matrix @ matrix_of_operator(p, phi, dual).matrix
        assert frobenius_norm(lhs - rhs) <= 1e-9 * frobenius_norm(lhs)

    def test_identity_not_preserved_for_redundant_frame(self, psi0):
        rep = matrix_of_operator(identity_operator(2), psi0, psi0.canonical_dual())
        assert not np.allclose(rep.matrix, np.eye(3), atol=1e-6)

    def test_identity_preserved_for_riesz_basis(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            basis = random_riesz_basis(rng, int(rng.integers(2, 8)))
            rep = matrix_of_operator(
                identity_operator(basis.space_dim), basis, basis.canonical_dual()
            )
            eye = np.eye(basis.count)
            assert np.linalg.norm(rep.matrix - eye, "fro") <= 1e-10 * basis.count

    def test_riesz_representation_inverts_induction(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            phi = random_riesz_basis(rng, n)
            psi = random_riesz_basis(rng, n)
            m0 = random_complex(rng, n, n)
            op = operator_of_matrix(m0, phi.canonical_dual(), psi.canonical_dual())
            back = matrix_of_operator(op, phi, psi).matrix
            assert np.linalg.norm(back - m0, "fro") <= 1e-9 * np.linalg.norm(m0, "fro")


class TestFrameMultiplier:
    def test_all_ones_over_dual_pair_is_identity(self, psi0):
        op = frame_multiplier(np.ones(3), psi0, psi0.canonical_dual())
        assert np.allclose(op.matrix, np.eye(2), atol=1e-12)

    def test_single_weight_picks_rank_one(self, psi0):
        op = frame_multiplier([1, 0, 0], psi0, psi0)
        assert np.allclose(op.matrix, [[1, 0], [0, 0]], atol=1e-14)

    def test_zero_weights(self, psi0):
        op = frame_multiplier(np.zeros(3), psi0, psi0)
        assert np.allclose(op.matrix, np.zeros((2, 2)), atol=0)

    def test_equals_rank_one_sum(self):
        rng = np.random.default_rng(47)
        phi = random_frame(rng, 3, 6)
        psi = random_frame(rng, 4, 6)
        weights = random_complex(rng, 6)
        op = frame_multiplier(weights, phi, psi)
        summed = sum(
            weights[k] * rank_one(phi.vectors[k], psi.vectors[k]).matrix for k in range(6)
        )
        assert frobenius_norm(op.matrix - summed) <= 1e-12 * frobenius_norm(summed)

    def test_count_mismatch(self, psi0, onb2):
        with pytest.raises(DimensionMismatch):
            frame_multiplier(np.ones(3), psi0, onb2)

    def test_scalar_weight_is_not_a_vector(self, psi0):
        with pytest.raises(DimensionMismatch, match="must be 1-dimensional, got ndim=0"):
            frame_multiplier(1.0, psi0, psi0)


class TestOperatorFromImages:
    def test_frame_itself_gives_identity(self, psi0):
        op = operator_from_images(psi0, psi0.vectors)
        assert np.allclose(op.matrix, np.eye(2), atol=1e-12)

    def test_zero_images(self, psi0):
        op = operator_from_images(psi0, np.zeros((3, 2)))
        assert np.allclose(op.matrix, np.zeros((2, 2)), atol=0)

    def test_riesz_interpolates_exactly(self):
        basis = Frame([[1, 0], [1, 1]])
        op, consistent = operator_from_images(basis, [[0, 1], [1, 0]], diagnose=True)
        assert consistent
        assert np.allclose(op([1, 0]), [0, 1], atol=1e-9)
        assert np.allclose(op([1, 1]), [1, 0], atol=1e-9)
        assert np.allclose(op.matrix, [[0, 1], [1, -1]], atol=1e-12)

    def test_redundant_frame_does_not_interpolate(self, psi0):
        images = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        op, consistent = operator_from_images(psi0, images, diagnose=True)
        # psi_3 = psi_1 + psi_2 but eta_3 != eta_1 + eta_2: interpolation impossible
        assert not consistent
        assert not np.allclose(op(psi0.vectors[0]), images[0], atol=1e-6)

    def test_redundant_frame_with_consistent_images(self, psi0):
        rng = np.random.default_rng(48)
        a = random_complex(rng, 2, 2)
        images = psi0.vectors @ a.T  # eta_k = A psi_k inherits every dependency
        op, consistent = operator_from_images(psi0, images, diagnose=True)
        assert consistent
        assert np.allclose(op.matrix, a, atol=1e-10)

    @pytest.mark.parametrize("images, consistent", [
        (np.full((3, 2), 1e308), False),
        ([[1.5e308, 0], [0, 1.5e308], [1.5e308, 1.5e308]], True),
    ], ids=["generic", "consistent"])
    def test_diagnosis_near_the_float_range(self, psi0, images, consistent):
        # the images' largest singular value overflows; their entries do not
        expected = np.transpose(images) @ psi0.canonical_dual().analysis_matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op, verdict = operator_from_images(psi0, images, diagnose=True)
        assert verdict == consistent
        assert np.allclose(op.matrix, expected, rtol=1e-14, atol=0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        scaled=st.sampled_from(["images", "frame", "images at 2^1000", "images at 2^-1000"]),
        exponent=st.integers(-150, 150),
        consistent=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_diagnosis_is_scale_free(self, scaled, exponent, consistent, seed):
        # images A psi_k inherit every dependency among the frame vectors;
        # generic images of a redundant frame inherit none
        rng = np.random.default_rng(seed)
        n, m = (int(d) for d in rng.integers(1, 5, size=2))
        inputs = {"frame": random_complex(rng, n + int(rng.integers(1, 5)), n)}
        count = inputs["frame"].shape[0]
        inputs["images"] = (inputs["frame"] @ random_complex(rng, m, n).T if consistent
                            else random_complex(rng, count, m))
        binary = {"images at 2^1000": 2.0**1000, "images at 2^-1000": 2.0**-1000}
        scaled_input = scaled.split()[0]
        inputs[scaled_input] = inputs[scaled_input] * binary.get(scaled, 10.0**exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, verdict = operator_from_images(Frame(inputs["frame"]), inputs["images"],
                                              diagnose=True)
        assert verdict == consistent

    @pytest.mark.parametrize("exponent", [0, 600, -600, 1000, -1000])
    @pytest.mark.parametrize("outside, consistent", [(5e-6, True), (3e-5, False)])
    def test_diagnosis_threshold(self, exponent, outside, consistent):
        # images A psi_k plus a part outside the frame's range of relative size
        # `outside`: consistent up to sqrt(RANK_RTOL) = 1e-5 of their norm
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            n, m = (int(d) for d in rng.integers(1, 5, size=2))
            k = n + int(rng.integers(1, 6))
            frame = frame_with_condition(rng, n, k, 10.0 ** rng.uniform(0.0, 9.0))
            images = frame.vectors @ random_complex(rng, m, n).T
            basis, _ = np.linalg.qr(frame.vectors)
            u = random_complex(rng, k, m)
            for _ in range(2):  # project out the range twice, for orthogonality to rounding
                u = u - basis @ (basis.conj().T @ u)
            images = images + outside * euclidean_norm(images) / euclidean_norm(u) * u
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, verdict = operator_from_images(frame, images * 2.0**exponent, diagnose=True)
            assert verdict == consistent, seed

    def test_requires_frame(self):
        with pytest.raises(NotAFrame):
            operator_from_images(Frame([[1, 0], [2, 0]]), np.zeros((2, 2)))

    def test_image_count_mismatch(self, psi0):
        with pytest.raises(DimensionMismatch):
            operator_from_images(psi0, np.zeros((2, 2)))


class TestRangeMapCheck:
    def test_identity(self, psi0):
        f = np.array([1.0, 2.0])
        lhs, rhs = range_map_check(identity_operator(2), psi0, psi0, f)
        assert np.allclose(lhs, psi0.analyze(f), atol=1e-12)
        assert np.allclose(rhs, psi0.analyze(f), atol=1e-12)

    def test_zero_operator(self, psi0):
        op = LinearOperator(np.zeros((2, 2)))
        lhs, rhs = range_map_check(op, psi0, psi0, [1.0, -1.0])
        assert np.allclose(lhs, np.zeros(3), atol=1e-12)
        assert np.allclose(rhs, np.zeros(3), atol=0)

    def test_diagonal_golden(self, psi0):
        op = LinearOperator([[2, 0], [0, 3]])
        lhs, rhs = range_map_check(op, psi0, psi0, [1.0, 1.0])
        expected = psi0.analyze([2.0, 3.0])
        assert np.allclose(expected, [2, 3, 5], atol=1e-14)
        assert np.allclose(lhs, expected, atol=1e-10)
        assert np.allclose(rhs, expected, atol=1e-14)

    def test_random(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            n1, n2 = rng.integers(1, 7, size=2)
            psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 5)))
            phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 5)))
            op = random_operator(rng, n2, n1)
            f = random_complex(rng, n1)
            lhs, rhs = range_map_check(op, phi, psi, f)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))

    def test_switches_coefficients_between_frames(self, psi0, mercedes):
        # with O = Id the representation over (phi, dual(psi)) converts
        # psi-coefficients of any f into phi-coefficients of the same f,
        # and switching back returns the original coefficients
        rng = np.random.default_rng(54)
        f = random_complex(rng, 2)
        lhs, rhs = range_map_check(identity_operator(2), mercedes, psi0, f)
        assert np.allclose(rhs, mercedes.analyze(f), atol=1e-14)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))
        there = matrix_of_operator(identity_operator(2), mercedes, psi0.canonical_dual())
        back = matrix_of_operator(identity_operator(2), psi0, mercedes.canonical_dual())
        c = psi0.analyze(f)
        assert np.allclose(back.matrix @ (there.matrix @ c), c, atol=1e-10)

    @pytest.mark.parametrize("scale", SCALES)
    def test_sides_agree_at_any_scale(self, psi0, scale):
        frame = Frame(psi0.vectors * scale)
        lhs, rhs = range_map_check(LinearOperator([[1, 2], [3, 4]]), frame, frame, [1.0, -2.0])
        assert euclidean_norm(lhs - rhs) <= 1e-14 * euclidean_norm(rhs)


class TestNoCoefficientSquareMatrix:
    def test_peak_memory_stays_below_one_k_by_k_array(self):
        # K = 1024 vectors in C^3: one K x K complex128 array takes 16 MB, a
        # K x n one 48 kB; numpy's allocations are traced
        rng = np.random.default_rng(62)
        phi = Frame(random_complex(rng, 1024, 3))
        psi = Frame(random_complex(rng, 1024, 3))
        op = random_operator(rng, 3, 3)
        phi.canonical_dual(), psi.canonical_dual()  # cached outside the traced calls
        tracemalloc.start()
        try:
            roundtrip_reconstruct(op, phi, psi)
            range_map_check(op, phi, psi, random_complex(rng, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestKernelOfRepresentation:
    def test_dual_pair_representation_recovers_operator(self):
        rng = np.random.default_rng(50)
        psi = random_frame(rng, 3, 5)
        phi = random_frame(rng, 4, 7)
        op = random_operator(rng, 4, 3)
        rep = matrix_of_operator(op, phi.canonical_dual(), psi.canonical_dual())
        kernel = kernel_of_representation(rep.matrix, phi, psi)
        scale = frobenius_norm(op.matrix)
        assert frobenius_norm(kernel - op.matrix) <= 1e-9 * scale

    def test_delta_matrix_gives_outer_product(self, psi0):
        m = np.zeros((3, 3))
        m[2, 0] = 1.0
        kernel = kernel_of_representation(m, psi0, psi0)
        expected = np.outer(psi0.vectors[2], psi0.vectors[0].conj())
        assert np.allclose(kernel, expected, atol=1e-14)

    def test_zero(self, psi0):
        kernel = kernel_of_representation(np.zeros((3, 3)), psi0, psi0)
        assert np.allclose(kernel, np.zeros((2, 2)), atol=0)

    def test_agrees_with_induced_operator(self):
        # the kernel is computed as the induced operator D_phi M C_psi; check
        # it against the rank-one expansion written out term by term
        rng = np.random.default_rng(51)
        psi = random_frame(rng, 2, 5)
        phi = random_frame(rng, 3, 4)
        m = random_complex(rng, phi.count, psi.count)
        kernel = kernel_of_representation(m, phi, psi)
        expansion = rank_one_expansion(m, phi, psi)
        assert frobenius_norm(kernel - expansion) <= 1e-12 * frobenius_norm(expansion)

    def test_shape_check(self, psi0, onb2):
        with pytest.raises(DimensionMismatch):
            kernel_of_representation(np.eye(2), psi0, onb2)


class TestHilbertSchmidtBounds:
    def test_representation_frobenius_bound(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            n1, n2 = rng.integers(1, 6, size=2)
            psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 4)))
            phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 4)))
            op = random_operator(rng, n2, n1)
            rep = matrix_of_operator(op, phi, psi)
            bound = np.sqrt(psi.bounds.upper * phi.bounds.upper) * hs_norm(op)
            assert frobenius_norm(rep.matrix) <= bound * (1 + 1e-9)

    def test_induced_operator_hs_bound(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            n1, n2 = rng.integers(1, 6, size=2)
            psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 4)))
            phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 4)))
            m = random_complex(rng, phi.count, psi.count)
            op = operator_of_matrix(m, phi, psi)
            bound = np.sqrt(psi.bounds.upper * phi.bounds.upper) * np.linalg.norm(m, "fro")
            assert hs_norm(op) <= bound * (1 + 1e-9)


def _huge_representation():
    """The representation of 1e200 * I over psi0 and its dual, finite on its own."""
    psi = Frame([[1, 0], [0, 1], [1, 1]])
    return matrix_of_operator(LinearOperator(np.eye(2) * 1e200), psi, psi.canonical_dual())


class TestProductOverflow:
    """Products beyond the float range raise a FrameRepError naming the overflow."""

    @pytest.mark.parametrize("product, what", [
        (lambda f: matrix_of_operator(identity_operator(2), f, f),
         "representation matrix C_phi O D_psi"),
        (lambda f: operator_of_matrix(np.eye(3), f, f), "induced operator D_phi M C_psi"),
        (lambda f: gram(f, f), "Gram matrix"),
        (lambda f: f.frame_operator, "frame operator"),
        (lambda f: frame_multiplier(np.ones(3), f, f), "frame multiplier"),
        # the weighted synthesis matrix D_phi diag(w) itself leaves the float range
        (lambda f: frame_multiplier([1e200, 1, 1], f, f), "frame multiplier"),
        (lambda f: LinearOperator(np.eye(2) * 1e200) @ LinearOperator(np.eye(2) * 1e200),
         "composition"),
        (lambda f: rank_one([1e200, 1], [1e200, 1]), "rank-one operator f g*"),
        (lambda f: _huge_representation() @ _huge_representation(), "representation product"),
        (lambda f: f.analyze([1e160, 0]), "analysis coefficients C f"),
        (lambda f: f.synthesize([1e160, 0, 0]), "synthesis D c"),
        (lambda f: LinearOperator(np.eye(2) * 1e200)((1e200, 0)), "operator image O f"),
        # the representation over (f, psi0's dual) is finite, its image of C_psi0 f is not
        (lambda f: range_map_check(identity_operator(2), f, Frame([[1, 0], [0, 1], [1, 1]]),
                                   (1e200, 1e200)),
         "representation image M C_psi f"),
        # the dual of a tiny frame leaves the float range
        (lambda f: Frame(np.array([[1, 0], [0, 1], [1, 1]]) * 1e-310).canonical_dual(),
         "canonical dual"),
        # its vectors reach 1.3e308, its largest singular value 2e308
        (lambda f: Frame(np.array([[1, 0], [0, 1], [1, 1]]) * 5e-309).canonical_dual(),
         "canonical dual's largest singular value"),
    ], ids=["matrix_of_operator", "operator_of_matrix", "gram", "frame_operator",
            "frame_multiplier", "frame_multiplier_weights", "operator_matmul", "rank_one", "representation_matmul",
            "analyze", "synthesize", "operator_call", "range_map_check", "canonical_dual",
            "canonical_dual_singular_value"])
    def test_overflow_is_named(self, product, what):
        huge = Frame(np.array([[1, 0], [0, 1], [1, 1]]) * 1e160)
        message = re.escape(f"the {what} overflows the float range")
        with pytest.raises(FrameRepError, match=message) as info:
            product(huge)
        assert not isinstance(info.value, DimensionMismatch)

    def test_operator_from_images_overflow_is_named(self):
        # the dual of a tiny frame is huge, and so are the images
        tiny = Frame(np.array([[1, 0], [0, 1], [1, 1]]) * 1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrameRepError, match="operator from images overflows") as info:
                operator_from_images(tiny, np.full((3, 2), 1e160))
        assert not isinstance(info.value, DimensionMismatch)


def _psi0_at(scale):
    return Frame(np.array([[1, 0], [0, 1], [1, 1]]) * scale)


class TestPartialProductsBeyondTheRange:
    """A product in the float range is returned though a partial product is not."""

    @pytest.mark.parametrize("product, row", [
        # C_phi O is about 1e500; C_phi O D_psi about 1e100
        (lambda: matrix_of_operator(LinearOperator(1e200 * np.eye(2)), _psi0_at(1e200),
                                    _psi0_at(1e-300)).matrix[0], [1e100, 0, 1e100]),
        # D_phi M is about 1e400; D_phi M C_psi about 1e100
        (lambda: operator_of_matrix(1e200 * np.eye(3), _psi0_at(1e200),
                                    _psi0_at(1e-300)).matrix[0], [2e100, 1e100]),
        # D_phi w is about 1e400; D_phi w C_psi about 1e100
        (lambda: frame_multiplier([1e200] * 3, _psi0_at(1e200), _psi0_at(1e-300)).matrix.ravel(),
         [2e100, 1e100, 1e100, 2e100]),
        # C_psi f is about 1e310, and neither side forms it
        (lambda: range_map_check(identity_operator(2), _psi0_at(1.0), _psi0_at(1e300),
                                 (1e10, 1e10))[0], [1e10, 1e10, 2e10]),
        (lambda: range_map_check(identity_operator(2), _psi0_at(1.0), _psi0_at(1e300),
                                 (1e10, 1e10))[1], [1e10, 1e10, 2e10]),
    ], ids=["matrix_of_operator", "operator_of_matrix", "frame_multiplier", "range_map_lhs",
            "range_map_rhs"])
    def test_product_in_range_is_returned(self, product, row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = product()
        assert np.allclose(got, row, rtol=1e-15, atol=0)

    def test_multiplier_weights_are_split_on_the_ledger(self):
        # D_phi w is about 2^-1045, subnormal, though the operator is normal;
        # scaling D_phi by w before the ledger kept 30 bits of it
        w = np.full(3, 0.3 * 2.0**-500)
        phi, psi = _psi0_at(0.1 * 2.0**-540), _psi0_at(0.7 * 2.0**60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = frame_multiplier(w, phi, psi).matrix
            expected = operator_of_matrix(np.diag(w), phi, psi).matrix
        assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()
