"""Tests for the dense complex linear-algebra kernel."""

import numpy as np
import pytest

from framerep import (
    DecompositionFailed,
    DimensionMismatch,
    NonSquare,
    NotHermitian,
    adjoint,
    frobenius_norm,
    hermitian_eigs,
    matmul,
    operator_norm,
    pseudoinverse,
    svd,
)
from helpers import no_convergence, random_complex


class TestMatmul:
    def test_identity(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_involution(self):
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(matmul(swap, swap), np.eye(2))

    def test_hand_product(self):
        a = [[1, 1], [0, 1]]
        b = [[1, 0], [1, 1]]
        assert np.array_equal(matmul(a, b), np.array([[2, 1], [1, 1]]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matmul(np.eye(2), np.ones((3, 2)))

    def test_rejects_nan(self):
        with pytest.raises(DimensionMismatch):
            matmul([[np.nan, 0], [0, 1]], np.eye(2))


class TestAdjoint:
    def test_conjugates(self):
        a = [[1j, 0], [0, 1]]
        assert np.array_equal(adjoint(a), np.array([[-1j, 0], [0, 1]]))

    def test_real_symmetric_fixed(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        assert np.array_equal(adjoint(a), a)

    def test_real_transpose(self):
        a = [[1, 2], [3, 4]]
        assert np.array_equal(adjoint(a), np.array([[1, 3], [2, 4]]))

    def test_involution_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_complex(rng, rng.integers(1, 9), rng.integers(1, 9))
            assert np.array_equal(adjoint(adjoint(a)), a)

    def test_product_rule(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m, k, n = rng.integers(1, 9, size=3)
            a = random_complex(rng, m, k)
            b = random_complex(rng, k, n)
            lhs = adjoint(matmul(a, b))
            rhs = matmul(adjoint(b), adjoint(a))
            assert np.allclose(lhs, rhs, rtol=1e-13, atol=0)


class TestHermitianEigs:
    def test_two_by_two(self):
        w, v = hermitian_eigs([[2, 1], [1, 2]])
        assert np.allclose(w, [1.0, 3.0], atol=1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_identity(self):
        w, _ = hermitian_eigs(np.eye(3))
        assert np.allclose(w, [1, 1, 1], atol=1e-14)

    def test_diagonal_sorted_ascending(self):
        w, _ = hermitian_eigs([[0, 0], [0, 5]])
        assert np.allclose(w, [0.0, 5.0], atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            hermitian_eigs(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigs([[0, 1], [0, 0]])

    def test_accepts_rounding_level_asymmetry(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]], dtype=complex)
        w, _ = hermitian_eigs(a)
        assert np.allclose(w, [1.0, 3.0], atol=1e-10)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            a = random_complex(rng, n, n)
            h = a + a.conj().T
            w, v = hermitian_eigs(h)
            rebuilt = (v * w) @ v.conj().T
            scale = np.linalg.norm(h, "fro")
            assert np.linalg.norm(rebuilt - h, "fro") <= 1e-10 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(n), "fro") <= 1e-12 * n
            assert np.all(np.diff(w) >= 0)


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


class TestPseudoinverse:
    def test_invertible_diagonal(self):
        p = pseudoinverse(np.diag([2.0, 4.0]))
        assert np.allclose(p, np.diag([0.5, 0.25]), atol=1e-15)

    def test_least_squares_column(self):
        p = pseudoinverse(np.array([[1.0], [1.0]]))
        assert np.allclose(p, [[0.5, 0.5]], atol=1e-15)

    def test_zero_matrix(self):
        assert np.array_equal(pseudoinverse(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            pseudoinverse(np.eye(2), rel_tol=-1.0)

    def test_penrose_identities_rank_deficient(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m, n = rng.integers(2, 10, size=2)
            r = int(rng.integers(1, min(m, n) + 1))
            a = random_complex(rng, m, r) @ random_complex(rng, r, n)
            p = pseudoinverse(a)
            scale = np.linalg.norm(p, "fro")
            assert np.linalg.norm(a @ p @ a - a, "fro") <= 1e-9 * scale
            assert np.linalg.norm(p @ a @ p - p, "fro") <= 1e-9 * scale
            assert np.linalg.norm((a @ p).conj().T - a @ p, "fro") <= 1e-9 * scale
            assert np.linalg.norm((p @ a).conj().T - p @ a, "fro") <= 1e-9 * scale


class TestDecompositionFailure:
    @pytest.fixture(autouse=True)
    def failing_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", no_convergence)

    def test_svd(self):
        with pytest.raises(DecompositionFailed, match="SVD of the matrix"):
            svd(np.eye(2))

    def test_pseudoinverse(self):
        with pytest.raises(DecompositionFailed) as info:
            pseudoinverse(np.eye(2))
        # LinAlgError subclasses ValueError, which the CLI reports as misuse
        assert not isinstance(info.value, ValueError)


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
            x, y = frobenius_norm(a) ** 2, frobenius_norm(adjoint(a)) ** 2
            assert abs(x - y) <= 1e-12 * x
