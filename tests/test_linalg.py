"""Tests for the dense complex linear-algebra kernel."""

import numpy as np
import pytest

from framerep import (
    DecompositionFailed,
    frobenius_norm,
    identity_operator,
    operator_norm,
    solve,
    svd,
)
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

    def test_pseudoinverse(self, psi0, monkeypatch):
        # the solver's cutoff pseudoinverse of the n x n core is the
        # package's one pseudoinverse; the frame's own SVD succeeds first
        psi0.r_svd
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(DecompositionFailed, match="core") as info:
            solve(identity_operator(2), [1, 0], psi0)
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
            x, y = frobenius_norm(a) ** 2, frobenius_norm(a.conj().T) ** 2
            assert abs(x - y) <= 1e-12 * x
