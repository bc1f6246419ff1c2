"""Tests for the frame-discretized operator-equation solver."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framerep import (
    DecompositionFailed,
    DimensionMismatch,
    Frame,
    FrameClass,
    LinearOperator,
    NotAFrame,
    SectionTooLarge,
    SolveOptions,
    discretize,
    finite_section,
    gram,
    identity_operator,
    project_onto_analysis_range,
    pseudoinverse,
    solve,
)
from helpers import (
    conditioned_operator,
    frame_with_condition,
    no_convergence,
    random_complex,
    random_frame,
    random_unitary,
)

EPS = np.finfo(np.float64).eps


def rel(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


class TestDiscretize:
    def test_identity_over_psi0(self, psi0):
        m, rhs_map = discretize(identity_operator(2), psi0)
        expected = gram(psi0, psi0.canonical_dual())
        assert np.allclose(m, expected, atol=1e-12)
        g = np.array([1.0, -2.0])
        assert np.allclose(rhs_map(g), psi0.analyze(g), atol=0)

    def test_diagonal_over_onb_is_the_operator(self, onb2):
        op = LinearOperator([[2, 0], [0, 3]])
        m, _ = discretize(op, onb2)
        assert np.allclose(m, op.matrix, atol=1e-12)

    def test_zero_operator(self, psi0):
        m, _ = discretize(LinearOperator(np.zeros((2, 2))), psi0)
        assert np.allclose(m, np.zeros((3, 3)), atol=1e-15)

    def test_rephrasing_identity(self, psi0):
        # M (C f) == C (O f) for every f
        rng = np.random.default_rng(60)
        op = LinearOperator(random_complex(rng, 2, 2))
        m, _ = discretize(op, psi0)
        f = random_complex(rng, 2)
        lhs = m @ psi0.analyze(f)
        rhs = psi0.analyze(op(f))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_requires_frame(self):
        with pytest.raises(NotAFrame):
            discretize(identity_operator(2), Frame([[1, 0], [2, 0]]))

    def test_requires_endomorphism(self, psi0):
        with pytest.raises(DimensionMismatch):
            discretize(LinearOperator(np.ones((3, 2))), psi0)


class TestProjectOntoAnalysisRange:
    def test_fixes_analysis_coefficients(self, psi0):
        rng = np.random.default_rng(61)
        c = psi0.analyze(random_complex(rng, 2))
        projected = project_onto_analysis_range(psi0, c)
        assert np.allclose(projected, c, atol=1e-12)

    def test_golden_third_unit_coefficient(self, psi0):
        projected = project_onto_analysis_range(psi0, [0, 0, 1])
        assert np.allclose(projected, [1 / 3, 1 / 3, 2 / 3], atol=1e-12)

    def test_zero(self, psi0):
        assert np.allclose(project_onto_analysis_range(psi0, np.zeros(3)), np.zeros(3), atol=0)

    def test_idempotent_and_self_adjoint(self):
        rng = np.random.default_rng(62)
        frame = random_frame(rng, 4, 9)
        p = gram(frame, frame.canonical_dual())
        assert np.linalg.norm(p @ p - p, "fro") <= 1e-9
        assert np.linalg.norm(p - p.conj().T, "fro") <= 1e-9

    def test_length_check(self, psi0):
        with pytest.raises(DimensionMismatch):
            project_onto_analysis_range(psi0, [1, 2])


class TestFiniteSection:
    def test_full_size_is_identity(self):
        rng = np.random.default_rng(63)
        m = random_complex(rng, 3, 3)
        assert np.array_equal(finite_section(m, 3), m)

    def test_top_left_block(self):
        m = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(finite_section(m, 2), [[0.0, 1.0], [3.0, 4.0]])

    def test_single_entry(self):
        m = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(finite_section(m, 1), [[0.0]])

    def test_entries_bit_identical(self):
        rng = np.random.default_rng(64)
        m = random_complex(rng, 5, 4)
        section = finite_section(m, 3)
        assert np.array_equal(section, m[:3, :3])

    def test_too_large(self):
        with pytest.raises(SectionTooLarge):
            finite_section(np.eye(3), 4)

    def test_non_positive(self):
        with pytest.raises(ValueError):
            finite_section(np.eye(3), 0)


class TestSolve:
    def test_diagonal_golden(self, psi0):
        report = solve(LinearOperator([[2, 0], [0, 3]]), [2, 3], psi0)
        assert np.allclose(report.solution, [1, 1], atol=1e-10)
        assert report.residual_operator <= 1e-10
        assert report.section_used == 3
        assert not report.conditioning_warning

    def test_identity_returns_rhs(self, psi0):
        rng = np.random.default_rng(65)
        g = random_complex(rng, 2)
        report = solve(identity_operator(2), g, psi0)
        assert np.linalg.norm(report.solution - g) <= 1e-10 * np.linalg.norm(g)

    def test_singular_consistent(self, psi0):
        op = LinearOperator([[1, 0], [0, 0]])
        report = solve(op, [1, 0], psi0)
        assert report.residual_operator <= 1e-9
        # minimal-norm coefficients synthesize to (1, -1/2): the solution set
        # is (1, s) and the coefficient-space norm weighs it by the frame
        # operator, minimized at s = -1/2 for this frame
        assert np.allclose(report.solution, [1.0, -0.5], atol=1e-9)

    def test_singular_inconsistent_reports_large_residual(self, psi0):
        op = LinearOperator([[1, 0], [0, 0]])
        report = solve(op, [0, 1], psi0)
        assert report.residual_operator > 0.3
        assert np.isfinite(report.residual_operator)

    def test_matches_direct_inverse_oracle(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            frame = random_frame(rng, n, int(rng.integers(n, n + 6)), max_condition=1e4)
            op = conditioned_operator(rng, n, max_condition=1e2)
            g = random_complex(rng, n)
            report = solve(op, g, frame)
            oracle = pseudoinverse(op.matrix) @ g
            assert report.residual_operator <= 1e-8
            assert np.linalg.norm(report.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_residuals_definition(self, psi0):
        op = LinearOperator([[2, 0], [0, 3]])
        g = np.array([2.0, 3.0])
        report = solve(op, g, psi0)
        expected = np.linalg.norm(op(report.solution) - g) / (1 + np.linalg.norm(g))
        assert report.residual_operator == pytest.approx(expected, abs=1e-15)

    def test_truncated_section_pads_coefficients(self):
        rng = np.random.default_rng(67)
        frame = random_frame(rng, 3, 8)
        op = conditioned_operator(rng, 3)
        g = random_complex(rng, 3)
        report = solve(op, g, frame, SolveOptions(section_size=4))
        assert report.section_used == 4
        assert np.array_equal(report.coefficients[4:], np.zeros(4))

    def test_full_section_beats_smallest(self):
        # sections below the space dimension cannot span the solution, so the
        # full-system residual is genuinely positive there and drops to
        # rounding level at the full section
        rng = np.random.default_rng(68)
        frame = random_frame(rng, 4, 10, max_condition=1e3)
        op = conditioned_operator(rng, 4)
        g = random_complex(rng, 4)
        residuals = {
            n: solve(op, g, frame, SolveOptions(section_size=n)).residual_matrix
            for n in (2, 3, 4, 10)
        }
        assert residuals[2] > 1e-8
        assert residuals[10] <= residuals[2]
        assert residuals[10] <= 1e-10

    def test_section_larger_than_count(self, psi0):
        with pytest.raises(SectionTooLarge):
            solve(identity_operator(2), [1, 0], psi0, SolveOptions(section_size=4))

    def test_conditioning_warning(self):
        frame = Frame([[1, 0], [0, 1e-4]])
        report = solve(identity_operator(2), [1, 1], frame)
        assert frame.condition > 1e6
        assert report.conditioning_warning

    def test_not_a_frame(self):
        with pytest.raises(NotAFrame):
            solve(identity_operator(2), [1, 0], Frame([[1, 0], [2, 0]]))

    def test_rhs_dimension(self, psi0):
        with pytest.raises(DimensionMismatch):
            solve(identity_operator(2), [1, 0, 0], psi0)


class TestSolveOptions:
    def test_defaults(self):
        options = SolveOptions()
        assert options.section_size is None
        assert options.pseudoinverse_rel_tol is None
        assert [f.name for f in dataclasses.fields(SolveOptions)] == [
            "section_size",
            "pseudoinverse_rel_tol",
        ]

    def test_rejects_bad_section(self):
        with pytest.raises(ValueError):
            SolveOptions(section_size=0)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            SolveOptions(pseudoinverse_rel_tol=-1e-3)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SolveOptions(pseudoinverse_rel_tol=tol)

    def test_huge_tol_collapses_solution(self, psi0):
        report = solve(
            identity_operator(2), [1, 1], psi0, SolveOptions(pseudoinverse_rel_tol=10.0)
        )
        assert np.allclose(report.coefficients, np.zeros(3), atol=0)
        assert np.allclose(report.solution, np.zeros(2), atol=0)


class TestFactoredSolve:
    """The full system is solved through the n x n core, never as K x K."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 8),
        extra=st.integers(0, 16),
        log_condition=st.floats(0.0, 8.0),
        tol=st.sampled_from([None, 1e-6, 10.0]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_explicit_system(self, n, extra, log_condition, tol, seed, data):
        rank = data.draw(st.integers(0, n), label="rank")
        rng = np.random.default_rng(seed)
        frame = frame_with_condition(rng, n, n + extra, 10.0**log_condition)
        s = np.exp(rng.uniform(0.0, np.log(1e2), n))
        s[rank:] = 0.0
        op = LinearOperator((random_unitary(rng, n) * s) @ random_unitary(rng, n).conj().T)
        g = random_complex(rng, n)

        report = solve(op, g, frame, SolveOptions(pseudoinverse_rel_tol=tol))

        m, rhs_map = discretize(op, frame)
        d = rhs_map(g)
        c_ref = pseudoinverse(m, tol) @ d
        solution_ref = frame.canonical_dual().synthesize(c_ref)
        residual_ref = np.linalg.norm(m @ c_ref - d) / (1.0 + np.linalg.norm(d))
        # condition of the part of M the pseudoinverse keeps, and of the dual
        sv = np.linalg.svd(m, compute_uv=False)
        kept = sv[sv > (tol if tol is not None else m.shape[0] * EPS) * sv[0]]
        cond = max(kept[0] / kept[-1] if kept.size else 1.0, np.sqrt(frame.condition))
        bound = 1e3 * EPS * cond
        assert np.linalg.norm(report.coefficients - c_ref) <= bound * np.linalg.norm(c_ref)
        assert np.linalg.norm(report.solution - solution_ref) <= bound * np.linalg.norm(solution_ref)
        assert abs(report.residual_matrix - residual_ref) <= bound

    def test_core_non_convergence_is_a_framerep_error(self, psi0, monkeypatch):
        psi0.analysis_svd  # the frame's own SVD succeeds; the core's fails
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(DecompositionFailed, match="core"):
            solve(identity_operator(2), [1, 0], psi0)


class TestScaleEquivariance:
    """Scaling a frame by t scales bounds by t^2, the dual by 1/t, and nothing else."""

    @pytest.mark.parametrize("t", [1e150, 1e-150])
    def test_scaled_frame(self, t):
        rng = np.random.default_rng(70)
        vectors = random_complex(rng, 7, 3)
        op = conditioned_operator(rng, 3)
        g = random_complex(rng, 3)
        base = Frame(vectors)
        base_report = solve(op, g, base)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = Frame(vectors * t)
            bounds = scaled.bounds
            classification = scaled.classification
            condition = scaled.condition
            dual = scaled.canonical_dual()
            report = solve(op, g, scaled)
        assert rel(np.array(bounds) / t**2, base.bounds) <= 1e-13
        assert classification is base.classification
        assert condition == pytest.approx(base.condition, rel=1e-13)
        assert rel(dual.vectors * t, base.canonical_dual().vectors) <= 1e-13
        assert rel(report.solution, base_report.solution) <= 1e-13
        assert rel(report.coefficients / t, base_report.coefficients) <= 1e-13

    @pytest.mark.parametrize("section", [None, 5])
    @pytest.mark.parametrize("t", [1e160, 1e-160])
    def test_residuals_beyond_squaring_range(self, t, section):
        # O has rank 2 on C^3, so the system is inconsistent and both
        # residuals are O(1) rather than rounding noise
        rng = np.random.default_rng(71)
        vectors = random_complex(rng, 7, 3)
        op = LinearOperator(random_complex(rng, 3, 2) @ random_complex(rng, 2, 3))
        g = random_complex(rng, 3)
        options = SolveOptions(section_size=section, pseudoinverse_rel_tol=1e-8)
        base = Frame(vectors)
        base_report = solve(op, g, base, options)
        d_norm = np.linalg.norm(base.analyze(g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(op, g, Frame(vectors * t), options)
        # M c - d and d scale by t, so |M c - d| / (1 + |d|) becomes
        # |r| / (1/t + |d|) for the unscaled residual r and right-hand side d
        expected = base_report.residual_matrix * (1.0 + d_norm) / (1.0 / t + d_norm)
        assert np.isfinite(report.residual_matrix)
        assert report.residual_matrix == pytest.approx(expected, rel=1e-10, abs=0)
        assert report.residual_operator == pytest.approx(base_report.residual_operator, rel=1e-10)
        assert rel(report.solution, base_report.solution) <= 1e-12

    def test_bounds_beyond_float_range_read_inf(self):
        frame = Frame([[1e160, 0], [0, 1e160], [1e160, 1e160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frame.bounds == (np.inf, np.inf)
            assert frame.is_frame
            assert frame.condition == pytest.approx(3.0, rel=1e-13)
            assert frame.classification is FrameClass.FRAME
