"""Tests for the frame-discretized operator-equation solver."""

import dataclasses
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
    FrameClass,
    FrameRepError,
    LinearOperator,
    NotAFrame,
    SectionTooLarge,
    SolveOptions,
    gram,
    identity_operator,
    project_onto_analysis_range,
    solve,
)
from framerep.frames import CONDITION_WARN_RATIO, RANK_RTOL
from framerep.linalg import euclidean_norm
from framerep.solve import _certificate_threshold
from helpers import (
    conditioned_operator,
    cutoff_solves,
    explicit_system,
    frame_with_condition,
    no_convergence,
    pseudoinverse,
    random_complex,
    random_frame,
    random_unitary,
)

EPS = np.finfo(np.float64).eps


def rel(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


def _ldexp(a, exponent):
    """``a * 2^exponent`` for a complex or real array, each part rounded once."""
    with np.errstate(over="ignore", under="ignore"):
        if np.iscomplexobj(a):
            return np.ldexp(np.ascontiguousarray(a).view(np.float64), exponent).view(np.complex128)
        return np.ldexp(np.asarray(a, dtype=np.float64), exponent)


def _assert_scaled(got, base, exponent, where):
    """``got == base * 2^exponent`` bit for bit wherever that product is a normal float."""
    got, expected = (np.atleast_1d(np.asarray(a)) for a in (got, _ldexp(base, exponent)))
    got, expected = (a.view(np.float64) if np.iscomplexobj(a) else a for a in (got, expected))
    normal = np.isfinite(expected) & (np.abs(expected) >= np.finfo(np.float64).tiny)
    assert np.array_equal(got[normal], expected[normal]), where


class TestDiscretize:
    """The discretized system ``M = C O D_dual``: the explicit oracle satisfies the
    paper's identities, and :func:`solve` discretizes only what it can."""

    def test_identity_over_psi0(self, psi0):
        m = explicit_system(identity_operator(2), psi0)
        expected = gram(psi0, psi0.canonical_dual())
        assert np.allclose(m, expected, atol=1e-12)

    def test_diagonal_over_onb_is_the_operator(self, onb2):
        op = LinearOperator([[2, 0], [0, 3]])
        m = explicit_system(op, onb2)
        assert np.allclose(m, op.matrix, atol=1e-12)

    def test_rephrasing_identity(self, psi0):
        # M (C f) == C (O f) for every f
        rng = np.random.default_rng(60)
        op = LinearOperator(random_complex(rng, 2, 2))
        m = explicit_system(op, psi0)
        f = random_complex(rng, 2)
        lhs = m @ psi0.analyze(f)
        rhs = psi0.analyze(op(f))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_zero_operator(self, psi0):
        # M = 0 keeps no singular value: zero coefficients, and |M c - d| = |d|
        g = np.array([1.0, -2.0])
        for section in (None, 2):
            report = solve(LinearOperator(np.zeros((2, 2))), g, psi0,
                           SolveOptions(section_size=section))
            assert np.array_equal(report.coefficients, np.zeros(3))
            assert np.array_equal(report.solution, np.zeros(2))
            assert report.residual_matrix == pytest.approx(1.0, rel=1e-15)
            assert report.residual_operator == pytest.approx(1.0, rel=1e-15)

    def test_requires_frame(self):
        with pytest.raises(NotAFrame, match="discretization requires a frame"):
            solve(identity_operator(2), [1, 0], Frame([[1, 0], [2, 0]]))

    def test_requires_endomorphism(self, psi0):
        with pytest.raises(DimensionMismatch,
                           match=re.escape("operator matrix must have shape (2, 2), got (3, 2)")):
            solve(LinearOperator(np.ones((3, 2))), [1, 0], psi0)


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

    def test_near_the_float_range(self, psi0):
        # c divided by a power of two first: c* Q Q* c no longer overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            projected = project_onto_analysis_range(psi0, [1.2e308] * 3)
            assert np.allclose(projected, [8e307, 8e307, 1.6e308], rtol=1e-14, atol=0)
            # the exact projection's third entry is 2.27e308
            with pytest.raises(FrameRepError, match="analysis-range projection overflows"):
                project_onto_analysis_range(psi0, [1.7e308] * 3)


class TestFiniteSection:
    """A section solves the leading N x N block of ``M c = C g``."""

    def test_full_size_is_identity(self):
        rng = np.random.default_rng(69)
        frame = random_frame(rng, 3, 8)
        op = conditioned_operator(rng, 3)
        g = random_complex(rng, 3)
        full = solve(op, g, frame)
        section = solve(op, g, frame, SolveOptions(section_size=8))
        assert section.section_used == full.section_used == 8
        for field in ("solution", "coefficients", "residual_operator", "residual_matrix"):
            assert np.array_equal(getattr(section, field), getattr(full, field))

    def test_single_entry(self):
        # the 1 x 1 section is the scalar equation M[0, 0] c_0 = d_0
        rng = np.random.default_rng(63)
        frame = random_frame(rng, 3, 8)
        op = conditioned_operator(rng, 3)
        g = random_complex(rng, 3)
        report = solve(op, g, frame, SolveOptions(section_size=1))
        m, d = explicit_system(op, frame), frame.analyze(g)
        assert report.coefficients[0] == pytest.approx(d[0] / m[0, 0], rel=1e-12)
        assert np.array_equal(report.coefficients[1:], np.zeros(7))

    @pytest.mark.parametrize("singular, options", [
        (False, SolveOptions(section_size=1)),
        (True, SolveOptions()),
        (True, SolveOptions(section_size=4)),
        (False, SolveOptions(rel_tol=0.5)),
    ], ids=["single_entry", "singular", "singular_section", "large_rel_tol"])
    def test_residual_matrix_is_that_of_the_coefficients(self, singular, options):
        # every path returns c with D_dual c = f, so |M c - d| is read as |C (O f - g)|;
        # each of these systems is inconsistent, so the residual is far from rounding
        rng = np.random.default_rng(63)
        frame = random_frame(rng, 3, 8)
        op = conditioned_operator(rng, 3)
        g = random_complex(rng, 3)
        if singular:
            op = LinearOperator(op.matrix * [1, 1, 0])
        report = solve(op, g, frame, options)
        m, d = explicit_system(op, frame), frame.analyze(g)
        residual = np.linalg.norm(m @ report.coefficients - d) / np.linalg.norm(d)
        assert residual > 1e-3
        assert report.residual_matrix == pytest.approx(residual, rel=1e-12)

    def test_too_large(self):
        rng = np.random.default_rng(70)
        frame = random_frame(rng, 3, 8)
        op, g = conditioned_operator(rng, 3), random_complex(rng, 3)
        with pytest.raises(SectionTooLarge, match="section 9 exceeds the 8 x 8"):
            solve(op, g, frame, SolveOptions(section_size=9))

    def test_non_positive(self):
        for section in (0, -1):
            with pytest.raises(ValueError):
                SolveOptions(section_size=section)

    def test_default_cutoff_is_n_eps(self):
        # with an orthonormal basis padded by zero vectors, M_2 = O and M has
        # O's singular values (1, 5e-15): above 2 eps, below K eps for K = 100
        frame = Frame(np.vstack([np.eye(2), np.zeros((98, 2))]))
        op = LinearOperator(np.diag([1.0, 5e-15]))
        g = np.array([1.0, 1e-15])
        section = solve(op, g, frame, SolveOptions(section_size=2))
        full = solve(op, g, frame)
        assert np.allclose(section.solution, [1.0, 0.2], rtol=1e-6, atol=0)
        assert np.allclose(full.solution, [1.0, 0.0], rtol=0, atol=1e-12)

    def test_minimal_norm_least_squares(self):
        # LAPACK's least-squares driver on the explicit block, an oracle
        # independent of the pseudoinverse helper; N = 5 > n gives a rank-3 block
        rng = np.random.default_rng(64)
        frame = random_frame(rng, 3, 8, max_condition=1e2)
        op = conditioned_operator(rng, 3)
        g = random_complex(rng, 3)
        m, d = explicit_system(op, frame), frame.analyze(g)
        for section in (2, 3, 5):
            report = solve(op, g, frame, SolveOptions(section_size=section))
            expected = np.linalg.lstsq(m[:section, :section], d[:section], rcond=None)[0]
            assert rel(report.coefficients[:section], expected) <= 1e-12, section


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
            oracle = np.linalg.solve(op.matrix, g)
            assert report.residual_operator <= 1e-8
            assert np.linalg.norm(report.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_residuals_definition(self, psi0):
        op = LinearOperator([[2, 0], [0, 3]])
        g = np.array([2.0, 3.0])
        report = solve(op, g, psi0)
        expected = np.linalg.norm(op(report.solution) - g) / np.linalg.norm(g)
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
        with pytest.raises(SectionTooLarge, match="section 4 exceeds the 3 x 3"):
            solve(identity_operator(2), [1, 0], psi0, SolveOptions(section_size=4))

    def test_conditioning_warning(self):
        frame = Frame([[1, 0], [0, 1e-4]])
        report = solve(identity_operator(2), [1, 1], frame)
        assert frame.condition > 1e6
        assert report.conditioning_warning

    def test_not_a_frame(self):
        with pytest.raises(NotAFrame):
            solve(identity_operator(2), [1, 0], Frame([[1, 0], [2, 0]]))

    def test_input_errors_before_the_frame_check(self):
        # the operator's shape and the section size are checked before the frame is factored
        rank_one = Frame([[1, 0], [2, 0]])
        with pytest.raises(SectionTooLarge, match="section 3 exceeds the 2 x 2"):
            solve(identity_operator(2), [1, 0], rank_one, SolveOptions(section_size=3))
        with pytest.raises(DimensionMismatch, match=re.escape("shape (2, 2), got (2, 3)")):
            solve(LinearOperator(np.ones((2, 3))), [1, 0], rank_one)

    def test_rhs_dimension(self, psi0):
        with pytest.raises(DimensionMismatch):
            solve(identity_operator(2), [1, 0, 0], psi0)

    @pytest.mark.parametrize("rel_tol", [None, 0.5])
    def test_lu_that_lost_the_operator_falls_to_the_cutoff_path(self, rel_tol):
        # O^-1 underflows in the LU, so |O|_F |O^-1|_F, at least 1 for every
        # invertible O, reads 0: the closed form is refused, and the cutoff
        # path returns O^-1 g = 1e300 / (1.2e308 (1 + i)) to rounding
        op = LinearOperator([[1.2e308 + 1.2e308j]])
        with cutoff_solves() as runs:
            report = solve(op, [1e300], Frame([[1.0], [1.0]]), SolveOptions(rel_tol=rel_tol))
        assert len(runs) == 1
        expected = 1e300 / 1.2e308 * (0.5 - 0.5j)
        assert abs(report.solution[0] - expected) <= 1e-15 * abs(expected)
        assert report.residual_operator <= 1e-15 and report.residual_matrix <= 1e-15


class TestSolveOptions:
    def test_defaults(self):
        options = SolveOptions()
        assert options.section_size is None
        assert options.rel_tol is None
        assert [f.name for f in dataclasses.fields(SolveOptions)] == [
            "section_size",
            "rel_tol",
        ]

    def test_rejects_bad_section(self):
        with pytest.raises(ValueError):
            SolveOptions(section_size=0)

    @pytest.mark.parametrize("size", [2.5, 2.0, "2", 1j])
    def test_rejects_non_integer_section(self, size):
        with pytest.raises(ValueError, match="section_size must be an integer"):
            SolveOptions(section_size=size)

    @pytest.mark.parametrize("size, expected", [(True, 1), (np.int64(2), 2)])
    def test_integer_like_section_becomes_int(self, psi0, size, expected):
        options = SolveOptions(section_size=size)
        assert type(options.section_size) is int and options.section_size == expected
        report = solve(identity_operator(2), [1, 1], psi0, options)
        assert type(report.section_used) is int and report.section_used == expected

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            SolveOptions(rel_tol=-1e-3)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, "1e-3", 1j])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SolveOptions(rel_tol=tol)

    def test_huge_tol_collapses_solution(self, psi0):
        report = solve(
            identity_operator(2), [1, 1], psi0, SolveOptions(rel_tol=10.0)
        )
        assert np.allclose(report.coefficients, np.zeros(3), atol=0)
        assert np.allclose(report.solution, np.zeros(2), atol=0)


class TestFactoredSolve:
    """Every section is solved through the n x n core, never as a K x K system."""

    def test_matches_explicit_system(self):
        # both sides of the closed-form guard run: the closed form, which never
        # forms the n x n system X, and the cutoff path, which does
        sides = set()

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(
            n=st.integers(1, 8),
            extra=st.integers(0, 16),
            log_condition=st.floats(0.0, 8.0),
            tol=st.sampled_from([None, 1e-6, 10.0]),
            seed=st.integers(0, 2**32 - 1),
            data=st.data(),
        )
        def check(n, extra, log_condition, tol, seed, data):
            k = n + extra
            rank = data.draw(st.integers(0, n), label="rank")
            section = data.draw(
                st.sampled_from([None] + sorted({min(max(size, 1), k)
                                                 for size in (1, n - 1, n, n + 1, k - 1)})),
                label="section",
            )
            rng = np.random.default_rng(seed)
            frame = frame_with_condition(rng, n, k, 10.0**log_condition)
            s = np.exp(rng.uniform(0.0, np.log(1e2), n))
            s[rank:] = 0.0
            op = LinearOperator((random_unitary(rng, n) * s) @ random_unitary(rng, n).conj().T)
            g = random_complex(rng, n)

            options = SolveOptions(section_size=section, rel_tol=tol)
            with cutoff_solves() as runs:
                report = solve(op, g, frame, options)
            closed_form = not runs
            sides.add(closed_form)

            # the oracle: the SVD pseudoinverse of the explicit N x N section of M
            n_section = k if section is None else section
            rel_tol = tol if tol is not None else n_section * EPS
            m, d = explicit_system(op, frame), frame.analyze(g)
            m_section = m[:n_section, :n_section]
            c_ref = np.zeros(k, dtype=np.complex128)
            c_ref[:n_section] = pseudoinverse(m_section, tol) @ d[:n_section]
            solution_ref = frame.canonical_dual().synthesize(c_ref)
            residual_ref = np.linalg.norm(m @ c_ref - d) / np.linalg.norm(d)
            # condition of the part of M_N the pseudoinverse keeps, and of the dual
            sv = np.linalg.svd(m_section, compute_uv=False)
            kept = sv[sv > rel_tol * sv[0]]
            cond = max(kept[0] / kept[-1] if kept.size else 1.0, np.sqrt(frame.condition))
            bound = 1e3 * EPS * cond
            assert np.linalg.norm(report.coefficients - c_ref) <= bound * np.linalg.norm(c_ref)
            assert (np.linalg.norm(report.solution - solution_ref)
                    <= bound * np.linalg.norm(solution_ref))
            assert abs(report.residual_matrix - residual_ref) <= bound

            # the closed form runs where the guard proves that the full system's
            # cutoff keeps all n singular values, and nowhere else
            if closed_form:
                assert n_section == k and rank == n and kept.size == n
            elif n_section == k and rank == n:
                guard = (rel_tol * frame.condition * np.linalg.norm(op.matrix)
                         * np.linalg.norm(np.linalg.inv(op.matrix)))
                assert guard >= 0.99

        check()
        assert sides == {True, False}

    def test_never_forms_the_left_factor(self, monkeypatch):
        # every spectral decomposition, the cold closed form's screen on S
        # included, runs on at most n rows
        rng = np.random.default_rng(26)
        n, k = 6, 48
        reals = {name: getattr(np.linalg, name) for name in ("svd", "eigvalsh")}
        for section in (None, 1, n - 1, n, n + 1, k - 1):
            shapes = []
            for name, real in reals.items():

                def recording(a, *args, _real=real, **kwargs):
                    shapes.append(np.shape(a))
                    return _real(a, *args, **kwargs)

                monkeypatch.setattr(np.linalg, name, recording)
            frame = Frame(random_complex(rng, k, n))
            solve(conditioned_operator(rng, n), random_complex(rng, n), frame,
                  SolveOptions(section_size=section))
            assert "_orthonormal_factor" not in frame.__dict__, section
            assert shapes and all(rows <= n for rows, _ in shapes), (section, shapes)

    def test_dual_after_solve_equals_fresh_dual(self):
        rng = np.random.default_rng(27)
        vectors = random_complex(rng, 20, 5)
        frame = Frame(vectors)
        solve(conditioned_operator(rng, 5), random_complex(rng, 5), frame)
        dual, fresh = frame.canonical_dual(), Frame(vectors).canonical_dual()
        assert np.array_equal(dual.vectors, fresh.vectors)
        for layer in ("singular_values", "_orthonormal_factor"):
            assert np.array_equal(getattr(dual, layer), getattr(fresh, layer)), layer
        e, unit = dual._triangular_factor
        assert e == fresh._triangular_factor[0]
        assert np.array_equal(unit, fresh._triangular_factor[1])
        assert np.array_equal(2.0**e * unit, np.linalg.qr(dual.analysis_matrix, mode="r"))

    def test_core_non_convergence_is_a_framerep_error(self, psi0, monkeypatch):
        # a singular operator takes the cutoff path, which takes the core's SVD
        psi0.singular_values  # the frame's own SVD succeeds; the core's fails
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        for section in (None, 2):
            with pytest.raises(DecompositionFailed, match="core"):
                solve(LinearOperator(np.diag([1.0, 0.0])), [1, 0], psi0,
                      SolveOptions(section_size=section))


def _outcome(op, g, frame, options):
    """Every field of ``solve``'s report, arrays as bytes, or the exception it raised."""
    try:
        report = solve(op, g, frame, options)
    except NotAFrame as exc:
        return "raised", str(exc)
    return (report.solution.tobytes(), report.coefficients.tobytes(), report.residual_operator,
            report.residual_matrix, report.section_used, report.conditioning_warning)


class TestScreenedSolve:
    """A cold full-system solve takes its decisions from the frame's certificate on
    its screen, the enclosure of its bounds; where the certificate does not prove
    B/A below every line it reads the exact singular values, so every report is
    the one a frame with them read first gives."""

    def test_reports_equal_the_exact_layers_near_each_line(self):
        fell_back = set()

        @settings(max_examples=270, deadline=None, derandomize=True, database=None)
        @given(
            n=st.integers(2, 6),
            extra=st.integers(0, 12),
            line=st.sampled_from(["warning", "rank", "guard", "far"]),
            log_offset=st.floats(-12.0, -6.0),
            side=st.sampled_from([-1.0, 1.0]),
            log_condition=st.floats(0.0, 8.0),
            # the screen decides at every frame scale, S beyond the float range too
            exponent=st.sampled_from([0, 300, -300, 500, -500]),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(n, extra, line, log_offset, side, log_condition, exponent, seed):
            rng = np.random.default_rng(seed)
            # within 1e-6 relative of B/A = 1e6, of A = 1e-10 B, or of rel_tol * bound = 1;
            # "far" is at least a factor 100 below B/A = 1e6 with the default rel_tol
            offset = 1.0 + side * 10.0**log_offset
            condition = {"warning": CONDITION_WARN_RATIO * offset,
                         "rank": offset / RANK_RTOL,
                         "far": 10.0 ** (log_condition / 2)}.get(line, 10.0**log_condition)
            vectors = frame_with_condition(rng, n, n + extra, condition).vectors * 2.0**exponent
            op, g = conditioned_operator(rng, n), random_complex(rng, n)
            warm, cold = Frame(vectors), Frame(vectors)
            warm.singular_values
            rel_tol = None
            if line == "guard":
                bound = warm.condition * (euclidean_norm(op.matrix)
                                          * euclidean_norm(np.linalg.inv(op.matrix)))
                rel_tol = offset / bound
            options = SolveOptions(rel_tol=rel_tol)
            assert _outcome(op, g, cold, options) == _outcome(op, g, warm, options)
            fell_back.add("singular_values" in cold.__dict__)

        check()
        # the certificate decided some solves alone and handed others to the exact layer
        assert fell_back == {True, False}

    def test_guard_limit_below_the_warning_line(self):
        # rel_tol puts the guard's limit at B/A = 500, below the warning's 1e6:
        # the certificate proves B/A = 10 below it, and no QR runs
        rng = np.random.default_rng(29)
        vectors = frame_with_condition(rng, 5, 40, 10.0).vectors
        op, g = conditioned_operator(rng, 5), random_complex(rng, 5)
        norms = euclidean_norm(op.matrix) * euclidean_norm(np.linalg.inv(op.matrix))
        options = SolveOptions(rel_tol=1e-3 / norms)
        warm, cold = Frame(vectors), Frame(vectors)
        warm.singular_values
        assert _outcome(op, g, cold, options) == _outcome(op, g, warm, options)
        assert "_triangular_factor" not in cold.__dict__
        assert cold._condition_below(1e3) and not cold._condition_below(5.0)

    def test_failed_screen_reads_the_exact_layers(self, monkeypatch):
        # eigvalsh failing leaves the trivial screen, so the cold solve reads the singular values
        rng = np.random.default_rng(31)
        vectors = frame_with_condition(rng, 4, 9, 10.0).vectors
        op, g = conditioned_operator(rng, 4), random_complex(rng, 4)
        warm, cold = Frame(vectors), Frame(vectors)
        warm.singular_values
        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        assert _outcome(op, g, cold, SolveOptions()) == _outcome(op, g, warm, SolveOptions())
        assert cold._bounds_enclosure == (-np.inf, np.inf)
        assert "singular_values" in cold.__dict__

    def test_trace_overflow_leaks_no_warning(self):
        # S's entries are finite but tr S overflows: the screen reads S over its
        # power of two and decides as at scale 1, with no QR
        vectors = np.array([[1.2, 0], [0, 1.2], [1e-4, 1e-4]])
        frame = Frame(vectors * 1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(identity_operator(2), [1, 1], frame)
            decided = frame._condition_below(CONDITION_WARN_RATIO)
        assert decided and decided == Frame(vectors)._condition_below(CONDITION_WARN_RATIO)
        assert "_triangular_factor" not in frame.__dict__
        assert np.array_equal(report.solution, [1, 1])
        assert report.residual_operator == 0 and report.residual_matrix == 0

    def test_certificate_refuses_a_nan_threshold(self):
        # rel_tol 2e6 |O|_F underflows to 0, and 0 * |O^-1|_F = 0 * inf is NaN
        threshold = _certificate_threshold(5e-324, (2e-308, np.inf))
        assert np.isnan(threshold)
        frame = frame_with_condition(np.random.default_rng(35), 3, 7, 10.0)
        assert not frame._condition_below(threshold)

    @pytest.mark.parametrize("vectors, matrix, rel_tol, warning", [
        # |O|_F |O^-1|_F is about 1e310; B/A = 3, so the certificate decides the cold solve
        ([[1, 0], [0, 1], [1, 1]], [[1e300, 0], [0, 1e-10]], 0.0, False),
        # |O|_F |O^-1|_F is about 1e305 and B/A about 1.3e8: their product overflows
        ([[1, 0], [0, 1e-4], [1, 1e-4]], [[1e300, 0], [0, 1e-5]], 0.0, True),
        # rel_tol |O|_F |O^-1|_F (B/A) is about 3e-10, but |O|_F |O^-1|_F alone overflows
        ([[1, 0], [0, 1], [1, 1]], [[1e300, 0], [0, 1e-10]], 1e-320, False),
    ], ids=["norms_overflow", "product_overflows", "subnormal_rel_tol"])
    def test_zero_rel_tol_sets_no_guard_limit(self, vectors, matrix, rel_tol, warning):
        # 0 * inf is NaN, and 1e-320 * inf is inf; either failed the guard and sent
        # the solve to the cutoff path, where it lost the first component to rounding
        op, g = LinearOperator(matrix), np.array([1.0, 1.0])
        options = SolveOptions(rel_tol=rel_tol)
        expected = np.array([1.0 / matrix[0][0], 1.0 / matrix[1][1]])
        warm, cold = Frame(vectors), Frame(vectors)
        warm.singular_values
        for frame in (cold, warm):
            with warnings.catch_warnings(), cutoff_solves() as runs:
                warnings.simplefilter("error")
                report = solve(op, g, frame, options)
            assert not runs
            # each component, the one near 1e-300 too, to rounding
            assert np.all(abs(report.solution - expected) <= 1e-15 * expected)
            assert report.residual_operator <= 1e-15 and report.residual_matrix <= 1e-15
            assert report.conditioning_warning == warning
        assert ("_triangular_factor" in cold.__dict__) == warning


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
        options = SolveOptions(section_size=section, rel_tol=1e-8)
        base_report = solve(op, g, Frame(vectors), options)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(op, g, Frame(vectors * t), options)
        # M c - d and d both scale by t, so |M c - d| / |d| does not change
        assert report.residual_matrix == pytest.approx(base_report.residual_matrix, rel=1e-10)
        assert report.residual_operator == pytest.approx(base_report.residual_operator, rel=1e-10)
        assert rel(report.solution, base_report.solution) <= 1e-12

    @pytest.mark.parametrize("section", [None, 2])
    def test_consistent_residual_at_subnormal_scale(self, section):
        # M c - d is rounding noise near 1e-316, a subnormal largest modulus
        frame = Frame(np.array([[1, 0], [0, 1], [1, 1]]) * 1e-300)
        report = solve(LinearOperator([[2, 1], [0, 1]]), [1, 2], frame,
                       SolveOptions(section_size=section))
        assert 0 <= report.residual_matrix <= 1e-14
        assert report.residual_operator <= 1e-15

    @pytest.mark.parametrize("section", [False, True], ids=["full", "section"])
    def test_residual_operator_below_the_ledger_floor(self, section):
        # O f - g and g near 2^-1000 have subnormal parts, which lose digits on
        # the subnormal grid unless the residual is formed and its norm read on
        # g's mantissa; the ratio is that of the norms formed at 2^1000
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 5))
            frame = Frame(random_complex(rng, int(rng.integers(n, 3 * n + 2)), n))
            op = conditioned_operator(rng, n)
            g = _ldexp(random_complex(rng, n), -int(rng.integers(970, 1061)))
            options = SolveOptions(section_size=max(1, frame.count // 2) if section else None)
            report = solve(op, g, frame, options)
            r = op(_ldexp(report.solution, 1000)) - _ldexp(g, 1000)
            expected = np.linalg.norm(r) / np.linalg.norm(_ldexp(g, 1000))
            assert report.residual_operator == pytest.approx(expected, rel=1e-15, abs=0), seed

    def test_section_of_a_subnormal_rhs(self):
        # the chain from g runs on the exponent ledger, so R g and the section's
        # steps keep every digit where g alone is subnormal
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            frame = Frame(random_complex(rng, 2 * n + 2, n))
            op = LinearOperator(random_unitary(rng, n) * np.logspace(0, -12, n)
                                @ random_unitary(rng, n))
            g = _ldexp(random_complex(rng, n), -1040)
            options = SolveOptions(section_size=frame.count - 1)
            base = solve(op, _ldexp(g, 1040), frame, options)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = solve(op, g, frame, options)
            assert rel(_ldexp(report.solution, 1040), base.solution) <= 1e-15, seed

    @pytest.mark.parametrize("path", ["closed", "section", "cutoff"])
    def test_subnormal_rhs_runs_on_its_mantissa(self, path):
        # f is about 2^-907, a normal float, while g at 2^-1040 is subnormal: the
        # LU, the chains' partial products and c run on g / 2^e, so f and c are
        # the bits of the same solve at 2^1040 times 2^-1040
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            frame = Frame(random_complex(rng, 2 * n + 2, n))
            op = LinearOperator(1e-40 * random_unitary(rng, n))
            g = _ldexp(random_complex(rng, n), -1040)
            options = {"closed": SolveOptions(),
                       "section": SolveOptions(section_size=frame.count - 1),
                       "cutoff": SolveOptions(rel_tol=0.5)}[path]
            base = solve(op, _ldexp(g, 1040), frame, options)
            with cutoff_solves() as runs:
                report = solve(op, g, frame, options)
            assert bool(runs) == (path != "closed"), seed
            _assert_scaled(report.solution, base.solution, -1040, seed)
            _assert_scaled(report.coefficients, base.coefficients, -1040, seed)
            assert report.residual_operator == base.residual_operator, seed

    @pytest.mark.parametrize("frame_scale, op_scale", [(1e-170, 1e-170), (1e-100, 1e-250)])
    def test_solution_beyond_the_product_of_scales(self, frame_scale, op_scale):
        # the core's numerator s_i (V* O V)_ij, near frame_scale * op_scale,
        # underflowed to zero before the division by s_j, and solve returned
        # (0, 0); the closed form never forms the core
        frame = Frame(np.array([[1, 0], [0, 1], [1, 1]]) * frame_scale)
        op = LinearOperator(op_scale * np.array([[2.0, 1.0], [0.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(op, [1, 2], frame)
        expected = np.array([-0.5, 2.0]) / op_scale
        assert euclidean_norm(report.solution - expected) <= 1e-14 * euclidean_norm(expected)

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    @pytest.mark.parametrize("matrix, g, options", [
        ([[2.0, 1.0], [0.0, 1.0]], [1, 2], SolveOptions(section_size=2)),
        ([[2.0, 1.0], [0.0, 1.0]], [1, 2], SolveOptions(rel_tol=0.5)),
        ([[2.0, 0.0], [0.0, 0.0]], [1, 0], SolveOptions()),
    ], ids=["section", "large_rel_tol", "singular"])
    def test_cutoff_path_beyond_the_product_of_scales(self, matrix, g, options, scale):
        # the core's numerator s_i (V* O V)_ij, near scale**2, underflowed to
        # zero (solve returned (0, 0)) or overflowed (a false core overflow)
        psi0 = np.array([[1, 0], [0, 1], [1, 1]])
        expected = solve(LinearOperator(matrix), g, Frame(psi0), options).solution / scale
        frame = Frame(psi0 * scale)
        with warnings.catch_warnings(), cutoff_solves() as runs:
            warnings.simplefilter("error")
            report = solve(LinearOperator(np.array(matrix) * scale), g, frame, options)
        assert runs  # the cutoff path ran
        assert euclidean_norm(report.solution - expected) <= 1e-14 * euclidean_norm(expected)

    @pytest.mark.parametrize("section", [1, 2])
    @pytest.mark.parametrize("exponent", [-1030, -1060, -1072])
    def test_section_of_a_subnormal_frame(self, exponent, section):
        # C[:N] / p for a subnormal p went through p's overflowing reciprocal,
        # and the section's core read as non-finite; the residual matrix is
        # not compared, as C itself is subnormal here
        psi0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        op, options = LinearOperator([[2, 1], [0, 1]]), SolveOptions(section_size=section)
        base = solve(op, [1, 2], Frame(psi0), options)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(op, [1, 2], Frame(_ldexp(psi0, exponent)), options)
        assert np.array_equal(report.solution, base.solution)
        assert report.residual_operator == base.residual_operator

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        scaled=st.sampled_from(["g", "operator", "frame"]),
        exponent=st.integers(-150, 150),
        closed_form=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residuals_are_scale_free(self, scaled, exponent, closed_form, seed):
        # an invertible operator takes the closed form, with residuals at
        # rounding level; one of rank 2 on C^3 takes the cutoff path, and its
        # inconsistent system has O(1) residuals
        rng = np.random.default_rng(seed)
        inputs = {"frame": random_complex(rng, 7, 3), "g": random_complex(rng, 3),
                  "operator": (conditioned_operator(rng, 3).matrix if closed_form
                               else random_complex(rng, 3, 2) @ random_complex(rng, 2, 3))}
        options = SolveOptions(rel_tol=1e-8)
        base = solve(LinearOperator(inputs["operator"]), inputs["g"], Frame(inputs["frame"]),
                     options)
        inputs[scaled] = inputs[scaled] * 10.0**exponent
        with warnings.catch_warnings(), cutoff_solves() as runs:
            warnings.simplefilter("error")
            report = solve(LinearOperator(inputs["operator"]), inputs["g"], Frame(inputs["frame"]),
                           options)
        assert (not runs) == closed_form
        for residual in ("residual_operator", "residual_matrix"):
            got, expected = getattr(report, residual), getattr(base, residual)
            assert abs(got - expected) <= 1e-9 * expected + 1e3 * EPS, residual

    @pytest.mark.parametrize("exponent, g_exponent", [
        (300, 0), (-300, 0), (600, 0), (-600, 0), (1000, 0), (-1000, 0),
        # C g underflows, while O f - g stays a normal float
        (-600, -500), (-1000, -100), (-300, -800),
    ], ids=["300", "-300", "600", "-600", "1000", "-1000",
            "-600,g-500", "-1000,g-100", "-300,g-800"])
    @pytest.mark.parametrize("rel_tol, cutoff", [(None, False), (0.5, True)],
                             ids=["closed_form", "cutoff"])
    def test_residual_matrix_is_exact_at_binary_scales(self, exponent, g_exponent, rel_tol,
                                                       cutoff):
        # 2^k scales C, C g and each factor of M c - d exactly; at 2^-1000 C (O f - g)
        # and C g are subnormal unless O f - g and g are first scaled to about 1
        options = SolveOptions(rel_tol=rel_tol)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 6
            vectors = random_complex(rng, n + seed, n)
            op, g = conditioned_operator(rng, n), random_complex(rng, n)
            base = solve(op, g, Frame(vectors), options)
            with cutoff_solves() as runs:
                report = solve(op, g * 2.0**g_exponent, Frame(vectors * 2.0**exponent), options)
            assert bool(runs) == cutoff
            for residual in ("residual_operator", "residual_matrix"):
                assert getattr(report, residual) == getattr(base, residual), (residual, seed)

    def test_residual_matrix_near_the_largest_float(self):
        # at frame scale 2^1021, C (g / p) or C (O f - g) / q overflows for g near
        # 2^-30 while C g does not, so each is divided by a further power of two
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 6
            vectors = random_complex(rng, n + seed, n)
            op, g = conditioned_operator(rng, n), random_complex(rng, n)
            base = solve(op, g, Frame(vectors))
            with cutoff_solves() as runs:
                report = solve(op, g * 2.0**-30, Frame(vectors * 2.0**1021))
            assert not runs
            assert report.residual_matrix == base.residual_matrix, seed

    @pytest.mark.parametrize("exponent, g_exponent", [
        (300, 0), (-300, 0), (500, 0), (-500, 0), (600, 0), (-600, 0), (1000, 0), (-1000, 0),
        # g's 2^k reaches the cutoff path's chains, whose ledger splits each
        # factor, transposed ones included, and keeps the direct product's bits
        (0, 1000), (0, -1000), (-300, 1020),
    ], ids=["300", "-300", "500", "-500", "600", "-600", "1000", "-1000",
            "g1000", "g-1000", "-300,g1020"])
    def test_spectral_data_and_solutions_are_exact_at_binary_scales(self, exponent, g_exponent):
        # 2^k splits off into the frame's power of two p, so every result is the
        # scale-1 one times its power of two wherever that stays a normal float
        for seed in range(25):
            rng = np.random.default_rng(400 + seed)
            n = int(rng.integers(2, 9))
            k = int(rng.integers(n, 4 * n + 1))
            base = frame_with_condition(rng, n, k, 10.0 ** rng.uniform(0.0, 8.0))
            vectors = _ldexp(base.vectors, exponent)
            assert np.array_equal(_ldexp(vectors, -exponent), base.vectors)  # an exact copy
            op, g = conditioned_operator(rng, n), random_complex(rng, n)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                frame = Frame(vectors)
                _assert_scaled(frame.singular_values, base.singular_values, exponent,
                               ("singular values", seed))
                _assert_scaled(frame.bounds, base.bounds, 2 * exponent, ("bounds", seed))
                _assert_scaled(frame.canonical_dual().vectors, base.canonical_dual().vectors,
                               -exponent, ("dual", seed))
                assert frame.condition == base.condition, ("condition", seed)
                for path, options in (("cutoff", SolveOptions(rel_tol=0.5)),
                                      ("section", SolveOptions(section_size=k // 2))):
                    got = solve(op, _ldexp(g, g_exponent), frame, options)
                    want = solve(op, g, base, options)
                    assert np.array_equal(got.solution, _ldexp(want.solution, g_exponent)), (
                        path, seed)
                    _assert_scaled(got.coefficients, want.coefficients, exponent + g_exponent,
                                   (path, seed))
                    assert got.residual_operator == want.residual_operator, (path, seed)

    def test_bounds_beyond_float_range_read_inf(self):
        frame = Frame([[1e160, 0], [0, 1e160], [1e160, 1e160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frame.bounds == (np.inf, np.inf)
            assert frame.is_frame
            assert frame.condition == pytest.approx(3.0, rel=1e-13)
            assert frame.classification is FrameClass.FRAME


class TestOverflow:
    """A product beyond the float range raises a FrameRepError naming it, with no warning."""

    PSI0 = np.array([[1, 0], [0, 1], [1, 1]])

    @pytest.mark.parametrize("section", [None, 2])
    @pytest.mark.parametrize("vectors, op, g, product", [
        # C g is about 1e460 but never formed; c = C f is about 1e460 too
        (PSI0 * 1e160, np.eye(2), 1e300, "solution's coefficient vector"),
        # C g is about 1e300 and f about 1e150, but C f is about 1e310
        (PSI0 * 1e160, 1e-10 * np.eye(2), 1e140, "solution's coefficient vector"),
        # C g and C f are about 1e140 and 1e150, but f is about 1e310
        (PSI0 * 1e-160, 1e-10 * np.eye(2), 1e300, r"solution R\^-1 y"),
        # B/A is about 1e8, and the core's off-diagonal entry about 1e309
        ([[1, 0], [0, 1e-4], [1, 1e-4]], [[0, 1e305], [0, 0]], 1.0, "discretized system's core"),
        # R = p (R/p) has column norms 2e308, and C's largest singular value is 2.8e308
        (np.full((4, 2), 1e308), np.eye(2), 1.0, "largest singular value"),
    ], ids=["rhs_coefficients", "solution_coefficients", "solution", "core", "triangular_factor"])
    def test_overflow_is_named(self, vectors, op, g, product, section):
        frame = Frame(vectors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrameRepError, match=product) as info:
                solve(LinearOperator(op), [g, g], frame, SolveOptions(section_size=section))
        assert not isinstance(info.value, DimensionMismatch)

    @pytest.mark.parametrize("section", [None, 2])
    def test_rhs_coefficients_are_not_checked(self, section):
        # C g is about 1e460, but solve never forms it, and f = (1, 1) and c
        # (about 1e160) are in range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(LinearOperator(1e300 * np.eye(2)), [1e300, 1e300],
                           Frame(self.PSI0 * 1e160), SolveOptions(section_size=section))
        assert euclidean_norm(report.solution - [1.0, 1.0]) <= 1e-15
        assert np.isfinite(report.coefficients).all()
        assert report.residual_operator == report.residual_matrix == 0.0

    def test_cutoff_solution_whose_steps_leave_the_float_range(self):
        # R g, X^+ R g and R^-1 X^+ R g's partial products reach 2e308 at g's
        # scale, but f = (1.2e308, 0) is in range, and so is each residual's norm
        frame = Frame([[1, 0], [1, 0], [1, 0], [0, 1]])
        with warnings.catch_warnings(), cutoff_solves() as runs:
            warnings.simplefilter("error")
            report = solve(LinearOperator(np.diag([1.0, 0.0])), [1.2e308, 1.2e308], frame)
        assert runs
        assert report.solution == pytest.approx([1.2e308, 0.0], rel=1e-15, abs=0)
        assert report.residual_operator == 0.7071067811865475
        assert report.residual_matrix == 0.5

    def test_cutoff_solution_near_the_largest_float(self):
        # |O^-1|_F overflows, so the guard fails and the cutoff path runs: f is
        # about 1e308 (1, 1, 1, 1), and c = C f about 1e305
        rng = np.random.default_rng(0)
        frame = Frame(1e-3 * random_complex(rng, 9, 4))
        with warnings.catch_warnings(), cutoff_solves() as runs:
            warnings.simplefilter("error")
            report = solve(LinearOperator(1e-308 * np.eye(4)), [1, 1, 1, 1], frame)
        assert runs
        assert euclidean_norm(report.solution - 1e308) <= 1e-15 * euclidean_norm(report.solution)

    @pytest.mark.parametrize("options", [
        SolveOptions(), SolveOptions(rel_tol=0.5), SolveOptions(section_size=2),
    ], ids=["closed_form", "cutoff", "section"])
    def test_coefficient_overflow_is_named_on_every_path(self, options):
        # f = g is in range, while c = C f reaches 2.4e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrameRepError, match="solution's coefficient vector"):
                solve(LinearOperator(np.eye(2)), [1.2e308, 1.2e308], Frame(self.PSI0), options)

    def test_operator_image_of_a_huge_solution(self):
        # f is about (1e300, 1e300), so each product of O's first row with f is
        # about 1e310, but O f itself, which the residual needs, is in range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(LinearOperator([[1e10, -1e10], [0, 1e-300]]), [1, 1],
                           Frame(self.PSI0), SolveOptions(rel_tol=0))
        assert np.allclose(report.solution, [1e300, 1e300], rtol=1e-15, atol=0)
        assert np.allclose(report.coefficients, [1e300, 1e300, 2e300], rtol=1e-15, atol=0)
        # f's two entries round to the same float, so O f = (0, 1) exactly
        assert report.residual_operator == pytest.approx(np.sqrt(0.5), rel=1e-15)

    def test_section_core_of_an_operator_near_the_largest_float(self):
        # R O is about 2.4e308 on the way to the core X = R O R^-1 = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(LinearOperator([[1.7e308]]), [1e300], Frame([[1.0], [1.0]]),
                           SolveOptions(section_size=1))
        assert report.solution == pytest.approx([1e300 / 1.7e308], rel=1e-15)
        assert report.residual_operator <= 4 * EPS

    def test_section_core_overflow_is_named(self):
        # R1 X R1* overflows for finite input, and was handed to the SVD as is
        op = LinearOperator([[9.000000000000002e307, 9.000002249999718e307],
                             [8.999997750000846e307, 8.999999999999999e307]])
        frame = Frame([[1, 1], [1, -1], [0, 1e-3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrameRepError, match="finite section's core") as info:
                solve(op, [1, -1], frame, SolveOptions(section_size=1))
        assert not isinstance(info.value, DimensionMismatch)

    def test_cutoff_solve_near_the_largest_float(self):
        # C's column norms 1.27e308 are finite, but a Householder QR of C itself
        # overflowed silently, and the solve returned (1, 0) 1e-300
        frame = Frame(self.PSI0 * 9e307)
        with warnings.catch_warnings(), cutoff_solves() as runs:
            warnings.simplefilter("error")
            report = solve(LinearOperator(np.diag([1.0, 0.0])), [1e-300, 1e-300], frame)
        assert runs
        expected = np.array([1.5, -0.75]) * 1e-300
        assert euclidean_norm(report.solution - expected) <= 1e-15 * euclidean_norm(expected)

    def test_closed_form_forms_no_core(self):
        # B/A is about 1.3e8, so the core X = R O R^-1 reaches about 1e309 where
        # O's entries are 1e305; O is well conditioned, so the full system
        # takes the closed form, which never forms the core, while a section
        # still takes the core and names its overflow
        frame = Frame([[1, 0], [0, 1e-4], [1, 1e-4]])
        op = LinearOperator([[1e305, 1e305], [0, 1e305]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(op, [1.0, 1.0], frame)
            with pytest.raises(FrameRepError, match="discretized system's core"):
                solve(op, [1.0, 1.0], frame, SolveOptions(section_size=2))
        assert euclidean_norm(report.solution - [0.0, 1e-305]) <= 1e-14 * 1e-305
        assert report.residual_operator <= 1e-15

    @pytest.mark.parametrize("matrix, g, options, expected", [
        # rel_tol |O|_F |O^-1|_F = 1e10 fails the guard, and the cutoff drops 1e-10
        ([[1e300, 0], [0, 1e-10]], 1.0, SolveOptions(rel_tol=1e-300), 0.5),
        ([[1e300, 0], [0, 1e-10]], 1.0, SolveOptions(rel_tol=1e-320, section_size=2), None),
        ([[1e300, 0], [1e-10, 0]], 1.0, SolveOptions(rel_tol=0.0), None),
        ([[1e300, 0], [1e-10, 0]], 1.0, SolveOptions(rel_tol=0.0, section_size=2), None),
        # f is about 1e-310, and the residual is that of the system with O's
        # second column dropped
        ([[1e300, 0], [0, 0]], 1e-10, SolveOptions(), 0.5),
        ([[1e300, 0], [0, 0]], 1e-10, SolveOptions(section_size=2), 1 / np.sqrt(3)),
        ([[1e300, 0], [0, 1e-300]], 1e-10, SolveOptions(), 0.5),
        ([[1e300, 0], [0, 1e-300]], 1e-10, SolveOptions(section_size=2), 1 / np.sqrt(3)),
    ], ids=["full", "section", "singular_full", "singular_section",
            "small_rhs_full", "small_rhs_section", "graded_full", "graded_section"])
    def test_cutoff_residual_matrix_is_finite(self, matrix, g, options, expected):
        # y is about 1e10 or more and the core holds 1e300, so X y overflowed and
        # residual_matrix read NaN or inf; C (O f - g) does not leave the float range
        with warnings.catch_warnings(), cutoff_solves() as runs:
            warnings.simplefilter("error")
            report = solve(LinearOperator(matrix), [g, g], Frame(self.PSI0), options)
        assert runs
        assert 0.0 < report.residual_matrix < np.inf
        if expected is not None:
            assert report.residual_matrix == pytest.approx(expected, rel=1e-12)
