"""Tests for frame construction, bounds, duals, Gram matrices, classification."""

import gc
import pickle
import re
import warnings
import weakref
from functools import cached_property

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
    NotAFrame,
    SolveOptions,
    biorthogonal,
    gram,
    identity_operator,
    operator_norm,
    project_onto_analysis_range,
    roundtrip_reconstruct,
    solve,
)
from framerep.frames import CONDITION_WARN_RATIO, TIGHT_RTOL
from helpers import (
    LAYOUTS,
    conditioned_operator,
    frame_with_condition,
    imaginary_nan,
    no_convergence,
    random_complex,
    random_frame,
    random_riesz_basis,
    random_unitary,
)

EPS = np.finfo(np.float64).eps


class TestConstruction:
    def test_shape_and_dims(self, psi0):
        assert psi0.count == 3
        assert psi0.space_dim == 2
        assert len(psi0) == 3
        assert repr(psi0) == "Frame(count=3, space_dim=2)"

    def test_vectors_read_only(self, psi0):
        with pytest.raises(ValueError):
            psi0.vectors[0, 0] = 5.0

    def test_analysis_matrix_cached_and_read_only(self, psi0):
        c = psi0.analysis_matrix
        assert c is psi0.analysis_matrix
        assert np.array_equal(c, psi0.vectors.conj())
        with pytest.raises(ValueError):
            c[0, 0] = 5.0

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            Frame(np.zeros((0, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionMismatch):
            Frame([[1.0, np.inf]])

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rejects_imaginary_nan_in_any_layout(self, layout):
        a = imaginary_nan(3, 2, layout)
        assert not a.flags.c_contiguous
        with pytest.raises(DimensionMismatch, match="frame vector array contains non-finite"):
            Frame(a)
        # a finite strided view is accepted, whatever the entries it skips
        a[-1, -1] = 1.0
        assert np.array_equal(Frame(a).vectors, np.ones((3, 2)))

    @pytest.mark.parametrize("vectors, message", [
        (np.ones(3), "frame vector array must be 2-dimensional, got ndim=1"),
        (np.ones((2, 0)), r"frame vector array must have positive dimensions, got shape \(2, 0\)"),
    ])
    def test_shape_messages(self, vectors, message):
        with pytest.raises(DimensionMismatch, match=message):
            Frame(vectors)

    @pytest.mark.parametrize("side", ["frame", "canonical dual"])
    def test_every_kept_array_is_read_only(self, side):
        vectors = [[1, 0], [0, 1], [1, 1]]

        def pick(frame):
            return frame if side == "frame" else frame.canonical_dual()

        target = pick(Frame(vectors))
        owners = {"frame": target, "dual": target.canonical_dual()}
        # fill every cached layer of both, whatever layers Frame has
        for frame in owners.values():
            for name, layer in vars(Frame).items():
                if isinstance(layer, cached_property):
                    getattr(frame, name)
        roundtrip_reconstruct(identity_operator(2), target, target)
        kept = {}
        for owner, frame in owners.items():
            for name, value in vars(frame).items():
                # a tuple layer may mix arrays with floats, such as a scale
                values = value if isinstance(value, tuple) else (value,)
                kept.update({f"{owner}.{name}[{i}]": array for i, array in enumerate(values)
                             if isinstance(array, np.ndarray)})
        assert {"frame._vectors[0]", "frame._reconstruction_factor[0]",
                "frame._triangular_factor[1]", "frame._triangular_inverse[0]",
                "dual._orthonormal_factor[0]", "dual._triangular_factor[1]",
                "dual._triangular_inverse[0]"} <= kept.keys()
        for name, array in kept.items():
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 100.0
        # what the frame derives from its caches is what a fresh frame derives
        fresh = pick(Frame(vectors))
        assert target.bounds == fresh.bounds
        assert np.array_equal(target.canonical_dual().vectors, fresh.canonical_dual().vectors)
        op, g = identity_operator(2), [1.0, 2.0]
        assert np.array_equal(solve(op, g, target).solution, solve(op, g, fresh).solution)

    def test_copies_and_leaves_callers_array_writeable(self):
        source = np.eye(2, dtype=np.complex128)
        frame = Frame(source)
        source[0, 0] = 5.0
        assert frame.vectors[0, 0] == 1.0

    def test_zero_vector_is_legal(self):
        # appending a zero vector to an ONB keeps the bounds at (1, 1)
        frame = Frame([[1, 0], [0, 1], [0, 0]])
        assert frame.bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert frame.bounds.upper == pytest.approx(1.0, abs=1e-12)
        assert frame.classification is FrameClass.PARSEVAL_FRAME


class TestFrameOperator:
    def test_psi0_golden(self, psi0):
        assert np.allclose(psi0.frame_operator, [[2, 1], [1, 2]], atol=1e-12)

    def test_onb_gives_identity(self, onb2):
        assert np.allclose(onb2.frame_operator, np.eye(2), atol=1e-15)

    def test_mercedes_golden(self, mercedes):
        assert np.allclose(mercedes.frame_operator, 1.5 * np.eye(2), atol=1e-12)

    def test_equals_outer_product_sum(self):
        rng = np.random.default_rng(12)
        frame = random_frame(rng, 4, 9)
        s = sum(np.outer(v, v.conj()) for v in frame.vectors)
        scale = np.linalg.norm(s, "fro")
        assert np.linalg.norm(frame.frame_operator - s, "fro") <= 1e-12 * scale

    def test_synthesis_is_adjoint_of_analysis_exactly(self):
        rng = np.random.default_rng(13)
        frame = random_frame(rng, 3, 7)
        assert np.array_equal(frame.synthesis_matrix, frame.analysis_matrix.conj().T)

    def test_factorizations_agree(self):
        rng = np.random.default_rng(14)
        frame = random_frame(rng, 5, 11)
        c, d = frame.analysis_matrix, frame.synthesis_matrix
        s = frame.frame_operator
        scale = np.linalg.norm(s, "fro")
        assert np.linalg.norm(c.conj().T @ c - s, "fro") <= 1e-12 * scale
        assert np.linalg.norm(d @ d.conj().T - s, "fro") <= 1e-12 * scale


class TestBounds:
    def test_psi0(self, psi0):
        a, b = psi0.bounds
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(3.0, abs=1e-12)

    def test_mercedes(self, mercedes):
        a, b = mercedes.bounds
        assert a == pytest.approx(1.5, abs=1e-12)
        assert b == pytest.approx(1.5, abs=1e-12)

    def test_non_spanning(self):
        frame = Frame([[1, 0], [2, 0]])
        a, b = frame.bounds
        assert a == pytest.approx(0.0, abs=1e-12)
        assert b == pytest.approx(5.0, abs=1e-12)
        assert not frame.is_frame
        assert frame.condition == np.inf

    def test_bounds_below_the_float_range_read_zero(self, psi0):
        # A and B are squares of s, which underflow where s itself does not;
        # the rank rule reads s, so the family is still a frame
        frame = Frame(psi0.vectors * 1e-165)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frame.bounds == (0.0, 0.0)
            assert frame.is_frame
            assert frame.condition == pytest.approx(3.0, rel=1e-13)

    def test_frame_inequality_random(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(n, 2 * n + 4))
            frame = random_frame(rng, n, k)
            a, b = frame.bounds
            fs = random_complex(rng, n, 100)
            coeff_sq = np.sum(np.abs(frame.analysis_matrix @ fs) ** 2, axis=0)
            norms_sq = np.sum(np.abs(fs) ** 2, axis=0)
            assert np.all(coeff_sq >= a * norms_sq * (1 - 1e-10))
            assert np.all(coeff_sq <= b * norms_sq * (1 + 1e-10))

    def test_bounds_tight_at_extremal_eigenvectors(self):
        rng = np.random.default_rng(16)
        frame = random_frame(rng, 6, 13)
        a, b = frame.bounds
        w, v = np.linalg.eigh(frame.frame_operator)
        lo, hi = v[:, 0], v[:, -1]
        assert np.linalg.norm(frame.analyze(lo)) ** 2 == pytest.approx(a, abs=1e-9 * b)
        assert np.linalg.norm(frame.analyze(hi)) ** 2 == pytest.approx(b, abs=1e-9 * b)

    def test_triangular_factor_overflow_is_named(self):
        # R = p (R/p) holds the column norm 2e308, C's largest singular value,
        # which leaves the float range; R/p itself is finite
        frame = Frame(np.full((4, 1), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrameRepError, match="largest singular value overflows") as info:
                frame.bounds
        assert not isinstance(info.value, DimensionMismatch)
        assert np.isfinite(frame._triangular_factor[1]).all()

    def test_condition_near_the_largest_float(self):
        # C's column norms 1.27e308 are finite, but a Householder QR of C itself
        # overflowed silently and read s = (1, 1) 1.27e308, condition 1
        frame = Frame(np.array([[1, 0], [0, 1], [1, 1]]) * 9e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frame.condition == pytest.approx(3.0, rel=1e-15)
            assert frame.singular_values == pytest.approx(np.array([np.sqrt(3), 1]) * 9e307,
                                                          rel=1e-15)

    @pytest.mark.parametrize("read", [
        Frame.canonical_dual,
        lambda frame: project_onto_analysis_range(frame, np.ones(4)),
    ], ids=["canonical_dual", "project_onto_analysis_range"])
    def test_triangular_factor_overflow_from_the_qr_that_forms_q(self, read):
        # the dual and the projector read Q first, and its QR supplies R/p; the
        # frame check then reads the singular values p s(R/p), which overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrameRepError, match="largest singular value overflows") as info:
                read(Frame(np.full((4, 1), 1e308)))
        assert not isinstance(info.value, DimensionMismatch)


class TestAnalysisSynthesis:
    def test_analysis_golden(self, psi0):
        assert np.allclose(psi0.analyze([1, 2]), [1, 2, 3], atol=1e-15)

    def test_analysis_onb_returns_coordinates(self, onb2):
        f = np.array([2 + 1j, -3j])
        assert np.allclose(onb2.analyze(f), f, atol=1e-15)

    def test_analysis_conjugates_second_slot(self):
        frame = Frame([[1j, 0]])
        # <f, psi> is linear in f, conjugate-linear in psi
        assert np.allclose(frame.analyze([1, 0]), [-1j], atol=1e-15)

    def test_analysis_zero(self, psi0):
        assert np.allclose(psi0.analyze([0, 0]), np.zeros(3), atol=0)

    def test_synthesis_golden(self, psi0):
        assert np.allclose(psi0.synthesize([1, 2, 3]), [4, 5], atol=1e-15)

    def test_synthesis_delta_picks_vector(self, psi0):
        assert np.allclose(psi0.synthesize([0, 0, 1]), [1, 1], atol=0)

    def test_synthesis_zero(self, psi0):
        assert np.allclose(psi0.synthesize([0, 0, 0]), [0, 0], atol=0)

    def test_dimension_errors(self, psi0):
        with pytest.raises(DimensionMismatch):
            psi0.analyze([1, 2, 3])
        with pytest.raises(DimensionMismatch):
            psi0.synthesize([1, 2])
        # a 0-d scalar is not a vector of dimension one
        with pytest.raises(DimensionMismatch, match="must be 1-dimensional, got ndim=0"):
            psi0.analyze(2.0)
        with pytest.raises(DimensionMismatch, match="must be 1-dimensional, got ndim=0"):
            Frame(np.eye(1)).analyze(2.0)


class TestCanonicalDual:
    def test_psi0_golden(self, psi0):
        dual = psi0.canonical_dual()
        expected = np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3], [1 / 3, 1 / 3]])
        assert np.allclose(dual.vectors, expected, atol=1e-12)

    def test_onb_is_self_dual(self, onb2):
        assert np.allclose(onb2.canonical_dual().vectors, onb2.vectors, atol=1e-12)

    def test_mercedes_scales(self, mercedes):
        dual = mercedes.canonical_dual()
        assert np.allclose(dual.vectors, mercedes.vectors * (2 / 3), atol=1e-12)

    def test_bounds_invert(self):
        rng = np.random.default_rng(17)
        frame = random_frame(rng, 4, 9)
        a, b = frame.bounds
        da, db = frame.canonical_dual().bounds
        assert da == pytest.approx(1 / b, rel=1e-9)
        assert db == pytest.approx(1 / a, rel=1e-9)

    def test_dual_of_dual(self):
        rng = np.random.default_rng(18)
        frame = random_frame(rng, 3, 8)
        again = frame.canonical_dual().canonical_dual()
        assert np.allclose(again.vectors, frame.vectors, rtol=0, atol=1e-9)

    def test_not_a_frame(self):
        with pytest.raises(NotAFrame):
            Frame([[1, 0], [2, 0]]).canonical_dual()

    @pytest.mark.parametrize("vectors, rule", [
        # the squared bounds would read inf and 0; the singular values stay in range
        (np.array([[1, 0], [0, 1e-6], [1, 0]]) * 1e200,
         "smallest singular value 1.000e+194 is at most 1e-05 * largest 1.414e+200"),
        (np.array([[1, 0], [0, 1e-6], [1, 0]]) * 1e-200,
         "smallest singular value 1.000e-206 is at most 1e-05 * largest 1.414e-200"),
        ([[1, 0, 0], [0, 1, 0]], "2 vectors cannot span C^3"),
    ], ids=["huge", "tiny", "k_below_n"])
    def test_not_a_frame_states_the_broken_rule(self, vectors, rule):
        message = f"canonical dual requires a frame: {rule}"
        with pytest.raises(NotAFrame, match=f"^{re.escape(message)}$"):
            Frame(vectors).canonical_dual()

    def test_dual_does_not_keep_its_frame_alive(self):
        # the dual refers back weakly, so reference counting alone frees a
        # frame whose dual outlives it
        gc.disable()
        try:
            frame = Frame([[1, 0], [0, 1], [1, 1]])
            dual = frame.canonical_dual()
            assert dual.canonical_dual() is frame
            alive = weakref.ref(frame)
            del frame
            assert alive() is None
            # the dual then rebuilds its own dual from its factors
            assert np.allclose(dual.canonical_dual().vectors, [[1, 0], [0, 1], [1, 1]], atol=1e-12)
        finally:
            gc.enable()

    def test_pickles_with_cached_dual(self, psi0):
        dual = psi0.canonical_dual()
        roundtrip_reconstruct(identity_operator(2), psi0, psi0)  # fills both frames' factor
        for frame in (psi0, dual):
            assert "_reconstruction_factor" in frame.__dict__
            copy = pickle.loads(pickle.dumps(frame))
            assert np.array_equal(copy.vectors, frame.vectors)
            assert copy.allclose(frame)
            assert not copy.vectors.flags.writeable
        copy = pickle.loads(pickle.dumps(psi0))
        assert np.array_equal(roundtrip_reconstruct(identity_operator(2), copy, copy).matrix,
                              roundtrip_reconstruct(identity_operator(2), psi0, psi0).matrix)
        assert np.allclose(pickle.loads(pickle.dumps(dual)).canonical_dual().vectors, psi0.vectors,
                           atol=1e-12)

    def test_dual_inherits_factors(self):
        rng = np.random.default_rng(23)
        frame = random_frame(rng, 4, 9)
        dual = frame.canonical_dual()
        # only the singular values, reversed and inverted; the dual's own QR
        # is computed when first read
        assert "singular_values" in dual.__dict__
        assert not {"_triangular_factor", "_orthonormal_factor"} & dual.__dict__.keys()
        s = dual.singular_values
        assert np.array_equal(s, 1.0 / frame.singular_values[::-1])
        assert np.all(np.diff(s) <= 0)
        q, (e, unit) = dual._orthonormal_factor, dual._triangular_factor
        r = 2.0**e * unit
        assert np.array_equal(r, np.linalg.qr(dual.analysis_matrix, mode="r"))
        # the inherited s are the singular values of the dual's own R
        assert np.max(np.abs(np.linalg.svd(r, compute_uv=False) - s)) <= 1e-12 * s[0]
        scale = np.linalg.norm(dual.analysis_matrix)
        assert np.linalg.norm(q @ r - dual.analysis_matrix) <= 1e-14 * scale

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 6),
        extra=st.integers(0, 12),
        log_condition=st.floats(0.0, 9.0),
        log_scale=st.floats(-300.0, 300.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_pseudoinverse_at_any_scale(self, n, extra, log_condition, log_scale,
                                                     seed):
        # the dual of t v is dual(v) / t, and dual(v)'s vectors are conj(pinv(D))
        frame = frame_with_condition(np.random.default_rng(seed), n, n + extra,
                                     10.0**log_condition)
        scale = 10.0**log_scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dual = Frame(frame.vectors * scale).canonical_dual()
        expected = np.linalg.pinv(frame.synthesis_matrix).conj()
        error = np.linalg.norm(dual.vectors * scale - expected) / np.linalg.norm(expected)
        assert error <= 1e3 * EPS * 10.0 ** (log_condition / 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 8),
        extra=st.integers(0, 16),
        log_condition=st.floats(0.0, 8.0),
        log_scale=st.floats(-300.0, 300.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reconstruction_is_the_identity_at_any_scale(self, n, extra, log_condition,
                                                         log_scale, seed):
        # |D C_dual - I|_2 stays within eps sqrt(B/A) through the QR's Q; a dual
        # built from R alone, C R^-1 R^-*, loses it in proportion to B/A
        frame = frame_with_condition(np.random.default_rng(seed), n, n + extra,
                                     10.0**log_condition)
        frame = Frame(frame.vectors * 10.0**log_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            product = frame.synthesis_matrix @ frame.canonical_dual().analysis_matrix
        error = np.linalg.norm(product - np.eye(n), 2)
        assert error <= 50 * EPS * np.sqrt(frame.condition)

    def test_cold_dual_takes_one_svd_without_vectors(self, monkeypatch):
        real_svd, computes_vectors = np.linalg.svd, []

        def recording_svd(a, *args, **kwargs):
            computes_vectors.append(kwargs.get("compute_uv", True))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        Frame(random_complex(np.random.default_rng(28), 9, 4)).canonical_dual()
        assert computes_vectors == [False]

    def test_perfect_reconstruction_both_ways(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(n, n + 6))
            frame = random_frame(rng, n, k)
            dual = frame.canonical_dual()
            f = random_complex(rng, n)
            scale = np.linalg.norm(f)
            back1 = frame.synthesize(dual.analyze(f))
            back2 = dual.synthesize(frame.analyze(f))
            assert np.linalg.norm(back1 - f) <= 1e-10 * scale
            assert np.linalg.norm(back2 - f) <= 1e-10 * scale


class TestSpectralLayers:
    """The QR's triangular factor R, its singular values and the QR's Q."""

    @pytest.mark.parametrize("condition", [1.0, 1e6, 1e10], ids=lambda c: f"BA{c:g}")
    @pytest.mark.parametrize("k", [11, 12, 24, 96], ids=["K=n-1", "K=n", "K=2n", "K=8n"])
    def test_factors_match_a_direct_svd(self, k, condition):
        n = 12
        m = min(k, n)
        rng = np.random.default_rng(24)
        # analysis matrix with orthonormal singular vectors and s^2 from 1 to condition
        left = random_unitary(rng, k)[:, :m]
        right = random_unitary(rng, n)[:, :m]
        c = (left * np.sqrt(condition ** np.linspace(0.0, 1.0, m))[::-1]) @ right.conj().T
        frame = Frame(c.conj())
        s = frame.singular_values
        q, (e, unit) = frame._orthonormal_factor, frame._triangular_factor
        r = 2.0**e * unit
        s_ref = np.linalg.svd(c, compute_uv=False)
        assert np.max(np.abs(s - s_ref)) <= 1e-14 * s_ref[0]
        assert np.linalg.norm(q.conj().T @ q - np.eye(m)) <= 1e-13
        assert np.array_equal(r, np.linalg.qr(c, mode="reduced")[1])
        assert np.linalg.norm(q @ r - c) <= 1e-13 * np.linalg.norm(c)

    def test_reading_bounds_forms_no_left_factor(self, psi0, monkeypatch):
        # only R's singular values: neither singular vectors nor the QR's Q
        real_svd, computes_vectors = np.linalg.svd, []

        def recording_svd(a, *args, **kwargs):
            computes_vectors.append(kwargs.get("compute_uv", True))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        psi0.bounds, psi0.is_frame, psi0.condition, psi0.classification
        assert computes_vectors == [False]
        assert "singular_values" in psi0.__dict__
        assert "_orthonormal_factor" not in psi0.__dict__

    def test_one_set_of_singular_values(self):
        # a cutoff-path solve reads the frame's cached s and R, and computes neither again
        rng = np.random.default_rng(25)
        frame = random_frame(rng, 5, 13)
        s, factor = frame.singular_values, frame._triangular_factor
        solve(conditioned_operator(rng, 5), random_complex(rng, 5), frame,
              SolveOptions(section_size=7))
        assert frame.singular_values is s and frame._triangular_factor is factor
        e, unit = factor
        r = 2.0**e * unit
        assert np.array_equal(r, np.linalg.qr(frame.analysis_matrix, mode="r"))
        assert np.max(np.abs(np.linalg.svd(r, compute_uv=False) - s)) <= 1e-14 * s[0]


class TestScreen:
    """The cached one-sided screen on the bounds, a least A and a most B computed
    from the eigenvalues of S, and the answer ``Frame._condition_below(t)`` gives
    from it or from the singular values."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 12),
        extra=st.integers(0, 40),
        log_condition=st.floats(0.0, 12.0),
        exponent=st.sampled_from([0, 300, -300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_encloses_the_exact_layers_bounds(self, n, extra, log_condition, exponent, seed):
        rng = np.random.default_rng(seed)
        vectors = frame_with_condition(rng, n, n + extra, 10.0**log_condition).vectors
        frame = Frame(vectors * 2.0**exponent)
        a, b = frame._bounds_enclosure
        s = frame.singular_values
        assert a <= float(s[-1]) ** 2
        assert float(s[0]) ** 2 <= b

    def test_true_implies_condition_below(self):
        answers = set()

        @settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @given(
            n=st.integers(1, 12),
            extra=st.integers(0, 40),
            log_condition=st.floats(0.0, 12.0),
            exponent=st.sampled_from([0, 300, -300]),
            t=st.one_of(st.just(CONDITION_WARN_RATIO), st.floats(1.0, CONDITION_WARN_RATIO)),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(n, extra, log_condition, exponent, t, seed):
            rng = np.random.default_rng(seed)
            vectors = frame_with_condition(rng, n, n + extra, 10.0**log_condition).vectors
            frame = Frame(vectors * 2.0**exponent)
            proven = frame._condition_below(t)
            assert "singular_values" not in frame.__dict__
            if proven:
                assert frame.condition < t
            answers.add(proven)

        check()
        assert answers == {True, False}

    def test_exact_on_a_frame_holding_its_singular_values(self):
        # the answer is the exact layer's, also 1e-12 from the condition and where
        # the screen has no domain, and no frame operator is formed for it
        rng = np.random.default_rng(33)
        answers = set()
        for vectors in (frame_with_condition(rng, 4, 9, 10.0).vectors,
                        frame_with_condition(rng, 3, 5, 1e7).vectors,
                        frame_with_condition(rng, 3, 5, 1e12).vectors,  # no frame
                        frame_with_condition(rng, 2, 3, 3.0).vectors * 1e160,  # S overflows
                        random_complex(rng, 2, 3)):  # K < n
            frame = Frame(vectors)
            frame.singular_values
            for t in (frame.condition * (1 - 1e-12), frame.condition * (1 + 1e-12),
                      CONDITION_WARN_RATIO, np.inf):
                answer = frame._condition_below(t)
                assert answer == (frame.is_frame and frame.condition < t), t
                answers.add(answer)
            assert "frame_operator" not in frame.__dict__
        assert answers == {True, False}

    def test_trivial_outside_its_domain(self):
        rng = np.random.default_rng(31)
        vectors = random_complex(rng, 6, 3)

        def outside(frame):
            return (frame._bounds_enclosure == (-np.inf, np.inf)
                    and not frame._condition_below(CONDITION_WARN_RATIO))

        # K < n: A = 0, and the frame check refuses the enclosure's a <= 0
        k_below_n = Frame(vectors[:2])
        assert k_below_n._bounds_enclosure[0] <= 0
        assert not k_below_n._condition_below(CONDITION_WARN_RATIO)
        assert outside(Frame(vectors * 1e160))  # S overflows
        # tr S outside [2^-800, 2^800], S itself finite
        for exponent in (410, -410):
            frame = Frame(vectors * 2.0**exponent)
            assert np.isfinite(frame.frame_operator).all()
            assert outside(frame)
        assert Frame(vectors * 2.0**390)._condition_below(CONDITION_WARN_RATIO)

    @pytest.mark.parametrize("t", [1.0, 0.75, np.nan])
    def test_refuses_a_threshold_not_above_one_unread(self, t):
        # B/A >= 1 for every family: no frame operator and no QR to refuse t <= 1 or NaN
        frame = frame_with_condition(np.random.default_rng(34), 4, 9, 1.0)
        assert not frame._condition_below(t)
        assert "frame_operator" not in frame.__dict__
        assert "_triangular_factor" not in frame.__dict__

    def test_decides_and_never_reports(self):
        # a screened solve leaves the bounds to the exact layer: the same bits
        rng = np.random.default_rng(32)
        vectors = random_complex(rng, 40, 6)
        screened, fresh = Frame(vectors), Frame(vectors)
        solve(conditioned_operator(rng, 6), random_complex(rng, 6), screened)
        assert "singular_values" not in screened.__dict__
        assert screened.bounds == fresh.bounds
        assert screened.condition == fresh.condition


class TestGram:
    def test_psi0_golden(self, psi0):
        expected = [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
        assert np.allclose(gram(psi0, psi0), expected, atol=1e-15)

    def test_onb_identity(self, onb2):
        assert np.allclose(gram(onb2, onb2), np.eye(2), atol=1e-15)

    def test_orientation(self):
        # gram(psi, phi)[j, m] = <phi_m, psi_j>
        psi = Frame([[1j, 0]])
        phi = Frame([[1, 0], [0, 1]])
        g = gram(psi, phi)
        assert g.shape == (1, 2)
        assert np.allclose(g, [[-1j, 0]], atol=1e-15)

    def test_projection_idempotent(self, psi0):
        g = gram(psi0, psi0.canonical_dual())
        assert np.linalg.norm(g @ g - g, "fro") <= 1e-9

    def test_norm_bound(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            psi = random_frame(rng, n, int(rng.integers(n, n + 5)))
            phi = random_frame(rng, n, int(rng.integers(n, n + 5)))
            bound = np.sqrt(psi.bounds.upper * phi.bounds.upper)
            assert operator_norm(gram(psi, phi)) <= bound * (1 + 1e-12)

    def test_space_mismatch(self, psi0):
        with pytest.raises(DimensionMismatch):
            gram(psi0, Frame(np.eye(3)))


class TestClassification:
    def test_psi0_is_plain_frame(self, psi0):
        assert psi0.classification is FrameClass.FRAME

    def test_mercedes_is_tight(self, mercedes):
        assert mercedes.classification is FrameClass.TIGHT_FRAME

    def test_onb(self, onb2):
        assert onb2.classification is FrameClass.ORTHONORMAL_BASIS

    def test_scaled_mercedes_is_parseval(self, mercedes):
        parseval = Frame(mercedes.vectors * np.sqrt(2 / 3))
        assert parseval.classification is FrameClass.PARSEVAL_FRAME

    def test_riesz_basis(self):
        frame = Frame([[1, 0], [1, 1]])
        assert frame.classification is FrameClass.RIESZ_BASIS

    def test_bessel_only(self):
        assert Frame([[1, 0], [2, 0]]).classification is FrameClass.BESSEL_ONLY

    def test_standard_basis_factory(self):
        assert Frame(np.eye(4)).classification is FrameClass.ORTHONORMAL_BASIS

    @pytest.mark.parametrize("t", [1e-300, 1e-200, 1e200, 1e300])
    def test_scaled_orthonormal_basis_stays_tight(self, t):
        # s^2 - 1 is +inf or -1 in every entry, so its norm must stay scale-safe
        assert Frame(np.eye(3) * t).classification is FrameClass.TIGHT_FRAME

    @pytest.mark.parametrize("squares, label", [
        # tight and Parseval within TIGHT_RTOL, though |s^2 - 1|_2 = 2.0e-9
        ((1 - 0.9e-9, 1 - 1.8e-9), FrameClass.ORTHONORMAL_BASIS),
        # |s^2 - 1|_2 = 9.9e-10, but the tight gap 1 - A/B is 1.4e-9
        ((1 + 7e-10, 1 - 7e-10), FrameClass.RIESZ_BASIS),
    ], ids=["parseval_square", "not_tight"])
    def test_near_isometry_label_is_the_ladders(self, squares, label):
        unitary = np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)
        assert Frame(np.diag(np.sqrt(squares)) @ unitary).classification is label

    def test_labels_nest_near_an_isometry(self):
        labels = set()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(
            n=st.integers(1, 5),
            extra=st.integers(0, 3),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(n, extra, seed):
            rng = np.random.default_rng(seed)
            k = n + extra
            squares = 1.0 + rng.uniform(-3e-9, 3e-9, n)
            isometry = random_unitary(rng, k)[:, :n]
            frame = Frame((isometry * np.sqrt(squares)) @ random_unitary(rng, n))
            label = frame.classification
            if k == n:
                assert label is not FrameClass.PARSEVAL_FRAME
            if label is FrameClass.ORTHONORMAL_BASIS:
                s = frame.singular_values
                assert 1.0 - float(s[-1] / s[0]) ** 2 <= TIGHT_RTOL
                assert abs(frame.bounds.upper - 1.0) <= TIGHT_RTOL
            labels.add(label)

        check()
        assert FrameClass.ORTHONORMAL_BASIS in labels and FrameClass.RIESZ_BASIS in labels

    def test_random_independent_square_family_is_riesz(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            basis = random_riesz_basis(rng, int(rng.integers(2, 7)))
            assert basis.classification is FrameClass.RIESZ_BASIS
            assert biorthogonal(basis, basis.canonical_dual())


class TestAllclose:
    def test_same_and_different(self, psi0, mercedes):
        assert psi0.allclose(Frame(psi0.vectors * (1 + 1e-12)))
        assert not psi0.allclose(Frame(psi0.vectors * (1 + 1e-6)))
        assert not psi0.allclose(mercedes)
        assert not psi0.allclose(Frame(np.eye(2)))

    @pytest.mark.parametrize("t", [1e-300, 1e-170, 1e170, 1e300])
    def test_beyond_squaring_range(self, t):
        rng = np.random.default_rng(25)
        a, b = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        assert Frame(a * t).allclose(Frame(a * t * (1 + 1e-12)))
        assert not Frame(a * t).allclose(Frame(b * t))

    @pytest.mark.parametrize("a, b, close", [
        (np.full((4, 1), 1e308), np.full((4, 1), 0.5e308), False),
        (np.full((4, 1), 1e308), np.full((4, 1), -1e308), False),
        (np.full((4, 1), 1e308), np.full((4, 1), 1e308 * (1 + 1e-12)), True),
        (np.full((4, 1), 1.7e308 + 1.7e308j), np.full((4, 1), 1.7e308 - 1.7e308j), False),
        (np.full((4, 1), 1.7e308 + 1.7e308j), np.full((4, 1), (1.7e308 + 1.7e308j) * (1 - 1e-12)),
         True),
        (np.full((2, 1), 5e-324), np.full((2, 1), 1e-323), False),
        (np.zeros((3, 2)), np.zeros((3, 2)), True),
    ], ids=["half", "opposite", "perturbed", "complex_conjugate", "complex_perturbed",
            "subnormal", "zero"])
    def test_near_float_range(self, a, b, close):
        # the norms of these frames leave the float range; their entries do not
        assert Frame(a).allclose(Frame(b)) is close
        assert Frame(b).allclose(Frame(a)) is close


class TestDecompositionFailure:
    def test_frame_svd_non_convergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(DecompositionFailed, match="frame analysis matrix"):
            Frame([[1, 0], [0, 1], [1, 1]]).bounds

    def test_dual_inversion_failure(self, psi0, monkeypatch):
        psi0.bounds  # the frame's own SVD succeeds; the inversion of R fails

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(DecompositionFailed, match="inverse of the frame's triangular factor"):
            psi0.canonical_dual()


class TestBiorthogonal:
    def test_riesz_with_dual(self):
        basis = Frame([[1, 0], [1, 1]])
        assert biorthogonal(basis, basis.canonical_dual())

    def test_redundant_frame_never(self, psi0):
        assert not biorthogonal(psi0, psi0.canonical_dual())

    def test_onb_with_itself(self, onb2):
        assert biorthogonal(onb2, onb2)

    def test_redundant_frame_forms_no_gram(self):
        # K > n: the K x K Gram has rank n, so it is not formed, and one that
        # would overflow is no error
        frame = Frame([[1e160, 0], [0, 1e160], [1e160, 1e160]])
        assert not biorthogonal(frame, frame)
        basis = Frame([[1e160, 0], [0, 1e160]])
        with pytest.raises(FrameRepError, match="Gram matrix"):
            biorthogonal(basis, basis)

    def test_count_mismatch(self, psi0, onb2):
        with pytest.raises(DimensionMismatch,
                           match=re.escape("vectors of phi must have shape (3, 2), got (2, 2)")):
            biorthogonal(psi0, onb2)

    def test_space_mismatch_is_named_first(self, psi0):
        # counts differ too; the one shape message names both shapes
        with pytest.raises(DimensionMismatch,
                           match=re.escape("vectors of phi must have shape (3, 2), got (4, 4)")):
            biorthogonal(psi0, Frame(np.eye(4)))
