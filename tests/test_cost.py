"""The cost contract: which LAPACK decompositions each entry point runs, and its peak memory.

Every ``np.linalg`` decomposition the package calls is recorded by patching,
with the shape of its matrix written in the symbols K, N and n, the ``qr``
mode and, for ``svd``, whether singular vectors are computed.  A cold frame
has read nothing; a warm one has already answered the same call once.  The
peak memory of each entry point whose result is not K x K is traced at
K >> n, where a K x K intermediate would dwarf everything else.
"""

import tracemalloc

import numpy as np
import pytest

from framerep import (DimensionMismatch, Frame, LinearOperator, Representation, SectionTooLarge,
                      SolveOptions, biorthogonal, frame_multiplier, gram,
                      kernel_of_representation, matrix_of_operator, operator_from_images,
                      operator_norm, operator_of_matrix, project_onto_analysis_range,
                      range_map_check, roundtrip_reconstruct, solve)
from helpers import conditioned_operator, random_complex

N_SPACE, K, N = 5, 17, 8
SYMBOLS = {N_SPACE: "n", K: "K", N: "N", 2 * N_SPACE: "2n"}

#: Every decomposition numpy offers that an entry point might reach for.
DECOMPOSITIONS = ("qr", "svd", "solve", "inv", "pinv", "lstsq", "eig", "eigh", "eigvals",
                  "eigvalsh", "cholesky", "det", "slogdet")

R_ONLY_QR = "qr Kxn r"
FRAME_QR = "qr Kxn reduced"
R_VALUES = "svd nxn values"
SCREEN = "eigvalsh nxn"
CLOSED_FORM = "solve nxn"
R_INVERSE = "inv nxn"
X_SVD = "svd nxn vectors"
SECTION_QR = "qr Nxn reduced"
#: A cold canonical dual: one QR of C gives Q and R, and R is inverted once.
DUAL = [FRAME_QR, R_VALUES, R_INVERSE]

#: (entry point, cold calls, warm calls).  The K x n Q of a reduced QR of C is
#: the dual's and the projector's alone: no solve row holds "qr Kxn reduced".
#: A full-system solve takes O's LU first; a cold frame's screen then decides
#: the closed form without R.  A singular O, or a guard that fails even at
#: B/A = 1, skips the screen.
TABLE = {
    "bounds": ([R_ONLY_QR, R_VALUES], []),
    "classification": ([R_ONLY_QR, R_VALUES], []),
    "canonical_dual": (DUAL, []),
    "project_onto_analysis_range": ([FRAME_QR, R_VALUES], []),
    "solve closed form": ([CLOSED_FORM, SCREEN], [CLOSED_FORM]),
    "solve full cutoff": ([CLOSED_FORM, R_ONLY_QR, R_VALUES, R_INVERSE, X_SVD],
                          [CLOSED_FORM, X_SVD]),
    "solve guard fails on the screen": ([CLOSED_FORM, SCREEN, R_ONLY_QR, R_VALUES, R_INVERSE,
                                         X_SVD], [CLOSED_FORM, X_SVD]),
    "solve singular operator": ([CLOSED_FORM, R_ONLY_QR, R_VALUES, R_INVERSE, X_SVD],
                                [CLOSED_FORM, X_SVD]),
    "solve section K/2": ([R_ONLY_QR, R_VALUES, R_INVERSE, SECTION_QR, X_SVD],
                          [SECTION_QR, X_SVD]),
    "gram": ([], []),
    "biorthogonal": ([], []),
    "matrix_of_operator": ([], []),
    "operator_of_matrix": ([], []),
    "kernel_of_representation": ([], []),
    "frame_multiplier": ([], []),
    "Representation.compose": (DUAL, []),
    "roundtrip_reconstruct": (DUAL, []),
    "range_map_check": (DUAL, []),
    "operator_from_images": (DUAL, []),
    "operator_from_images diagnose": (DUAL, []),
    "operator_norm": (["svd Kxn values"], ["svd Kxn values"]),
}

#: (first entry point, second entry point, every call the two make on a cold frame).
ORDERS = {
    # R read first comes from a QR without Q, so Q takes a second QR
    "bounds, then canonical_dual": ("bounds", "canonical_dual",
                                    [R_ONLY_QR, R_VALUES, FRAME_QR, R_INVERSE]),
    # the dual and the cutoff path share the frame's one inverse of R
    "canonical_dual, then solve full cutoff": ("canonical_dual", "solve full cutoff",
                                               DUAL + [CLOSED_FORM, X_SVD]),
    # cached singular values decide the closed form: no screen
    "bounds, then solve closed form": ("bounds", "solve closed form",
                                       [R_ONLY_QR, R_VALUES, CLOSED_FORM]),
    # the screen decides and never reports: bounds still take the QR and SVD
    "solve closed form, then bounds": ("solve closed form", "bounds",
                                       [CLOSED_FORM, SCREEN, R_ONLY_QR, R_VALUES]),
}

#: Entry points whose result is K x K: no peak-memory bound below K^2 holds.
#: ``biorthogonal`` is not among them: for K > n it forms no Gram matrix.
K_BY_K = {"gram", "matrix_of_operator", "Representation.compose"}

#: A cold call's traced peak, in units of ``K n + n^2`` complex numbers, stays
#: below this at n = 16, K = 1024, where a K x K array alone is 63 units and
#: an (K/2) x (K/2) one 16.  The worst were 7.9 (``operator_of_matrix``: the
#: finiteness check of its K x K input allocates 2 K^2 bytes) and 7.0
#: (``operator_from_images diagnose``).
PEAK_UNITS = 12


def _entry_points(vectors, n_section):
    """Each entry point as a call on a frame of ``vectors``, its other inputs drawn first."""
    k, n = vectors.shape
    rng = np.random.default_rng(90)
    op, g = conditioned_operator(rng, n), random_complex(rng, n)
    c, weights, images = random_complex(rng, k), random_complex(rng, k), random_complex(rng, k, n)
    coefficients = random_complex(rng, k, k)
    singular = LinearOperator(np.diag(np.r_[np.ones(n - 1), 0.0]))
    norms = np.linalg.norm(op.matrix) * np.linalg.norm(np.linalg.inv(op.matrix))
    screen_tol = 1.0 / (norms * np.sqrt(Frame(vectors).condition))
    # equal to the canonical dual, but not the same object: compose compares them
    dual = Frame(Frame(vectors).canonical_dual().vectors)
    return {
        "bounds": lambda frame: frame.bounds,
        "classification": lambda frame: frame.classification,
        "canonical_dual": Frame.canonical_dual,
        "project_onto_analysis_range": lambda frame: project_onto_analysis_range(frame, c),
        "solve closed form": lambda frame: solve(op, g, frame),
        # rel_tol * |O|_F |O^-1|_F >= 0.5 n > 1 fails the closed form's guard at any B/A
        "solve full cutoff": lambda frame: solve(op, g, frame, SolveOptions(rel_tol=0.5)),
        # the guard holds at B/A = 1 and fails at the frame's B/A: the screen decides
        "solve guard fails on the screen": lambda frame: solve(op, g, frame,
                                                               SolveOptions(rel_tol=screen_tol)),
        # the LU of a singular O fails, so the closed form's attempt gives way to the cutoff path
        "solve singular operator": lambda frame: solve(singular, g, frame),
        "solve section K/2": lambda frame: solve(op, g, frame,
                                                 SolveOptions(section_size=n_section)),
        "gram": lambda frame: gram(frame, frame),
        "biorthogonal": lambda frame: biorthogonal(frame, frame),
        "matrix_of_operator": lambda frame: matrix_of_operator(op, frame, frame),
        "operator_of_matrix": lambda frame: operator_of_matrix(coefficients, frame, frame),
        "kernel_of_representation": lambda frame: kernel_of_representation(coefficients, frame,
                                                                           frame),
        "frame_multiplier": lambda frame: frame_multiplier(weights, frame, frame),
        "Representation.compose": lambda frame: Representation(coefficients, frame, frame).compose(
            Representation(coefficients, dual, frame)),
        "roundtrip_reconstruct": lambda frame: roundtrip_reconstruct(op, frame, frame),
        "range_map_check": lambda frame: range_map_check(op, frame, frame, g),
        "operator_from_images": lambda frame: operator_from_images(frame, images),
        "operator_from_images diagnose": lambda frame: operator_from_images(frame, images,
                                                                            diagnose=True),
        "operator_norm": lambda frame: operator_norm(frame.analysis_matrix),
    }


VECTORS = random_complex(np.random.default_rng(91), K, N_SPACE)
ENTRY_POINTS = _entry_points(VECTORS, N)


def _shape(a) -> str:
    return "x".join(SYMBOLS.get(size, str(size)) for size in np.shape(a))


def _describe(name, a, kwargs) -> str:
    words = [name, _shape(a)]
    if name == "qr":
        words.append(kwargs.get("mode", "reduced"))
    elif name == "svd":
        words.append("vectors" if kwargs.get("compute_uv", True) else "values")
    return " ".join(words)


@pytest.fixture
def calls(monkeypatch):
    """The list of decompositions made, one description each, in call order."""
    made = []
    # a numpy function such as norm(a, 2) reaches a decomposition through the
    # globals of numpy's implementation module; no package code calls one, and
    # patching there too records it if one ever does
    internal = np.linalg.norm.__wrapped__.__globals__
    for name in DECOMPOSITIONS:
        real = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _real=real, **kwargs):
            made.append(_describe(_name, a, kwargs))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
        monkeypatch.setitem(internal, name, recording)
    return made


def test_table_covers_every_entry_point():
    assert TABLE.keys() == ENTRY_POINTS.keys()


@pytest.mark.parametrize("entry", TABLE)
def test_decompositions_cold_and_warm(entry, calls):
    cold, warm = TABLE[entry]
    call = ENTRY_POINTS[entry]
    frame = Frame(VECTORS)
    call(frame)
    assert calls == cold
    calls.clear()
    call(frame)
    assert calls == warm


@pytest.mark.parametrize("order", ORDERS)
def test_decompositions_in_order(order, calls):
    first, second, made = ORDERS[order]
    frame = Frame(VECTORS)
    ENTRY_POINTS[first](frame)
    ENTRY_POINTS[second](frame)
    assert calls == made


@pytest.mark.parametrize("op_shape, section_size, error", [
    ((N_SPACE, N_SPACE - 1), None, DimensionMismatch),
    ((N_SPACE + 1, N_SPACE), None, DimensionMismatch),
    ((N_SPACE, N_SPACE), K + 1, SectionTooLarge),
], ids=["operator_nx(n-1)", "operator_(n+1)xn", "section_K+1"])
def test_input_errors_run_no_decomposition(op_shape, section_size, error, calls):
    rng = np.random.default_rng(93)
    op, g = LinearOperator(random_complex(rng, *op_shape)), random_complex(rng, N_SPACE)
    with pytest.raises(error):
        solve(op, g, Frame(VECTORS), SolveOptions(section_size=section_size))
    assert calls == []


def test_peak_memory_at_many_vectors():
    n, k = 16, 1024
    vectors = random_complex(np.random.default_rng(92), k, n)
    unit = (k * n + n * n) * 16
    peaks = {}
    for entry, call in _entry_points(vectors, k // 2).items():
        if entry in K_BY_K:
            continue
        frame = Frame(vectors)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call(frame)
            peaks[entry] = (tracemalloc.get_traced_memory()[1] - before) / unit
        finally:
            tracemalloc.stop()
    assert len(peaks) == len(TABLE) - len(K_BY_K)
    assert {entry: peak for entry, peak in peaks.items() if peak >= PEAK_UNITS} == {}
