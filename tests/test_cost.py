"""The cost contract: which LAPACK decompositions each entry point runs, cold and warm.

Every ``np.linalg`` decomposition the package calls is recorded by patching,
with the shape of its matrix written in the symbols K, N and n, the ``qr``
mode and, for ``svd``, whether singular vectors are computed.  A cold frame
has read nothing; a warm one has already answered the same call once.
"""

import numpy as np
import pytest

from framerep import Frame, LinearOperator, SolveOptions, project_onto_analysis_range, solve
from helpers import conditioned_operator, random_complex

N_SPACE, K, N = 5, 17, 8
SYMBOLS = {N_SPACE: "n", K: "K", N: "N"}

#: Every decomposition numpy offers that an entry point might reach for.
DECOMPOSITIONS = ("qr", "svd", "solve", "inv", "pinv", "lstsq", "eig", "eigh", "eigvals",
                  "eigvalsh", "cholesky", "det", "slogdet")

FRAME_QR = "qr Kxn r"
R_VALUES = "svd nxn values"
CLOSED_FORM = "solve nxn"
R_INVERSE = "inv nxn"
X_SVD = "svd nxn vectors"

#: (entry point, cold calls, warm calls).  The K x n Q of a reduced QR of C is
#: the dual's and the projector's alone: no solve row holds "qr Kxn reduced".
TABLE = {
    "bounds": ([FRAME_QR, R_VALUES], []),
    "canonical_dual": ([FRAME_QR, R_VALUES, "qr Kxn reduced", R_INVERSE], []),
    "project_onto_analysis_range": ([FRAME_QR, R_VALUES, "qr Kxn reduced"], []),
    "solve closed form": ([FRAME_QR, R_VALUES, CLOSED_FORM], [CLOSED_FORM]),
    "solve full cutoff": ([FRAME_QR, R_VALUES, CLOSED_FORM, R_INVERSE, X_SVD],
                          [CLOSED_FORM, R_INVERSE, X_SVD]),
    "solve singular operator": ([FRAME_QR, R_VALUES, CLOSED_FORM, R_INVERSE, X_SVD],
                                [CLOSED_FORM, R_INVERSE, X_SVD]),
    "solve section K/2": ([FRAME_QR, R_VALUES, R_INVERSE, "qr Nxn reduced", X_SVD],
                          [R_INVERSE, "qr Nxn reduced", X_SVD]),
}


def _entry_points():
    """Each entry point as a call on a frame, its other inputs drawn before any recording."""
    rng = np.random.default_rng(90)
    op, g = conditioned_operator(rng, N_SPACE), random_complex(rng, N_SPACE)
    c = random_complex(rng, K)
    singular = LinearOperator(np.diag([1.0, 1.0, 1.0, 1.0, 0.0]))
    return {
        "bounds": lambda frame: frame.bounds,
        "canonical_dual": Frame.canonical_dual,
        "project_onto_analysis_range": lambda frame: project_onto_analysis_range(frame, c),
        "solve closed form": lambda frame: solve(op, g, frame),
        # rel_tol * |O|_F |O^-1|_F >= 0.5 n > 1 fails the closed form's guard
        "solve full cutoff": lambda frame: solve(op, g, frame, SolveOptions(rel_tol=0.5)),
        # the LU of a singular O fails, so the closed form's attempt gives way to the cutoff path
        "solve singular operator": lambda frame: solve(singular, g, frame),
        "solve section K/2": lambda frame: solve(op, g, frame, SolveOptions(section_size=N)),
    }


ENTRY_POINTS = _entry_points()


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
    for name in DECOMPOSITIONS:
        real = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _real=real, **kwargs):
            made.append(_describe(_name, a, kwargs))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return made


@pytest.mark.parametrize("entry", TABLE)
def test_decompositions_cold_and_warm(entry, calls):
    cold, warm = TABLE[entry]
    call = ENTRY_POINTS[entry]
    frame = Frame(random_complex(np.random.default_rng(91), K, N_SPACE))
    call(frame)
    assert calls == cold
    calls.clear()
    call(frame)
    assert calls == warm
