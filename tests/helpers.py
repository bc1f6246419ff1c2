"""Shared helpers for the test suite: seeded random generators, the solver's
explicit oracle and subprocess runners."""

import importlib
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from framerep import Frame, LinearOperator

#: The package source, put on the child's PYTHONPATH by absolute path so the
#: CLI imports it whatever the child's working directory.
SRC = Path(__file__).resolve().parents[1] / "src"


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_frame(rng, n, k, max_condition=1e6):
    """A random spanning family of k >= n Gaussian vectors in C^n."""
    assert k >= n
    while True:
        frame = Frame(random_complex(rng, k, n))
        if frame.is_frame and frame.condition <= max_condition:
            return frame


def frame_with_condition(rng, n, k, condition):
    """A random frame of k >= n vectors in C^n with bounds exactly (1, condition)."""
    q, _ = np.linalg.qr(random_complex(rng, k, n))
    sigma = np.sqrt(condition ** np.linspace(0.0, 1.0, n))
    return Frame((q * sigma) @ random_unitary(rng, n).conj().T)


def rank_one_expansion(m, phi, psi):
    """``sum_{k,j} m[k, j] * phi_k psi_j*`` summed term by term, the kernel's definition."""
    return sum(
        m[k, j] * np.outer(phi.vectors[k], psi.vectors[j].conj())
        for k in range(phi.count)
        for j in range(psi.count)
    )


#: Memory layouts :func:`imaginary_nan` builds, none with a contiguous last axis.
LAYOUTS = ("transposed", "fortran", "strided")


def imaginary_nan(rows, cols, layout):
    """A ``rows x cols`` complex array whose only NaN is the imaginary part of its last entry.

    ``layout`` (one of :data:`LAYOUTS`) picks a transpose, a Fortran-order
    copy or every second column of a wider array; the strided one also holds
    NaN in the columns it skips.
    """
    a = np.ones((rows, cols), dtype=np.complex128)
    a[-1, -1] = complex(1.0, np.nan)
    if layout == "transposed":
        return np.ascontiguousarray(a.T).T
    if layout == "fortran":
        return np.asfortranarray(a)
    wide = np.full((rows, 2 * cols), complex(np.nan, np.nan))
    wide[:, ::2] = a
    return wide[:, ::2]


def random_riesz_basis(rng, n, max_condition=1e6):
    return random_frame(rng, n, n, max_condition)


def random_operator(rng, dim_out, dim_in):
    return LinearOperator(random_complex(rng, dim_out, dim_in))


def conditioned_operator(rng, n, max_condition=1e2):
    """Random invertible operator on C^n with singular values in [1, max_condition]."""
    q1, _ = np.linalg.qr(random_complex(rng, n, n))
    q2, _ = np.linalg.qr(random_complex(rng, n, n))
    s = np.exp(rng.uniform(0.0, np.log(max_condition), n))
    return LinearOperator((q1 * s) @ q2.conj().T)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def explicit_system(op, frame):
    """The K x K coefficient system ``M = C O D_dual`` of ``O f = g``, formed explicitly."""
    return frame.analysis_matrix @ op.matrix @ frame.canonical_dual().synthesis_matrix


def pseudoinverse(a, rel_tol=None):
    """Moore-Penrose pseudoinverse through numpy's SVD, the solver's oracle.

    Singular values ``<= rel_tol * s_max`` count as zero; the default
    ``rel_tol`` is ``max(rows, cols) * eps``.
    """
    if rel_tol is None:
        rel_tol = max(a.shape) * np.finfo(np.float64).eps
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > rel_tol * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (vh.conj().T * inv_s) @ u.conj().T


@contextmanager
def cutoff_solves():
    """A list that gains one entry for each solve in the block that takes the cutoff path.

    A solve that leaves it empty took the closed form.
    """
    module = importlib.import_module("framerep.solve")
    real, runs = module._solve_with_cutoff, []

    def recording(*args):
        runs.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_solve_with_cutoff", recording)
        yield runs


def no_convergence(*args, **kwargs):
    """Stand-in for ``np.linalg.svd`` that fails as LAPACK does on non-convergence."""
    raise np.linalg.LinAlgError("SVD did not converge")


def run_cli(args, cwd=None, env_extra=None):
    """Run the installed CLI in a subprocess and capture its output."""
    return run_python(["-m", "framerep", *args], cwd=cwd, env_extra=env_extra)


def run_python(args, cwd=None, env_extra=None):
    """Run ``python args`` in a subprocess that imports the package from SRC."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
