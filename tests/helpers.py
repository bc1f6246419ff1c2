"""Shared helpers for the test suite: seeded random generators and a CLI runner."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def no_convergence(*args, **kwargs):
    """Stand-in for ``np.linalg.svd`` that fails as LAPACK does on non-convergence."""
    raise np.linalg.LinAlgError("SVD did not converge")


def run_cli(args, cwd=None, env_extra=None):
    """Run the installed CLI in a subprocess and capture its output."""
    env = os.environ.copy()
    env.pop("FRAMEREP_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "framerep", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
