#!/usr/bin/env python3
"""Solving O f = g by frame discretization.

The equation is equivalent to  M (C f) = C g  with M the representation of O
over (frame, dual): a concrete linear system in coefficient space.  The
solver optionally truncates the system to its leading N x N section and
solves it in least squares without forming M: with the frame's QR C = Q R,
M = Q X Q* for the n x n core X = R O R^-1, so one small SVD with a
relative singular-value cutoff gives the coefficients, which the dual frame
synthesizes into the solution.  When the cutoff provably keeps every singular
value of the full system, that solution is exactly O^-1 g, so it is computed
from one LU factorization of O instead.  Residuals are relative: |O f - g| / |g|
and |M c - C g| / |C g|.
"""

import numpy as np

from framerep import Frame, LinearOperator, SolveOptions, solve

np.set_printoptions(precision=6, suppress=True)
rng = np.random.default_rng(7)

# An exactly solvable warm-up in C^2 over a redundant frame.
psi = Frame([[1, 0], [0, 1], [1, 1]])
op = LinearOperator([[2, 0], [0, 3]])
report = solve(op, [2, 3], psi)
print("diag(2,3) f = (2,3)  ->  f =", report.solution.real)
print("operator residual:", report.residual_operator)
print()

# A singular operator: consistent data solves to machine precision, while
# inconsistent data is reported through a large residual instead of an error.
singular = LinearOperator([[1, 0], [0, 0]])
good = solve(singular, [1, 0], psi)
bad = solve(singular, [0, 1], psi)
print("singular, consistent rhs:   residual =", f"{good.residual_operator:.2e}")
print("singular, inconsistent rhs: residual =", f"{bad.residual_operator:.2e}")
print()

# Finite sections: a redundant frame of C^6 with K = 18 vectors gives an
# 18 x 18 coefficient system; truncating it keeps only the leading N
# coefficients.  Sections smaller than the space dimension cannot span the
# solution and leave a real residual; once N of the leading frame vectors
# span C^6 (here any N >= 6) the truncated solve is already exact, which is
# the finite-dimensional shadow of section convergence.
n, k = 6, 18
frame = Frame(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
a = rng.standard_normal((n, n)) + np.eye(n) * 3.0
well_conditioned = LinearOperator(a)
g = rng.standard_normal(n) + 1j * rng.standard_normal(n)

print(" N   matrix residual   operator residual")
for section in (2, 3, 4, 5, 6, 18):
    r = solve(well_conditioned, g, frame, SolveOptions(section_size=section))
    print(f"{section:2d}   {r.residual_matrix:.3e}        {r.residual_operator:.3e}")
