"""Property tests of the paper's identities over random shapes and conditions.

Each frame is drawn with K >= n vectors in C^n, optimal bounds
``(t^2, t^2 * B/A)`` for a random scale ``t`` and ``B/A <= 1e6``; ``t`` ranges
over 10^±300 for the round trip and the range mapping, 10^±3 elsewhere.  Every
identity is checked to ``TOL * eps`` relative to the scale of its inputs,
times the condition factor through which rounding can grow: ``sqrt(B/A)`` of
each frame whose canonical dual enters the computation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framerep import (
    Frame,
    frame_multiplier,
    frobenius_norm,
    hs_norm,
    kernel_of_representation,
    matrix_of_operator,
    operator_norm,
    operator_of_matrix,
    range_map_check,
    roundtrip_reconstruct,
)
from framerep.linalg import euclidean_norm
from helpers import frame_with_condition, random_complex, random_operator, rank_one_expansion

EPS = np.finfo(np.float64).eps

#: Multiple of eps allowed per unit of input scale and condition factor.
TOL = 1e3

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def frame_specs(max_log_scale: float):
    """(n, K - n, log10(B/A), log10 t) of one frame, with |log10 t| <= max_log_scale."""
    return st.tuples(st.integers(1, 6), st.integers(0, 6), st.floats(0.0, 6.0),
                     st.floats(-max_log_scale, max_log_scale))


frame_spec = frame_specs(3.0)
#: Frame scales across the float range, for the identities that hold at any scale.
wide_frame_spec = frame_specs(300.0)
seeds = st.integers(0, 2**32 - 1)


def make_frame(rng, spec) -> Frame:
    n, extra, log_condition, log_scale = spec
    frame = frame_with_condition(rng, n, n + extra, 10.0**log_condition)
    return Frame(frame.vectors * 10.0**log_scale)


def kappa(*frames) -> float:
    """Product of sqrt(B/A): the growth of rounding through the canonical duals."""
    return float(np.prod([np.sqrt(frame.condition) for frame in frames]))


def upper(*frames) -> float:
    """sqrt of the product of upper bounds: the norm of the frame operators' action."""
    # the largest singular value, since the bound B = s_max^2 overflows beyond 1e154
    return float(np.prod([frame.r_svd[1][0] for frame in frames]))


def lower(*frames) -> float:
    return float(np.prod([np.sqrt(frame.bounds.lower) for frame in frames]))


@SETTINGS
@given(phi_spec=wide_frame_spec, psi_spec=wide_frame_spec, seed=seeds)
def test_roundtrip(phi_spec, psi_spec, seed):
    """O = D_phi C_dual(phi) O D_dual(psi) C_psi."""
    rng = np.random.default_rng(seed)
    phi, psi = make_frame(rng, phi_spec), make_frame(rng, psi_spec)
    op = random_operator(rng, phi.space_dim, psi.space_dim)
    back = roundtrip_reconstruct(op, phi, psi)
    error = frobenius_norm(back.matrix - op.matrix)
    assert error <= TOL * EPS * kappa(phi, psi) * frobenius_norm(op.matrix)


@SETTINGS
@given(phi_spec=frame_spec, xi_spec=frame_spec, psi_spec=frame_spec, seed=seeds)
def test_multiplicativity(phi_spec, xi_spec, psi_spec, seed):
    """rep(O) over (phi, xi) times rep(P) over (dual(xi), psi) is rep(O P) over (phi, psi)."""
    rng = np.random.default_rng(seed)
    phi, xi, psi = (make_frame(rng, spec) for spec in (phi_spec, xi_spec, psi_spec))
    op = random_operator(rng, phi.space_dim, xi.space_dim)
    p = random_operator(rng, xi.space_dim, psi.space_dim)
    product = matrix_of_operator(op, phi, xi) @ matrix_of_operator(p, xi.canonical_dual(), psi)
    direct = matrix_of_operator(op @ p, phi, psi)
    scale = upper(phi, psi) * frobenius_norm(op.matrix) * frobenius_norm(p.matrix)
    assert frobenius_norm(product.matrix - direct.matrix) <= TOL * EPS * kappa(xi) * scale


@SETTINGS
@given(phi_spec=frame_spec, psi_spec=frame_spec, seed=seeds)
def test_norm_bounds(phi_spec, psi_spec, seed):
    """sqrt(A_phi A_psi) |O| <= |C_phi O D_psi| <= sqrt(B_phi B_psi) |O| and
    |D_phi M C_psi| <= sqrt(B_phi B_psi) |M|, in the operator and HS norms."""
    rng = np.random.default_rng(seed)
    phi, psi = make_frame(rng, phi_spec), make_frame(rng, psi_spec)
    op = random_operator(rng, phi.space_dim, psi.space_dim)
    rep = matrix_of_operator(op, phi, psi).matrix
    m = random_complex(rng, phi.count, psi.count)
    induced = operator_of_matrix(m, phi, psi)
    pairs = [
        (operator_norm(rep), operator_norm(op.matrix)),
        (frobenius_norm(rep), hs_norm(op)),
    ]
    for rep_norm, op_norm in pairs:
        slack = TOL * EPS * upper(phi, psi) * op_norm
        assert rep_norm <= upper(phi, psi) * op_norm + slack
        assert rep_norm >= lower(phi, psi) * op_norm - slack
    for induced_norm, m_norm in [
        (operator_norm(induced.matrix), operator_norm(m)),
        (hs_norm(induced), frobenius_norm(m)),
    ]:
        assert induced_norm <= upper(phi, psi) * m_norm * (1 + TOL * EPS)


@SETTINGS
@given(phi_spec=wide_frame_spec, psi_spec=wide_frame_spec, seed=seeds)
def test_range_mapping(phi_spec, psi_spec, seed):
    """rep(O) over (phi, dual(psi)) sends C_psi f to C_phi O f."""
    rng = np.random.default_rng(seed)
    phi, psi = make_frame(rng, phi_spec), make_frame(rng, psi_spec)
    op = random_operator(rng, phi.space_dim, psi.space_dim)
    f = random_complex(rng, psi.space_dim)
    lhs, rhs = range_map_check(op, phi, psi, f)
    scale = upper(phi) * frobenius_norm(op.matrix) * euclidean_norm(f)
    assert euclidean_norm(lhs - rhs) <= TOL * EPS * kappa(psi) * scale


@SETTINGS
@given(phi_spec=frame_spec, psi_spec=frame_spec, seed=seeds)
def test_kernel_reconstruction(phi_spec, psi_spec, seed):
    """The kernel is the rank-one expansion of M, and of rep(O) over the duals it is O."""
    rng = np.random.default_rng(seed)
    phi, psi = make_frame(rng, phi_spec), make_frame(rng, psi_spec)
    m = random_complex(rng, phi.count, psi.count)
    kernel = kernel_of_representation(m, phi, psi)
    phi_norms = np.linalg.norm(phi.vectors, axis=1)
    psi_norms = np.linalg.norm(psi.vectors, axis=1)
    scale = phi_norms @ np.abs(m) @ psi_norms
    assert frobenius_norm(kernel - rank_one_expansion(m, phi, psi)) <= TOL * EPS * scale

    op = random_operator(rng, phi.space_dim, psi.space_dim)
    rep = matrix_of_operator(op, phi.canonical_dual(), psi.canonical_dual())
    kernel = kernel_of_representation(rep.matrix, phi, psi)
    error = frobenius_norm(kernel - op.matrix)
    assert error <= TOL * EPS * kappa(phi, psi) * frobenius_norm(op.matrix)


@SETTINGS
@given(phi_spec=frame_spec, dim_in=st.integers(1, 6), seed=seeds)
def test_multipliers(phi_spec, dim_in, seed):
    """diag(w) induces sum_k w_k phi_k psi_k*; unit weights over (phi, dual(phi)) give I."""
    rng = np.random.default_rng(seed)
    phi = make_frame(rng, phi_spec)
    psi = Frame(random_complex(rng, phi.count, dim_in))
    w = random_complex(rng, phi.count)
    expansion = sum(w[k] * np.outer(phi.vectors[k], psi.vectors[k].conj()) for k in range(phi.count))
    scale = np.abs(w) @ (np.linalg.norm(phi.vectors, axis=1) * np.linalg.norm(psi.vectors, axis=1))
    assert frobenius_norm(frame_multiplier(w, phi, psi).matrix - expansion) <= TOL * EPS * scale

    identity = frame_multiplier(np.ones(phi.count), phi, phi.canonical_dual())
    error = frobenius_norm(identity.matrix - np.eye(phi.space_dim))
    assert error <= TOL * EPS * kappa(phi) * np.sqrt(phi.space_dim)
