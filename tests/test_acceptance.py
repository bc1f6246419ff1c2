"""Acceptance suite: one test per release criterion, each printing a verdict.

Every criterion runs at its stated tolerance against seeded random instances,
so the suite is deterministic.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one pass/fail line per criterion.
"""

import json

import numpy as np

from framerep import (
    Frame,
    FrameClass,
    frame_multiplier,
    frobenius_norm,
    gram,
    hs_norm,
    identity_operator,
    kernel_of_representation,
    matrix_of_operator,
    operator_norm,
    operator_of_matrix,
    range_map_check,
    rank_one,
    roundtrip_reconstruct,
    serialize_frame,
    serialize_matrix,
    serialize_vector,
    solve,
)
from helpers import (
    conditioned_operator,
    random_complex,
    random_frame,
    random_operator,
    random_riesz_basis,
    run_cli,
)

PSI0 = Frame([[1, 0], [0, 1], [1, 1]])
MERCEDES = Frame(
    [[0, 1], [-np.sqrt(3) / 2, -0.5], [np.sqrt(3) / 2, -0.5]]
)


def _verdict(number, description, ok):
    print(f"acceptance {number:02d} | {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({description}) failed"


def test_01_golden_frame_values():
    ok = True
    ok &= np.allclose(PSI0.frame_operator, [[2, 1], [1, 2]], atol=1e-12)
    ok &= abs(PSI0.bounds.lower - 1.0) <= 1e-12
    ok &= abs(PSI0.bounds.upper - 3.0) <= 1e-12
    dual_expected = np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3], [1 / 3, 1 / 3]])
    ok &= np.allclose(PSI0.canonical_dual().vectors, dual_expected, atol=1e-12)
    gram_expected = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    ok &= np.allclose(gram(PSI0, PSI0), gram_expected, atol=1e-12)
    ok &= MERCEDES.classification is FrameClass.TIGHT_FRAME
    ok &= abs(MERCEDES.bounds.lower - 1.5) <= 1e-12
    ok &= abs(MERCEDES.bounds.upper - 1.5) <= 1e-12
    _verdict(1, "golden values for the workhorse and tight frames", bool(ok))


def test_02_frame_inequality():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 17))
        k = int(rng.integers(n, 49))
        frame = random_frame(rng, n, k)
        a, b = frame.bounds
        fs = random_complex(rng, n, 100)
        coeff_sq = np.sum(np.abs(frame.analysis_matrix @ fs) ** 2, axis=0)
        norm_sq = np.sum(np.abs(fs) ** 2, axis=0)
        ok &= bool(np.all(coeff_sq >= a * norm_sq * (1 - 1e-10)))
        ok &= bool(np.all(coeff_sq <= b * norm_sq * (1 + 1e-10)))
        _, v = np.linalg.eigh(frame.frame_operator)
        low = np.linalg.norm(frame.analyze(v[:, 0])) ** 2
        high = np.linalg.norm(frame.analyze(v[:, -1])) ** 2
        ok &= abs(low - a) <= 1e-9 * b
        ok &= abs(high - b) <= 1e-9 * b
    _verdict(2, "frame inequality with tightness at extremal eigenvectors", ok)


def test_03_roundtrip_identity():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 8)))
        phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 8)))
        op = random_operator(rng, n2, n1)
        back = roundtrip_reconstruct(op, phi, psi)
        ok &= frobenius_norm(back.matrix - op.matrix) <= 1e-9 * frobenius_norm(op.matrix)
    _verdict(3, "operator recovered from its dual-pair representation", ok)


def test_04_multiplicativity():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(50):
        n1, n2, n3 = (int(rng.integers(1, 7)) for _ in range(3))
        psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 5)))
        phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 5)))
        xi = random_frame(rng, n3, int(rng.integers(n3, n3 + 5)))
        op = random_operator(rng, n2, n3)
        p = random_operator(rng, n3, n1)
        product = matrix_of_operator(op, phi, xi) @ matrix_of_operator(
            p, xi.canonical_dual(), psi
        )
        direct = matrix_of_operator(op @ p, phi, psi)
        scale = frobenius_norm(direct.matrix)
        ok &= frobenius_norm(product.matrix - direct.matrix) <= 1e-9 * scale
    _verdict(4, "composition respected through a third-frame sandwich", ok)


def test_05_riesz_isomorphism():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 17))
        phi = random_riesz_basis(rng, n)
        psi = random_riesz_basis(rng, n)
        m0 = random_complex(rng, n, n)
        induced = operator_of_matrix(m0, phi.canonical_dual(), psi.canonical_dual())
        back_matrix = matrix_of_operator(induced, phi, psi).matrix
        ok &= np.linalg.norm(back_matrix - m0, "fro") <= 1e-9 * np.linalg.norm(m0, "fro")
        op = random_operator(rng, n, n)
        back_op = operator_of_matrix(
            matrix_of_operator(op, phi, psi).matrix,
            phi.canonical_dual(),
            psi.canonical_dual(),
        )
        ok &= frobenius_norm(back_op.matrix - op.matrix) <= 1e-9 * frobenius_norm(op.matrix)
        rep_id = matrix_of_operator(identity_operator(n), phi, phi.canonical_dual())
        ok &= np.linalg.norm(rep_id.matrix - np.eye(n), "fro") <= 1e-10 * np.sqrt(n)
    _verdict(5, "representation and induction invert each other on Riesz bases", ok)


def test_06_norm_bounds():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 5)))
        phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 5)))
        factor = np.sqrt(psi.bounds.upper * phi.bounds.upper)

        op = random_operator(rng, n2, n1)
        rep = matrix_of_operator(op, phi, psi)
        bound = factor * operator_norm(op.matrix)
        ok &= bound - operator_norm(rep.matrix) >= -1e-9 * bound
        bound = factor * hs_norm(op)
        ok &= bound - frobenius_norm(rep.matrix) >= -1e-9 * bound

        m = random_complex(rng, phi.count, psi.count)
        induced = operator_of_matrix(m, phi, psi)
        bound = factor * operator_norm(m)
        ok &= bound - operator_norm(induced.matrix) >= -1e-9 * bound
        bound = factor * np.linalg.norm(m, "fro")
        ok &= bound - hs_norm(induced) >= -1e-9 * bound
    _verdict(6, "spectral and Hilbert-Schmidt norm bounds", ok)


def test_07_range_mapping():
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 6)))
        phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 6)))
        op = random_operator(rng, n2, n1)
        f = random_complex(rng, n1)
        lhs, rhs = range_map_check(op, phi, psi, f)
        ok &= np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))
    _verdict(7, "analysis-range coefficients map to analysis-range coefficients", ok)


def test_08_kernel_reconstruction():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(50):
        n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        psi = random_frame(rng, n1, int(rng.integers(n1, n1 + 5)))
        phi = random_frame(rng, n2, int(rng.integers(n2, n2 + 5)))
        op = random_operator(rng, n2, n1)
        rep = matrix_of_operator(op, phi.canonical_dual(), psi.canonical_dual())
        kernel = kernel_of_representation(rep.matrix, phi, psi)
        ok &= frobenius_norm(kernel - op.matrix) <= 1e-9 * frobenius_norm(op.matrix)
    _verdict(8, "rank-one kernel expansion reproduces the standard-basis matrix", ok)


def test_09_solver_against_direct_inverse():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        frame = random_frame(rng, n, int(rng.integers(n, n + 8)), max_condition=1e4)
        op = conditioned_operator(rng, n, max_condition=1e3)
        g = random_complex(rng, n)
        report = solve(op, g, frame)
        oracle = np.linalg.pinv(op.matrix) @ g
        ok &= report.residual_operator <= 1e-8
        ok &= np.linalg.norm(report.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)
    _verdict(9, "frame-discretized solve matches the direct inverse", ok)


def test_10_frame_multiplier():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(25):
        n = int(rng.integers(1, 7))
        phi = random_frame(rng, n, int(rng.integers(n, n + 5)))
        ones = np.ones(phi.count)
        mult = frame_multiplier(ones, phi, phi.canonical_dual())
        ok &= frobenius_norm(mult.matrix - np.eye(n)) <= 1e-10 * np.sqrt(n)

        psi = random_frame(rng, int(rng.integers(1, phi.count + 1)), phi.count)
        weights = random_complex(rng, phi.count)
        diagonal_path = frame_multiplier(weights, phi, psi)
        rank_one_path = sum(
            weights[k] * rank_one(phi.vectors[k], psi.vectors[k]).matrix
            for k in range(phi.count)
        )
        scale = frobenius_norm(rank_one_path)
        ok &= frobenius_norm(diagonal_path.matrix - rank_one_path) <= 1e-12 * scale
    _verdict(10, "unit weights give the identity; diagonal equals rank-one sum", ok)


def test_11_cli_bit_stability(tmp_path):
    (tmp_path / "psi0.json").write_text(serialize_frame(PSI0))
    (tmp_path / "psi0dual.json").write_text(serialize_frame(PSI0.canonical_dual()))
    (tmp_path / "id2.json").write_text(serialize_matrix(np.eye(2)))
    (tmp_path / "diag23.json").write_text(serialize_matrix([[2, 0], [0, 3]]))
    (tmp_path / "g.json").write_text(serialize_vector([2, 3]))
    commands = [
        ["bounds", "--frame", "psi0.json", "--json"],
        ["represent", "--op", "id2.json", "--frame", "psi0.json",
         "--frame2", "psi0dual.json", "--json"],
        ["solve", "--op", "diag23.json", "--rhs", "g.json", "--frame", "psi0.json",
         "--json"],
    ]
    ok = True
    outputs = []
    for command in commands:
        first = run_cli(command, cwd=tmp_path)
        second = run_cli(command, cwd=tmp_path)
        ok &= first.returncode == 0 and second.returncode == 0
        ok &= first.stdout == second.stdout
        outputs.append(first.stdout)

    bounds = json.loads(outputs[0])
    ok &= abs(bounds["A"] - 1.0) <= 1e-12 and abs(bounds["B"] - 3.0) <= 1e-12

    gram_run = run_cli(
        ["gram", "--frame", "psi0.json", "--frame2", "psi0dual.json", "--json"],
        cwd=tmp_path,
    )
    represented = np.asarray(json.loads(outputs[1])["entries"])
    grammed = np.asarray(json.loads(gram_run.stdout)["entries"])
    ok &= bool(np.allclose(represented, grammed, atol=1e-12))

    report = json.loads(outputs[2])
    solution = np.asarray(report["solution"]["entries"])[0::2]
    ok &= bool(np.allclose(solution, [1.0, 1.0], atol=1e-10))
    ok &= report["residual_operator"] <= 1e-10
    _verdict(11, "CLI outputs reproduce bit-stably across consecutive runs "
             "(one BLAS thread count)", ok)
