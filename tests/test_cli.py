"""End-to-end tests of the command-line interface (subprocess level)."""

import json

import numpy as np
import pytest

from framerep import (
    Frame,
    LinearOperator,
    matrix_of_operator,
    parse_frame,
    parse_matrix,
    serialize_frame,
    serialize_matrix,
    serialize_vector,
)
from framerep.cli import main
from helpers import no_convergence, run_cli


@pytest.fixture
def workdir(tmp_path):
    psi0 = Frame([[1, 0], [0, 1], [1, 1]])
    (tmp_path / "psi0.json").write_text(serialize_frame(psi0))
    (tmp_path / "psi0dual.json").write_text(serialize_frame(psi0.canonical_dual()))
    (tmp_path / "id2.json").write_text(serialize_matrix(np.eye(2)))
    (tmp_path / "diag23.json").write_text(serialize_matrix([[2, 0], [0, 3]]))
    (tmp_path / "g.json").write_text(serialize_vector([2, 3]))
    (tmp_path / "bessel.json").write_text(serialize_frame(Frame([[1, 0], [2, 0]])))
    (tmp_path / "ones3.json").write_text(serialize_vector([1, 1, 1]))
    return tmp_path


class TestHappyPaths:
    def test_bounds_json(self, workdir):
        result = run_cli(["bounds", "--frame", "psi0.json", "--json"], cwd=workdir)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["A"] == pytest.approx(1.0, abs=1e-12)
        assert payload["B"] == pytest.approx(3.0, abs=1e-12)
        assert result.stderr == ""

    def test_bounds_human(self, workdir):
        result = run_cli(["bounds", "--frame", "psi0.json"], cwd=workdir)
        assert result.returncode == 0
        assert result.stdout.startswith("A = ")

    def test_classify(self, workdir):
        result = run_cli(["classify", "--frame", "psi0.json", "--json"], cwd=workdir)
        assert json.loads(result.stdout) == {"class": "Frame"}

    def test_dual_roundtrips_through_formats(self, workdir):
        result = run_cli(["dual", "--frame", "psi0.json", "--json"], cwd=workdir)
        assert result.returncode == 0
        dual = parse_frame(result.stdout)
        expected = [[2 / 3, -1 / 3], [-1 / 3, 2 / 3], [1 / 3, 1 / 3]]
        assert np.allclose(dual.vectors, expected, atol=1e-12)

    def test_represent_matches_gram(self, workdir):
        rep = run_cli(
            ["represent", "--op", "id2.json", "--frame", "psi0.json",
             "--frame2", "psi0dual.json", "--json"],
            cwd=workdir,
        )
        g = run_cli(
            ["gram", "--frame", "psi0.json", "--frame2", "psi0dual.json", "--json"],
            cwd=workdir,
        )
        assert rep.returncode == 0 and g.returncode == 0
        assert np.allclose(parse_matrix(rep.stdout), parse_matrix(g.stdout), atol=1e-12)

    def test_apply(self, workdir):
        result = run_cli(
            ["apply", "--op", "diag23.json", "--vec", "g.json", "--json"], cwd=workdir
        )
        m = parse_matrix(result.stdout)
        assert np.allclose(m.ravel(), [4, 9], atol=1e-14)

    def test_roundtrip(self, workdir):
        (workdir / "op.json").write_text(serialize_matrix([[1, 2], [3, 4]]))
        result = run_cli(
            ["roundtrip", "--op", "op.json", "--frame", "psi0.json", "--json"], cwd=workdir
        )
        assert np.allclose(parse_matrix(result.stdout), [[1, 2], [3, 4]], atol=1e-12)

    def test_multiplier_identity(self, workdir):
        result = run_cli(
            ["multiplier", "--weights", "ones3.json", "--frame", "psi0.json",
             "--frame2", "psi0dual.json", "--json"],
            cwd=workdir,
        )
        assert np.allclose(parse_matrix(result.stdout), np.eye(2), atol=1e-12)

    def test_kernel_recovers_operator(self, workdir):
        psi0 = Frame([[1, 0], [0, 1], [1, 1]])
        dual = psi0.canonical_dual()
        op = LinearOperator([[1, 2], [3, 4]])
        rep = matrix_of_operator(op, dual, dual)
        (workdir / "rep.json").write_text(serialize_matrix(rep.matrix))
        result = run_cli(
            ["kernel", "--matrix", "rep.json", "--frame", "psi0.json", "--json"],
            cwd=workdir,
        )
        assert np.allclose(parse_matrix(result.stdout), op.matrix, atol=1e-12)

    def test_solve(self, workdir):
        result = run_cli(
            ["solve", "--op", "diag23.json", "--rhs", "g.json", "--frame", "psi0.json",
             "--json"],
            cwd=workdir,
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        solution = parse_matrix(json.dumps(payload["solution"])).ravel()
        assert np.allclose(solution, [1, 1], atol=1e-10)
        assert payload["residual_operator"] <= 1e-10
        assert payload["section_used"] == 3
        assert payload["conditioning_warning"] is False

    def test_solve_with_section(self, workdir):
        result = run_cli(
            ["solve", "--op", "diag23.json", "--rhs", "g.json", "--frame", "psi0.json",
             "--section", "2", "--json"],
            cwd=workdir,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["section_used"] == 2

    def test_output_flag_writes_file(self, workdir):
        result = run_cli(
            ["bounds", "--frame", "psi0.json", "--json", "--output", "out.json"],
            cwd=workdir,
        )
        assert result.returncode == 0
        assert result.stdout == ""
        payload = json.loads((workdir / "out.json").read_text())
        assert payload["B"] == pytest.approx(3.0, abs=1e-12)


class TestExitCodes:
    def test_missing_file_is_usage_error(self, workdir):
        result = run_cli(["bounds", "--frame", "nope.json"], cwd=workdir)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "nope.json" in result.stderr

    def test_malformed_input_is_usage_error(self, workdir):
        (workdir / "broken.json").write_text('{"version":1,"dim":2,"vectors":[')
        result = run_cli(["bounds", "--frame", "broken.json"], cwd=workdir)
        assert result.returncode == 2

    def test_unknown_subcommand(self, workdir):
        result = run_cli(["frobnicate"], cwd=workdir)
        assert result.returncode == 2

    def test_not_a_frame_is_precondition_error(self, workdir):
        result = run_cli(["dual", "--frame", "bessel.json"], cwd=workdir)
        assert result.returncode == 3
        assert "NotAFrame" in result.stderr
        assert result.stdout == ""

    def test_dimension_mismatch_is_precondition_error(self, workdir):
        (workdir / "onb3.json").write_text(serialize_frame(Frame(np.eye(3))))
        result = run_cli(
            ["gram", "--frame", "psi0.json", "--frame2", "onb3.json"], cwd=workdir
        )
        assert result.returncode == 3
        assert "DimensionMismatch" in result.stderr

    def test_section_too_large_is_precondition_error(self, workdir):
        result = run_cli(
            ["solve", "--op", "diag23.json", "--rhs", "g.json", "--frame", "psi0.json",
             "--section", "9"],
            cwd=workdir,
        )
        assert result.returncode == 3

    def test_zero_section_is_usage_error(self, workdir):
        result = run_cli(
            ["solve", "--op", "diag23.json", "--rhs", "g.json", "--frame", "psi0.json",
             "--section", "0"],
            cwd=workdir,
        )
        assert result.returncode == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_usage_error(self, workdir, tol):
        result = run_cli(
            ["solve", "--op", "diag23.json", "--rhs", "g.json", "--frame", "psi0.json",
             "--tol", tol],
            cwd=workdir,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "finite and nonnegative" in result.stderr

    def test_no_project_is_usage_error(self, workdir):
        result = run_cli(
            ["solve", "--op", "diag23.json", "--rhs", "g.json", "--frame", "psi0.json",
             "--no-project"],
            cwd=workdir,
        )
        assert result.returncode == 2
        assert "--no-project" in result.stderr

    def test_svd_non_convergence_is_precondition_error(self, workdir, monkeypatch, capsys):
        # in process, so the decomposition can be made to fail
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        code = main(["bounds", "--frame", str(workdir / "psi0.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "DecompositionFailed: SVD of the frame analysis matrix" in captured.err


class TestEnvironmentTolerance:
    def test_huge_env_tol_collapses_solution(self, workdir):
        result = run_cli(
            ["solve", "--op", "id2.json", "--rhs", "g.json", "--frame", "psi0.json",
             "--json"],
            cwd=workdir,
            env_extra={"FRAMEREP_TOL": "10"},
        )
        payload = json.loads(result.stdout)
        solution = parse_matrix(json.dumps(payload["solution"])).ravel()
        assert np.allclose(solution, [0, 0], atol=0)

    def test_tol_flag_overrides_env(self, workdir):
        result = run_cli(
            ["solve", "--op", "id2.json", "--rhs", "g.json", "--frame", "psi0.json",
             "--tol", "1e-12", "--json"],
            cwd=workdir,
            env_extra={"FRAMEREP_TOL": "10"},
        )
        payload = json.loads(result.stdout)
        solution = parse_matrix(json.dumps(payload["solution"])).ravel()
        assert np.allclose(solution, [2, 3], atol=1e-10)

    def test_invalid_env_tol_is_usage_error(self, workdir):
        result = run_cli(
            ["solve", "--op", "id2.json", "--rhs", "g.json", "--frame", "psi0.json"],
            cwd=workdir,
            env_extra={"FRAMEREP_TOL": "not-a-float"},
        )
        assert result.returncode == 2
        assert "FRAMEREP_TOL" in result.stderr
