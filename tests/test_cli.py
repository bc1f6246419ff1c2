"""End-to-end tests of the command-line interface, in a subprocess or in process through main."""

import importlib
import json
from pathlib import Path

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
from helpers import conditioned_operator, no_convergence, random_complex, run_cli


@pytest.fixture
def workdir(tmp_path):
    psi0 = Frame([[1, 0], [0, 1], [1, 1]])
    (tmp_path / "psi0.json").write_text(serialize_frame(psi0))
    (tmp_path / "psi0dual.json").write_text(serialize_frame(psi0.canonical_dual()))
    (tmp_path / "id2.json").write_text(serialize_matrix(np.eye(2)))
    (tmp_path / "diag23.json").write_text(serialize_matrix([[2, 0], [0, 3]]))
    (tmp_path / "id3.json").write_text(serialize_matrix(np.eye(3)))
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


#: subcommand case -> (arguments, stdout, stdout with --json) on the workdir files;
#: an optional --frame2 is run both given and omitted
GOLDEN = {
    "bounds": (
        "bounds --frame psi0.json",
        ('A = 1.0\n'
         'B = 2.9999999999999996\n'),
        '{"A":1.0,"B":2.9999999999999996}\n',
    ),
    "classify": (
        "classify --frame psi0.json",
        'Frame\n',
        '{"class":"Frame"}\n',
    ),
    "dual": (
        "dual --frame psi0.json",
        ('[[ 0.66666667+0.j, -0.33333333+0.j],\n'
         ' [-0.33333333+0.j,  0.66666667+0.j],\n'
         ' [ 0.33333333+0.j,  0.33333333+0.j]]\n'),
        ('{"version":1,"dim":2,"vectors":[[0.6666666666666664,0.0,-0.3333333333333333,0.0],'
         '[-0.3333333333333333,0.0,0.6666666666666667,0.0],[0.3333333333333332,0.0,'
         '0.33333333333333337,0.0]]}\n'),
    ),
    "gram": (
        "gram --frame psi0.json",
        ('[[1.+0.j, 0.+0.j, 1.+0.j],\n'
         ' [0.+0.j, 1.+0.j, 1.+0.j],\n'
         ' [1.+0.j, 1.+0.j, 2.+0.j]]\n'),
        ('{"version":1,"rows":3,"cols":3,"entries":[1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0,0.0,'
         '1.0,0.0,1.0,0.0,1.0,0.0,2.0,0.0]}\n'),
    ),
    "gram-frame2": (
        "gram --frame psi0.json --frame2 psi0dual.json",
        ('[[ 0.66666667+0.j, -0.33333333+0.j,  0.33333333+0.j],\n'
         ' [-0.33333333+0.j,  0.66666667+0.j,  0.33333333+0.j],\n'
         ' [ 0.33333333+0.j,  0.33333333+0.j,  0.66666667+0.j]]\n'),
        ('{"version":1,"rows":3,"cols":3,"entries":[0.6666666666666664,0.0,'
         '-0.3333333333333333,0.0,0.3333333333333332,0.0,-0.3333333333333333,0.0,'
         '0.6666666666666667,0.0,0.33333333333333337,0.0,0.3333333333333331,0.0,'
         '0.3333333333333334,0.0,0.6666666666666665,0.0]}\n'),
    ),
    "represent": (
        "represent --op diag23.json --frame psi0.json --frame2 psi0dual.json",
        ('[[ 1.33333333+0.j, -0.66666667+0.j,  0.66666667+0.j],\n'
         ' [-1.        +0.j,  2.        +0.j,  1.        +0.j],\n'
         ' [ 0.33333333+0.j,  1.33333333+0.j,  1.66666667+0.j]]\n'),
        ('{"version":1,"rows":3,"cols":3,"entries":[1.3333333333333328,0.0,'
         '-0.6666666666666666,0.0,0.6666666666666664,0.0,-1.0,0.0,2.0,0.0,1.0,0.0,'
         '0.33333333333333287,0.0,1.3333333333333335,0.0,1.6666666666666665,0.0]}\n'),
    ),
    "apply": (
        "apply --op diag23.json --vec g.json",
        '[4.+0.j, 9.+0.j]\n',
        '{"version":1,"rows":2,"cols":1,"entries":[4.0,0.0,9.0,0.0]}\n',
    ),
    "roundtrip": (
        "roundtrip --op diag23.json --frame psi0.json",
        ('[[ 2.00000000e+00+0.j, -5.55111512e-17+0.j],\n'
         ' [-5.55111512e-17+0.j,  3.00000000e+00+0.j]]\n'),
        ('{"version":1,"rows":2,"cols":2,"entries":[1.9999999999999982,0.0,'
         '-5.551115123125773e-17,0.0,-5.551115123125773e-17,0.0,3.0,0.0]}\n'),
    ),
    "roundtrip-frame2": (
        "roundtrip --op diag23.json --frame psi0.json --frame2 psi0dual.json",
        ('[[ 2.00000000e+00+0.j,  9.25185854e-17+0.j],\n'
         ' [-1.66533454e-16+0.j,  3.00000000e+00+0.j]]\n'),
        ('{"version":1,"rows":2,"cols":2,"entries":[2.0,0.0,9.251858538542981e-17,0.0,'
         '-1.6653345369377368e-16,0.0,3.0,0.0]}\n'),
    ),
    "multiplier": (
        "multiplier --weights ones3.json --frame psi0.json",
        ('[[2.+0.j, 1.+0.j],\n'
         ' [1.+0.j, 2.+0.j]]\n'),
        '{"version":1,"rows":2,"cols":2,"entries":[2.0,0.0,1.0,0.0,1.0,0.0,2.0,0.0]}\n',
    ),
    "multiplier-frame2": (
        "multiplier --weights ones3.json --frame psi0.json --frame2 psi0dual.json",
        ('[[ 1.00000000e+00+0.j,  5.55111512e-17+0.j],\n'
         ' [-1.11022302e-16+0.j,  1.00000000e+00+0.j]]\n'),
        ('{"version":1,"rows":2,"cols":2,"entries":[0.9999999999999996,0.0,'
         '5.551115123125783e-17,0.0,-1.1102230246251565e-16,0.0,1.0,0.0]}\n'),
    ),
    "kernel": (
        "kernel --matrix id3.json --frame psi0.json",
        ('[[2.+0.j, 1.+0.j],\n'
         ' [1.+0.j, 2.+0.j]]\n'),
        '{"version":1,"rows":2,"cols":2,"entries":[2.0,0.0,1.0,0.0,1.0,0.0,2.0,0.0]}\n',
    ),
    "kernel-frame2": (
        "kernel --matrix id3.json --frame psi0.json --frame2 psi0dual.json",
        ('[[ 1.00000000e+00+0.j,  5.55111512e-17+0.j],\n'
         ' [-1.11022302e-16+0.j,  1.00000000e+00+0.j]]\n'),
        ('{"version":1,"rows":2,"cols":2,"entries":[0.9999999999999996,0.0,'
         '5.551115123125783e-17,0.0,-1.1102230246251565e-16,0.0,1.0,0.0]}\n'),
    ),
    "solve": (
        "solve --op diag23.json --rhs g.json --frame psi0.json",
        ('solution = [1.+0.j, 1.+0.j]\n'
         'coefficients = [1.+0.j, 1.+0.j, 2.+0.j]\n'
         'residual_operator = 0.0\n'
         'residual_matrix = 0.0\n'
         'section_used = 3\n'
         'conditioning_warning = False\n'),
        ('{"solution":{"version":1,"rows":2,"cols":1,"entries":[1.0,0.0,1.0,0.0]},'
         '"coefficients":{"version":1,"rows":3,"cols":1,"entries":[1.0,0.0,1.0,0.0,2.0,'
         '0.0]},"residual_operator":0.0,"residual_matrix":0.0,"section_used":3,'
         '"conditioning_warning":false}\n'),
    ),
    "solve-section": (
        "solve --op diag23.json --rhs g.json --frame psi0.json --section 2",
        ('solution = [1.+0.j, 1.+0.j]\n'
         'coefficients = [3.+0.j, 3.+0.j, 0.+0.j]\n'
         'residual_operator = 8.881784197001252e-16\n'
         'residual_matrix = 5.626564999746253e-16\n'
         'section_used = 2\n'
         'conditioning_warning = False\n'),
        ('{"solution":{"version":1,"rows":2,"cols":1,"entries":[0.9999999999999987,0.0,'
         '1.0000000000000007,0.0]},"coefficients":{"version":1,"rows":3,"cols":1,'
         '"entries":[2.9999999999999982,0.0,2.999999999999999,0.0,0.0,0.0]},'
         '"residual_operator":8.881784197001252e-16,"residual_matrix":5.626564999746253e-16,'
         '"section_used":2,"conditioning_warning":false}\n'),
    ),
}


class TestGoldenOutput:
    """The exact bytes every subcommand prints, run in process in both output modes."""

    @pytest.mark.parametrize("mode", ["human", "json"])
    @pytest.mark.parametrize("case", list(GOLDEN))
    def test_stdout(self, workdir, monkeypatch, capsys, case, mode):
        command, human, json_text = GOLDEN[case]
        monkeypatch.chdir(workdir)
        code = main(command.split() + (["--json"] if mode == "json" else []))
        out, err = capsys.readouterr()
        assert (code, out, err) == (0, human if mode == "human" else json_text, "")


class TestEntryPoint:
    def test_console_script_runs(self, workdir, monkeypatch, capsys):
        # the [project.scripts] target, resolved as an installer would resolve it
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, name = scripts["framerep"].partition(":")
        monkeypatch.chdir(workdir)
        code = getattr(importlib.import_module(module), name)(["classify", "--frame", "psi0.json"])
        assert (code, capsys.readouterr().out) == (0, "Frame\n")


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

    def test_integer_beyond_float_range_is_precondition_error(self, workdir):
        (workdir / "big.json").write_text('{"version":1,"dim":1,"vectors":[[1%s,0]]}' % ("0" * 400))
        result = run_cli(["bounds", "--frame", "big.json"], cwd=workdir)
        assert result.returncode == 3
        assert "DimensionMismatch" in result.stderr
        assert "Traceback" not in result.stderr

    def test_overflowing_product_is_precondition_error(self, workdir):
        (workdir / "huge.json").write_text(serialize_frame(Frame([[1e160, 0], [0, 1e160], [1e160, 1e160]])))
        result = run_cli(["gram", "--frame", "huge.json"], cwd=workdir)
        assert result.returncode == 3
        assert "FrameRepError: the Gram matrix overflows the float range" in result.stderr
        assert result.stdout == ""

    def test_svd_non_convergence_is_precondition_error(self, workdir, monkeypatch, capsys):
        # in process, so the decomposition can be made to fail
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        code = main(["bounds", "--frame", str(workdir / "psi0.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "DecompositionFailed: SVD of the frame analysis matrix" in captured.err


class TestOutputModes:
    def test_json_output_formats_no_text(self, workdir, monkeypatch, capsys):
        # in process, so the text formatter can be made to fail
        def refuse(a):
            raise AssertionError("human-readable text built under --json")

        monkeypatch.setattr("framerep.cli._format_array", refuse)
        code = main(["solve", "--op", str(workdir / "diag23.json"), "--rhs", str(workdir / "g.json"),
                     "--frame", str(workdir / "psi0.json"), "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["section_used"] == 3


class TestTolerance:
    SOLVE = ["solve", "--op", "id2.json", "--rhs", "g.json", "--frame", "psi0.json", "--json"]

    def test_env_tol_is_ignored(self, workdir):
        # --tol is the only way to set the cutoff; FRAMEREP_TOL, even malformed, changes nothing
        plain = run_cli(self.SOLVE, cwd=workdir)
        assert plain.returncode == 0
        for value in ("10", "not-a-float"):
            result = run_cli(self.SOLVE, cwd=workdir, env_extra={"FRAMEREP_TOL": value})
            assert (result.returncode, result.stdout, result.stderr) == (0, plain.stdout, "")

    def test_huge_tol_flag_collapses_solution(self, workdir):
        result = run_cli([*self.SOLVE, "--tol", "10"], cwd=workdir)
        payload = json.loads(result.stdout)
        solution = parse_matrix(json.dumps(payload["solution"])).ravel()
        assert np.array_equal(solution, [0, 0])


class TestThreadCount:
    """Output is byte-stable for one BLAS build and thread count, not across thread counts."""

    def test_outputs_agree_across_blas_thread_counts(self, tmp_path):
        # at n=64, K=512 the QR's last bits, so the printed bytes of `dual` and
        # `solve --section`, depend on OPENBLAS_NUM_THREADS; the values agree to rounding
        rng = np.random.default_rng(93)
        (tmp_path / "frame.json").write_text(serialize_frame(Frame(random_complex(rng, 512, 64))))
        (tmp_path / "op.json").write_text(serialize_matrix(conditioned_operator(rng, 64).matrix))
        (tmp_path / "g.json").write_text(serialize_vector(random_complex(rng, 64)))
        commands = {
            "dual": (["dual", "--frame", "frame.json", "--json"],
                     lambda text: parse_frame(text).vectors),
            "section": (["solve", "--op", "op.json", "--rhs", "g.json", "--frame", "frame.json",
                         "--section", "64", "--json"],
                        lambda text: parse_matrix(json.dumps(json.loads(text)["solution"]))),
        }
        for name, (command, values) in commands.items():
            runs = [run_cli(command, cwd=tmp_path, env_extra={"OPENBLAS_NUM_THREADS": threads})
                    for threads in ("1", "2")]
            assert [run.returncode for run in runs] == [0, 0], name
            one, two = (values(run.stdout) for run in runs)
            assert np.linalg.norm(one - two) <= 1e-12 * np.linalg.norm(one), name
