"""The three benchmark workloads: seeded inputs, the timed call and its check.

Each workload is closed loop with one client.  ``batch`` draws the inputs of
one cycle (one op per shape, call or CLI command) before the timed span;
``op`` is the timed call; ``check`` compares the result with its
references and returns ``(ok, accuracy_digits, observations)``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

EPS = float(np.finfo(np.float64).eps)

#: Accuracy is reported as -log10 of the relative error, floored here so an
#: exact result reads as a finite number of digits.
DIGITS_CAP = 17.0

#: A solve passes when its forward error is at most this many units of
#: eps * cond(frame) * cond(op); the largest ratio seen over 360 solves of
#: this workload was 2.
SOLVE_TOL_FACTOR = 1e3

#: Identities of represent-warm hold to ~1e-14 on its condition-100 frames.
REPRESENT_RTOL = 1e-10

#: CLI output must match the in-process library on the same files; both run
#: the same code on the same bytes, so only BLAS rounding could differ.
CLI_MATCH_RTOL = 1e-10


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(complex_normal(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def frame_vectors(rng, n, k, condition):
    """K x n frame vectors whose frame operator has eigenvalues 1..condition."""
    u, _ = np.linalg.qr(complex_normal(rng, k, n))
    sigma = np.sqrt(condition ** np.linspace(0.0, 1.0, n))
    return (u * sigma) @ random_unitary(rng, n).conj().T


def conditioned_operator(rng, n, max_condition=10.0):
    """An n x n matrix with singular values log-uniform in [1, max_condition]."""
    s = np.exp(rng.uniform(0.0, math.log(max_condition), n))
    s[0], s[-1] = 1.0, max_condition
    return (random_unitary(rng, n) * s) @ random_unitary(rng, n).conj().T


def rel_err(value, reference):
    return float(np.linalg.norm(np.asarray(value) - reference) / np.linalg.norm(reference))


def digits(err):
    return min(DIGITS_CAP, -math.log10(err)) if err > 0 else DIGITS_CAP


def dual_err_digits(frame):
    """Canonical dual against the rows of conj(pinv(D)) for synthesis matrix D."""
    reference = np.linalg.pinv(frame.synthesis_matrix).conj()
    return digits(rel_err(frame.canonical_dual().vectors, reference))


class Workload:
    name = ""

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def traced_op(self, inp):
        return self.op(inp)

    def startup_probe(self, repeats):
        return {}


# -- solve-redundant ----------------------------------------------------------

class SolveRedundant(Workload):
    """``solve(op, g, Frame(vectors))`` on a fresh redundant frame per op."""

    name = "solve-redundant"
    SHAPES = ((32, 256), (32, 384), (48, 384), (64, 512))
    TINY_SHAPES = ((4, 8), (4, 12), (6, 12), (8, 16))
    MAX_FRAME_CONDITION = 1e6

    def __init__(self, framerep, rng, workdir, tiny):
        self.fr = framerep
        self.shapes = self.TINY_SHAPES if tiny else self.SHAPES
        # build and warm one frame so the first timed op does not pay for
        # first-use costs of the code path
        warm = self.batch(rng)[0]
        self.op(warm)

    def batch(self, rng):
        inputs = []
        for n, k in self.shapes:
            frame_condition = 10.0 ** rng.uniform(0.0, math.log10(self.MAX_FRAME_CONDITION))
            op = conditioned_operator(rng, n)
            x_true = complex_normal(rng, n)
            inputs.append({
                "label": f"solve n={n} K={k}",
                "vectors": frame_vectors(rng, n, k, frame_condition),
                "op": self.fr.LinearOperator(op),
                "g": op @ x_true,
                "x_true": x_true,
                "condition": frame_condition * float(np.linalg.cond(op)),
            })
        return inputs

    def op(self, inp):
        frame = self.fr.Frame(inp["vectors"])
        return frame, self.fr.solve(inp["op"], inp["g"], frame)

    def check(self, inp, result, traced):
        frame, report = result
        err = rel_err(report.solution, inp["x_true"])
        obs = {"residual_operator": report.residual_operator}
        if traced:
            obs["dual_err_digits"] = dual_err_digits(frame)
        return err <= SOLVE_TOL_FACTOR * EPS * inp["condition"], digits(err), obs


# -- represent-warm -----------------------------------------------------------

class RepresentWarm(Workload):
    """Representation maps over two frames whose duals are warmed in setup.

    Each op takes a fresh operator through one of four calls, in rotation.
    """

    name = "represent-warm"
    CALLS = ("compose", "roundtrip", "multiplier", "range_map")
    FRAME_CONDITION = 1e2

    def __init__(self, framerep, rng, workdir, tiny):
        self.fr = framerep
        self.n, k = (6, 9) if tiny else (96, 144)
        self.phi = framerep.Frame(frame_vectors(rng, self.n, k, self.FRAME_CONDITION))
        self.psi = framerep.Frame(frame_vectors(rng, self.n, k, self.FRAME_CONDITION))
        for frame in (self.phi, self.psi):
            frame.bounds
            frame.canonical_dual().bounds
        self.dual_digits = min(dual_err_digits(self.phi), dual_err_digits(self.psi))

    def batch(self, rng):
        n = self.n
        inputs = []
        for call in self.CALLS:
            a = complex_normal(rng, n, n) / math.sqrt(n)
            inp = {"label": f"represent {call}", "call": call, "a": a,
                   "a_op": self.fr.LinearOperator(a)}
            if call == "compose":
                inp["b"] = complex_normal(rng, n, n) / math.sqrt(n)
                inp["b_op"] = self.fr.LinearOperator(inp["b"])
            elif call == "multiplier":
                inp["weights"] = complex_normal(rng, self.phi.count)
            elif call == "range_map":
                inp["f"] = complex_normal(rng, n)
            inputs.append(inp)
        return inputs

    def op(self, inp):
        fr, phi, psi = self.fr, self.phi, self.psi
        call = inp["call"]
        if call == "compose":
            rep_a = fr.matrix_of_operator(inp["a_op"], phi, psi)
            rep_b = fr.matrix_of_operator(inp["b_op"], psi.canonical_dual(), psi)
            return rep_a @ rep_b
        if call == "roundtrip":
            return fr.roundtrip_reconstruct(inp["a_op"], phi, psi)
        if call == "multiplier":
            return fr.frame_multiplier(inp["weights"], phi, psi)
        lhs, rhs = fr.range_map_check(inp["a_op"], phi, psi, inp["f"])
        return lhs, rhs, fr.project_onto_analysis_range(phi, lhs)

    def check(self, inp, result, traced):
        phi, psi = self.phi.vectors, self.psi.vectors
        call = inp["call"]
        obs = {"dual_err_digits": self.dual_digits}
        if call == "compose":
            # rep_a @ rep_b represents A B over (phi, psi): C_phi (A B) D_psi
            err = rel_err(result.matrix, phi.conj() @ (inp["a"] @ inp["b"]) @ psi.T)
        elif call == "roundtrip":
            err = rel_err(result.matrix, inp["a"])
            obs["roundtrip_err_digits"] = digits(err)
        elif call == "multiplier":
            explicit = sum(w * np.outer(p, q.conj()) for w, p, q in zip(inp["weights"], phi, psi))
            err = rel_err(result.matrix, explicit)
        else:
            lhs, rhs, projected = result
            err = max(rel_err(lhs, rhs), rel_err(projected, lhs))
        return err <= REPRESENT_RTOL, digits(err), obs


# -- cli-json -----------------------------------------------------------------

def _decode(payload):
    """Complex array from a frame or matrix JSON payload, independent of framerep.io."""
    if "vectors" in payload:
        return np.asarray(payload["vectors"], dtype=np.float64).view(np.complex128)
    flat = np.asarray(payload["entries"], dtype=np.float64).view(np.complex128)
    return flat.reshape(payload["rows"], payload["cols"])


def child_env():
    """Environment for CLI children: framerep from this checkout's src, by absolute path."""
    env = os.environ.copy()
    env.pop("FRAMEREP_TOL", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, env, cwd, stderr_path):
    """Run a child to completion; returns (seconds, exit code, stdout, max RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = perf_counter() - start
    return seconds, proc.returncode, out, usage.ru_maxrss


class CliJson(Workload):
    """One ``python -m framerep ... --json`` child per op on files written in setup."""

    name = "cli-json"
    COMMANDS = ("dual", "represent", "kernel", "solve", "solve-section")
    FRAME_CONDITION = 1e2

    def __init__(self, framerep, rng, workdir, tiny):
        import framerep.cli  # noqa: F401  (loaded so the traced run can wrap cli.main)

        self.fr = framerep
        io = framerep.io
        n, k = (4, 8) if tiny else (32, 128)
        self.section = 2 * n
        self.workdir = Path(workdir)
        self.env = child_env()
        self.child_peak_kb = 0
        vectors = frame_vectors(rng, n, k, self.FRAME_CONDITION)
        op = conditioned_operator(rng, n)
        self.x_true = complex_normal(rng, n)
        frame = framerep.Frame(vectors)
        dual = frame.canonical_dual()
        texts = {
            "phi": io.serialize_frame(frame),
            "dual": io.serialize_frame(dual),
            "op": io.serialize_matrix(op),
            "g": io.serialize_vector(op @ self.x_true),
            "rep": io.serialize_matrix(framerep.matrix_of_operator(
                framerep.LinearOperator(op), dual, dual).matrix),
        }
        self.files = {}
        for key, text in texts.items():
            path = self.workdir / f"{key}.json"
            path.write_text(text, encoding="utf-8")
            self.files[key] = str(path)
        # references: the library on the very bytes the CLI will read ...
        phi = io.parse_frame(texts["phi"])
        phi_dual = io.parse_frame(texts["dual"])
        lin_op = framerep.LinearOperator(io.parse_matrix(texts["op"]))
        g = io.parse_vector(texts["g"])
        self.library = {
            "dual": phi.canonical_dual().vectors,
            "represent": framerep.matrix_of_operator(lin_op, phi, phi_dual).matrix,
            "kernel": framerep.kernel_of_representation(io.parse_matrix(texts["rep"]), phi, phi),
            "solve": framerep.solve(lin_op, g, phi).solution,
            "solve-section": framerep.solve(
                lin_op, g, phi, framerep.SolveOptions(section_size=self.section)).solution,
        }
        # ... and the mathematical reference each output approximates
        self.truth = {
            "dual": np.linalg.pinv(phi.synthesis_matrix).conj(),
            "represent": lin_op.matrix,
            "kernel": lin_op.matrix,
            "solve": self.x_true,
            "solve-section": self.x_true,
        }
        self.vectors, self.dual_vectors = phi.vectors, phi_dual.vectors
        self.dual_digits = dual_err_digits(phi)
        self.out_path = self.workdir / "out.json"
        self.stderr_path = self.workdir / "stderr.txt"

    def argv(self, command):
        f = self.files
        args = {
            "dual": ["dual", "--frame", f["phi"]],
            "represent": ["represent", "--op", f["op"], "--frame", f["phi"], "--frame2", f["dual"]],
            "kernel": ["kernel", "--matrix", f["rep"], "--frame", f["phi"]],
            "solve": ["solve", "--op", f["op"], "--rhs", f["g"], "--frame", f["phi"]],
            "solve-section": ["solve", "--op", f["op"], "--rhs", f["g"], "--frame", f["phi"],
                              "--section", str(self.section)],
        }[command]
        return args + ["--json"]

    def batch(self, rng):
        return [{"label": f"cli {c}", "command": c, "argv": self.argv(c)} for c in self.COMMANDS]

    def child(self, argv):
        seconds, code, out, rss_kb = run_child(
            argv, self.env, self.workdir, self.stderr_path)
        self.child_peak_kb = max(self.child_peak_kb, rss_kb)
        return seconds, code, out

    def op(self, inp):
        _, code, out = self.child([sys.executable, "-m", "framerep", *inp["argv"]])
        return code, out

    def traced_op(self, inp):
        code = self.fr.cli.main([*inp["argv"], "--output", str(self.out_path)])
        return code, self.out_path.read_bytes() if code == 0 else b""

    def peak_rss_mb(self):
        return self.child_peak_kb / 1024.0

    def check(self, inp, result, traced):
        code, out = result
        obs = {"dual_err_digits": self.dual_digits, "nonzero_exit": int(code != 0)}
        if code != 0:
            return False, None, obs
        payload = json.loads(out)
        command = inp["command"]
        if command.startswith("solve"):
            obs["residual_operator"] = payload["residual_operator"]
            raw = _decode(payload["solution"]).ravel()
        else:
            raw = _decode(payload)
        ok = rel_err(raw, self.library[command]) <= CLI_MATCH_RTOL
        if command == "represent":
            raw = self.dual_vectors.T @ raw @ self.vectors.conj()  # D_dual M C_phi = op
        return ok, digits(rel_err(raw, self.truth[command])), obs

    def startup_probe(self, repeats):
        """Child wall times: bare interpreter, ``import framerep`` and one CLI cycle per repeat."""
        python = sys.executable
        interpreter = [self.child([python, "-c", "pass"])[0] for _ in range(repeats)]
        imports = [self.child([python, "-c", "import framerep"])[0] for _ in range(repeats)]
        commands, nonzero = [], 0
        for _ in range(repeats):
            for command in self.COMMANDS:
                seconds, code, _ = self.child([python, "-m", "framerep", *self.argv(command)])
                commands.append(seconds)
                nonzero += code != 0
        return {
            "interpreter_ms": 1e3 * float(np.median(interpreter)),
            "import_ms": 1e3 * float(np.median(imports)),
            "subprocess_ms": 1e3 * float(np.median(commands)),
            "nonzero_exits": nonzero,
        }


WORKLOADS = {w.name: w for w in (SolveRedundant, RepresentWarm, CliJson)}
