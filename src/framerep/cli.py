"""Command-line interface over the frame and matrix file formats.

One subcommand per capability; results go to stdout (canonical JSON with
``--json``), diagnostics and errors to stderr.  Exit codes: 0 success,
2 usage or input-parsing error, 3 violated numerical precondition (for
example a family that is not a frame, or an SVD that did not converge).

The environment variable ``FRAMEREP_TOL`` sets the default relative
singular-value cutoff used by the least-squares solver; ``--tol`` overrides
it per invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .exceptions import FrameRepError, ParseError
from .frames import Frame, gram
from .linalg import wrap_checked
from .represent import (
    LinearOperator,
    frame_multiplier,
    kernel_of_representation,
    matrix_of_operator,
    roundtrip_reconstruct,
)
from .solve import SolveOptions, solve

USAGE_EXIT = 2
PRECONDITION_EXIT = 3


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_frame(path: str) -> Frame:
    return io.parse_frame(_read(path))


def _load_operator(path: str) -> LinearOperator:
    return wrap_checked(LinearOperator, "matrix", io.parse_matrix(_read(path)))


def _load_vector(path: str) -> np.ndarray:
    return io.parse_vector(_read(path))


def _format_array(a: np.ndarray) -> str:
    return np.array2string(a, separator=", ", max_line_width=120)


def _default_tol() -> float | None:
    """Read FRAMEREP_TOL; raises ParseError on malformed values."""
    raw = os.environ.get("FRAMEREP_TOL")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"FRAMEREP_TOL must be a decimal float, got {raw!r}") from None
    if value < 0 or not np.isfinite(value):
        raise ParseError(f"FRAMEREP_TOL must be a finite nonnegative float, got {value}")
    return value


# -- subcommand handlers ----------------------------------------------------
# Each returns (json_payload, render) where render() builds the human-readable
# text; it is called only without --json, because formatting arrays is costly.

def _cmd_bounds(args):
    frame = _load_frame(args.frame)
    a, b = frame.bounds
    return {"A": a, "B": b}, lambda: f"A = {a!r}\nB = {b!r}"


def _cmd_classify(args):
    frame = _load_frame(args.frame)
    label = frame.classification.value
    return {"class": label}, lambda: label


def _cmd_dual(args):
    frame = _load_frame(args.frame)
    dual = frame.canonical_dual()
    return io.frame_payload(dual), lambda: _format_array(dual.vectors)


def _cmd_gram(args):
    psi = _load_frame(args.frame)
    phi = _load_frame(args.frame2) if args.frame2 else psi
    g = gram(psi, phi)
    return io.matrix_payload(g), lambda: _format_array(g)


def _cmd_represent(args):
    op = _load_operator(args.op)
    analysis = _load_frame(args.frame)
    synthesis = _load_frame(args.frame2)
    rep = matrix_of_operator(op, analysis, synthesis)
    return io.matrix_payload(rep.matrix), lambda: _format_array(rep.matrix)


def _cmd_apply(args):
    op = _load_operator(args.op)
    vec = _load_vector(args.vec)
    out = op(vec)
    return io.vector_payload(out), lambda: _format_array(out)


def _cmd_roundtrip(args):
    op = _load_operator(args.op)
    phi = _load_frame(args.frame)
    psi = _load_frame(args.frame2) if args.frame2 else phi
    rebuilt = roundtrip_reconstruct(op, phi, psi)
    return io.matrix_payload(rebuilt.matrix), lambda: _format_array(rebuilt.matrix)


def _cmd_multiplier(args):
    weights = _load_vector(args.weights)
    phi = _load_frame(args.frame)
    psi = _load_frame(args.frame2) if args.frame2 else phi
    op = frame_multiplier(weights, phi, psi)
    return io.matrix_payload(op.matrix), lambda: _format_array(op.matrix)


def _cmd_kernel(args):
    matrix = io.parse_matrix(_read(args.matrix))
    phi = _load_frame(args.frame)
    psi = _load_frame(args.frame2) if args.frame2 else phi
    kernel = kernel_of_representation(matrix, phi, psi)
    return io.matrix_payload(kernel), lambda: _format_array(kernel)


def _cmd_solve(args):
    op = _load_operator(args.op)
    rhs = _load_vector(args.rhs)
    frame = _load_frame(args.frame)
    options = SolveOptions(section_size=args.section, pseudoinverse_rel_tol=args.tol)
    report = solve(op, rhs, frame, options)
    payload = {
        "solution": io.vector_payload(report.solution),
        "coefficients": io.vector_payload(report.coefficients),
        "residual_operator": report.residual_operator,
        "residual_matrix": report.residual_matrix,
        "section_used": report.section_used,
        "conditioning_warning": report.conditioning_warning,
    }
    return payload, lambda: "\n".join(
        [
            f"solution = {_format_array(report.solution)}",
            f"coefficients = {_format_array(report.coefficients)}",
            f"residual_operator = {report.residual_operator!r}",
            f"residual_matrix = {report.residual_matrix!r}",
            f"section_used = {report.section_used}",
            f"conditioning_warning = {report.conditioning_warning}",
        ]
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framerep",
        description="Frames, duals, frame-coordinate operator representations, "
        "and a frame-based operator-equation solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.add_argument("--output", metavar="PATH", help="write the result to PATH")
        return p

    p = add("bounds", _cmd_bounds, "optimal frame bounds (A, B)")
    p.add_argument("--frame", required=True, metavar="PATH")

    p = add("classify", _cmd_classify, "frame classification label")
    p.add_argument("--frame", required=True, metavar="PATH")

    p = add("dual", _cmd_dual, "canonical dual frame")
    p.add_argument("--frame", required=True, metavar="PATH")

    p = add("gram", _cmd_gram, "Gram matrix of one or two frames")
    p.add_argument("--frame", required=True, metavar="PATH")
    p.add_argument("--frame2", metavar="PATH", help="second frame (default: --frame)")

    p = add("represent", _cmd_represent, "frame-coordinate matrix of an operator")
    p.add_argument("--op", required=True, metavar="PATH")
    p.add_argument("--frame", required=True, metavar="PATH", help="analysis (row) frame")
    p.add_argument("--frame2", required=True, metavar="PATH", help="synthesis (column) frame")

    p = add("apply", _cmd_apply, "apply an operator to a vector")
    p.add_argument("--op", required=True, metavar="PATH")
    p.add_argument("--vec", required=True, metavar="PATH")

    p = add("roundtrip", _cmd_roundtrip, "reconstruct an operator through dual-pair coordinates")
    p.add_argument("--op", required=True, metavar="PATH")
    p.add_argument("--frame", required=True, metavar="PATH", help="codomain frame")
    p.add_argument("--frame2", metavar="PATH", help="domain frame (default: --frame)")

    p = add("multiplier", _cmd_multiplier, "operator induced by diagonal weights")
    p.add_argument("--weights", required=True, metavar="PATH")
    p.add_argument("--frame", required=True, metavar="PATH", help="synthesis (output) frame")
    p.add_argument("--frame2", metavar="PATH", help="analysis (input) frame (default: --frame)")

    p = add("kernel", _cmd_kernel, "integral kernel assembled from a representation matrix")
    p.add_argument("--matrix", required=True, metavar="PATH")
    p.add_argument("--frame", required=True, metavar="PATH", help="codomain frame")
    p.add_argument("--frame2", metavar="PATH", help="domain frame (default: --frame)")

    p = add("solve", _cmd_solve, "solve O f = g by frame discretization")
    p.add_argument("--op", required=True, metavar="PATH")
    p.add_argument("--rhs", required=True, metavar="PATH")
    p.add_argument("--frame", required=True, metavar="PATH")
    p.add_argument("--section", type=int, metavar="N", help="finite-section size")
    p.add_argument("--tol", type=float, metavar="T",
                   help="relative singular-value cutoff of the least-squares solve "
                        "(default: FRAMEREP_TOL, else N * machine epsilon)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "solve" and args.tol is None:
            args.tol = _default_tol()
        payload, render = args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except FrameRepError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    text = io.canonical_json(payload) if args.json else render() + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
