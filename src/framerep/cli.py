"""Command-line interface over the frame and matrix file formats.

Each subcommand is one entry of a table (:func:`_subcommands`): its help
text, its input flags in load order and the library call it runs on them.
A flag is ``(flag, kind, required, help)``.  Kind ``frame``, ``operator``,
``vector`` or ``matrix`` names the format of the file at PATH, read by
:func:`_load`; kind ``int`` or ``float`` is a number argparse converts.  An
omitted optional frame (``--frame2``) is the ``--frame`` Frame object
itself.  The argparse flags are generated from the table, and a result is
rendered by its type, by :func:`_payload` with ``--json`` and by
:func:`_text` without.

Results go to stdout (canonical JSON with ``--json``), diagnostics and
errors to stderr.  Exit codes: 0 success, 2 usage or input-parsing error,
3 violated numerical precondition (for example a family that is not a
frame, or an SVD that did not converge).

``solve --tol`` sets the relative singular-value cutoff of the least-squares
solve (default: N * machine epsilon); no output depends on the environment.
"""

from __future__ import annotations

import argparse
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import io
from .exceptions import FrameRepError, ParseError
from .frames import Frame, FrameBounds, FrameClass, gram
from .linalg import wrap_checked
from .represent import (LinearOperator, frame_multiplier, kernel_of_representation,
                        matrix_of_operator, roundtrip_reconstruct)
from .solve import SolveOptions, SolveReport, solve

USAGE_EXIT = 2
PRECONDITION_EXIT = 3

#: Metavar of each number kind; every other kind is a file at PATH.
_NUMBERS = {int: "N", float: "T"}

#: SolveReport's scalar fields, in output order after the solution and coefficients.
_REPORT_SCALARS = ("residual_operator", "residual_matrix", "section_used", "conditioning_warning")


def _solve(op, rhs, frame, section, tol):
    return solve(op, rhs, frame, SolveOptions(section_size=section, rel_tol=tol))


def _subcommands() -> dict:
    """name -> (help, flags in load order, library call on the loaded inputs).

    Built with each parser, not at import, so each call is the one bound
    when ``main`` runs: perfbench's tracer rebinds library names to time them.
    """
    frame = ("--frame", "frame", True, None)
    codomain = ("--frame", "frame", True, "codomain frame")
    domain = ("--frame2", "frame", False, "domain frame (default: --frame)")
    op = ("--op", "operator", True, None)
    return {
        "bounds": ("optimal frame bounds (A, B)", [frame], attrgetter("bounds")),
        "classify": ("frame classification label", [frame], attrgetter("classification")),
        "dual": ("canonical dual frame", [frame], Frame.canonical_dual),
        "gram": ("Gram matrix of one or two frames",
                 [frame, ("--frame2", "frame", False, "second frame (default: --frame)")], gram),
        "represent": ("frame-coordinate matrix of an operator",
                      [op, ("--frame", "frame", True, "analysis (row) frame"),
                       ("--frame2", "frame", True, "synthesis (column) frame")],
                      matrix_of_operator),
        "apply": ("apply an operator to a vector", [op, ("--vec", "vector", True, None)],
                  LinearOperator.__call__),
        "roundtrip": ("reconstruct an operator through dual-pair coordinates",
                      [op, codomain, domain], roundtrip_reconstruct),
        "multiplier": ("operator induced by diagonal weights",
                       [("--weights", "vector", True, None),
                        ("--frame", "frame", True, "synthesis (output) frame"),
                        ("--frame2", "frame", False, "analysis (input) frame (default: --frame)")],
                       frame_multiplier),
        "kernel": ("integral kernel assembled from a representation matrix",
                   [("--matrix", "matrix", True, None), codomain, domain],
                   kernel_of_representation),
        "solve": ("solve O f = g by frame discretization",
                  [op, ("--rhs", "vector", True, None), frame,
                   ("--section", int, False, "finite-section size"),
                   ("--tol", float, False, "relative singular-value cutoff of the least-squares "
                                           "solve (default: N * machine epsilon)")],
                  _solve),
    }


def _load(kind: str, path: str):
    """The input of file kind ``kind`` read from ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    if kind == "frame":
        return io.parse_frame(text)
    if kind == "vector":
        return io.parse_vector(text)
    matrix = io.parse_matrix(text)
    return wrap_checked(LinearOperator, "matrix", matrix) if kind == "operator" else matrix


def _inputs(args) -> list:
    """The subcommand's inputs, loaded in its flags' order."""
    inputs = {}
    for flag, kind, required, _ in args.flags:
        value = getattr(args, flag[2:])
        if kind in _NUMBERS:
            inputs[flag] = value
        elif value or required:
            inputs[flag] = _load(kind, value)
        else:
            inputs[flag] = inputs["--frame"]
    return list(inputs.values())


def _format_array(a: np.ndarray) -> str:
    return np.array2string(a, separator=", ", max_line_width=120)


def _payload(result):
    """The JSON payload of a subcommand's result."""
    if isinstance(result, FrameBounds):
        return {"A": result.lower, "B": result.upper}
    if isinstance(result, FrameClass):
        return {"class": result.value}
    if isinstance(result, Frame):
        return io.frame_payload(result)
    if isinstance(result, SolveReport):
        return {"solution": io.vector_payload(result.solution),
                "coefficients": io.vector_payload(result.coefficients),
                **{name: getattr(result, name) for name in _REPORT_SCALARS}}
    array = getattr(result, "matrix", result)
    return io.vector_payload(array) if array.ndim == 1 else io.matrix_payload(array)


def _text(result) -> str:
    """The human-readable text of a subcommand's result (costly: only without --json)."""
    if isinstance(result, FrameBounds):
        return f"A = {result.lower!r}\nB = {result.upper!r}"
    if isinstance(result, FrameClass):
        return result.value
    if isinstance(result, Frame):
        return _format_array(result.vectors)
    if isinstance(result, SolveReport):
        return "\n".join([f"solution = {_format_array(result.solution)}",
                          f"coefficients = {_format_array(result.coefficients)}",
                          *(f"{name} = {getattr(result, name)!r}" for name in _REPORT_SCALARS)])
    return _format_array(getattr(result, "matrix", result))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framerep",
        description="Frames, duals, frame-coordinate operator representations, "
        "and a frame-based operator-equation solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, call) in _subcommands().items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(call=call, flags=flags)
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.add_argument("--output", metavar="PATH", help="write the result to PATH")
        for flag, kind, required, flag_help in flags:
            p.add_argument(flag, type=kind if kind in _NUMBERS else None, required=required,
                           metavar=_NUMBERS.get(kind, "PATH"), help=flag_help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        result = args.call(*_inputs(args))
        text = io.canonical_json(_payload(result)) if args.json else _text(result) + "\n"
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except FrameRepError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
