"""File formats for frames, matrices and vectors.

JSON is the canonical interchange; complex entries are stored as interleaved
(re, im) float pairs to stay inside plain JSON.  The pairs are exactly the
memory layout of numpy's complex128, so they are read and written as a view
of that memory, and every float, signed zeros included, round-trips bit for
bit.  Canonical output is a single compact line, UTF-8, LF-terminated, with
floats rendered in their shortest exact (round-trip) form, so
serialize(parse(serialize(x))) is byte-stable.

Schemas (format version 1):

* frame:  ``{"version":1,"dim":n,"vectors":[[re,im,...2n floats], ...]}``
* matrix: ``{"version":1,"rows":r,"cols":c,"entries":[re,im,... 2rc floats]}``

``parse_matrix`` also accepts plain CSV for real matrices, one row per line.
Vectors travel as single-column (or single-row) matrices.
"""

from __future__ import annotations

import json

import numpy as np

from .exceptions import DimensionMismatch, ParseError
from .frames import Frame
from .linalg import as_matrix, as_vector

FORMAT_VERSION = 1


def _reject_constant(token: str):
    raise ParseError(f"non-finite literal {token!r} is not allowed")


def _load_json(text: str) -> dict:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _header(obj: dict, *names: str) -> list[int]:
    """Check the format version; return the fields ``names``, each a positive integer."""
    version = obj.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r}, expected {FORMAT_VERSION}")
    values = [obj.get(name) for name in names]
    for name, value in zip(names, values):
        if type(value) is not int or value < 1:
            raise ParseError(f"'{name}' must be a positive integer, got {value!r}")
    return values


#: The types ``json.loads`` gives JSON numbers; ``bool`` is deliberately absent.
_NUMBER_TYPES = {int, float}


def _float_row(row, expected_len: int, what: str) -> np.ndarray:
    if not isinstance(row, list):
        raise ParseError(f"{what} must be an array of numbers")
    if len(row) % 2 != 0:
        raise ParseError(f"{what} must hold (re, im) pairs, got odd length {len(row)}")
    if len(row) != expected_len:
        raise DimensionMismatch(
            f"{what} has {len(row)} floats, expected {expected_len}"
        )
    if not set(map(type, row)) <= _NUMBER_TYPES:
        bad = next(x for x in row if type(x) not in _NUMBER_TYPES)
        raise ParseError(f"{what} contains a non-numeric entry {bad!r}")
    try:
        return np.asarray(row, dtype=np.float64)
    except OverflowError:
        # an integer literal beyond the float range, which a float literal
        # such as 1e999 would have turned into inf
        raise DimensionMismatch(f"{what} contains non-finite entries") from None


def canonical_json(obj) -> str:
    """Render a JSON payload in canonical form: compact, one line, LF-ended."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


# -- frames ---------------------------------------------------------------

def parse_frame(text: str) -> Frame:
    """Parse the JSON frame format into a :class:`Frame`."""
    obj = _load_json(text)
    (dim,) = _header(obj, "dim")
    rows = obj.get("vectors")
    if not isinstance(rows, list):
        raise ParseError("'vectors' must be an array of rows")
    if not rows:
        raise ParseError("frame must contain at least one vector")
    flat = np.concatenate([_float_row(row, 2 * dim, f"vector {k}") for k, row in enumerate(rows)])
    return Frame(flat.view(np.complex128).reshape(len(rows), dim))


def frame_payload(frame: Frame) -> dict:
    """The frame as a canonical-order JSON object."""
    rows = np.ascontiguousarray(frame.vectors).view(np.float64).tolist()
    return {"version": FORMAT_VERSION, "dim": frame.space_dim, "vectors": rows}


def serialize_frame(frame: Frame) -> str:
    """Canonical JSON text for a frame."""
    return canonical_json(frame_payload(frame))


# -- matrices -------------------------------------------------------------

def _parse_matrix_json(obj: dict) -> np.ndarray:
    rows, cols = _header(obj, "rows", "cols")
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise ParseError("'entries' must be an array of numbers")
    return _float_row(entries, 2 * rows * cols, "entries").view(np.complex128).reshape(rows, cols)


def _parse_matrix_csv(text: str) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            row = [float(cell) for cell in cells]
        except ValueError as exc:
            raise ParseError(f"invalid number in CSV: {exc}", line=lineno) from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(
                f"ragged CSV row: {len(row)} columns, expected {width}", line=lineno
            )
        rows.append(row)
    if not rows:
        raise ParseError("empty CSV input")
    return np.asarray(rows, dtype=np.float64).astype(np.complex128)


def parse_matrix(text: str) -> np.ndarray:
    """Parse a complex matrix from JSON (canonical) or real-valued CSV."""
    if text.lstrip().startswith("{"):
        return as_matrix(_parse_matrix_json(_load_json(text)), "parsed matrix")
    return as_matrix(_parse_matrix_csv(text), "parsed matrix")


def matrix_payload(matrix) -> dict:
    """The matrix as a canonical-order JSON object."""
    m = as_matrix(matrix)
    return {
        "version": FORMAT_VERSION,
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": np.ascontiguousarray(m).view(np.float64).ravel().tolist(),
    }


def serialize_matrix(matrix) -> str:
    """Canonical JSON text for a complex matrix."""
    return canonical_json(matrix_payload(matrix))


# -- vectors (single-column matrices) --------------------------------------

def parse_vector(text: str) -> np.ndarray:
    """Parse a vector stored as a 1 x n or n x 1 matrix."""
    m = parse_matrix(text)
    if m.shape[0] != 1 and m.shape[1] != 1:
        raise DimensionMismatch(
            f"expected a single-row or single-column matrix, got {m.shape[0]}x{m.shape[1]}"
        )
    return m.ravel()


def vector_payload(v) -> dict:
    """The vector as a single-column matrix JSON object."""
    v = as_vector(v)
    return matrix_payload(v.reshape(-1, 1))


def serialize_vector(v) -> str:
    """Canonical JSON text for a vector, stored as an n x 1 matrix."""
    return canonical_json(vector_payload(v))
