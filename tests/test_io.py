"""Tests for the frame/matrix/vector file formats."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framerep import (
    DimensionMismatch,
    Frame,
    ParseError,
    parse_frame,
    parse_matrix,
    parse_vector,
    serialize_frame,
    serialize_matrix,
    serialize_vector,
)
from helpers import random_complex


class TestFrameFormat:
    def test_parse_golden(self):
        text = '{"version":1,"dim":2,"vectors":[[1,0,0,0],[0,0,1,0],[1,0,1,0]]}'
        frame = parse_frame(text)
        assert frame.count == 3
        assert frame.space_dim == 2
        assert np.array_equal(frame.vectors, [[1, 0], [0, 1], [1, 1]])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(70)
        frame = Frame(random_complex(rng, 5, 3))
        again = parse_frame(serialize_frame(frame))
        assert np.array_equal(again.vectors, frame.vectors)

    def test_serialize_is_byte_stable(self):
        rng = np.random.default_rng(71)
        frame = Frame(random_complex(rng, 4, 4))
        once = serialize_frame(frame)
        assert serialize_frame(parse_frame(once)) == once
        assert once.endswith("\n")
        assert "\r" not in once

    def test_empty_vectors_rejected(self):
        with pytest.raises(ParseError, match="at least one vector"):
            parse_frame('{"version":1,"dim":2,"vectors":[]}')

    def test_ragged_rows_rejected(self):
        text = '{"version":1,"dim":2,"vectors":[[1,0,0,0],[1,0]]}'
        with pytest.raises(DimensionMismatch):
            parse_frame(text)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_frame('{"version":1,\n"dim":2,"vectors":[[1,0,0,0],]}')

    def test_wrong_version(self):
        with pytest.raises(ParseError, match="version"):
            parse_frame('{"version":2,"dim":1,"vectors":[[1,0]]}')

    @pytest.mark.parametrize("version, shown", [("true", "True"), ("1.0", "1.0")],
                             ids=["version_bool", "version_float"])
    def test_version_is_the_integer_1(self, version, shown):
        with pytest.raises(ParseError, match=f"unsupported format version {shown},"):
            parse_frame('{"version":%s,"dim":1,"vectors":[[1,0]]}' % version)

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            parse_frame("[1,2,3]")

    def test_nan_literal_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_frame('{"version":1,"dim":1,"vectors":[[NaN,0]]}')

    def test_overflowing_number_rejected(self):
        with pytest.raises(DimensionMismatch, match="non-finite"):
            parse_frame('{"version":1,"dim":1,"vectors":[[1e999,0]]}')

    @pytest.mark.parametrize("fields, message", [
        ('"dim":0,"vectors":[[1,0]]', "'dim' must be a positive integer, got 0"),
        ('"dim":true,"vectors":[[1,0]]', "'dim' must be a positive integer, got True"),
        ('"dim":"2","vectors":[[1,0]]', "'dim' must be a positive integer, got '2'"),
        ('"dim":1,"vectors":{"0":[1,0]}', "'vectors' must be an array of rows"),
        ('"dim":1,"vectors":[[1,0],3]', "vector 1 must be an array of numbers"),
    ], ids=["dim_zero", "dim_bool", "dim_string", "vectors_object", "row_number"])
    def test_malformed_field_rejected(self, fields, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_frame('{"version":1,%s}' % fields)

    def test_non_numeric_entry(self):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_frame('{"version":1,"dim":1,"vectors":[["x",0]]}')

    def test_first_non_numeric_entry_is_named(self):
        # booleans are JSON literals, not numbers
        with pytest.raises(ParseError, match="vector 1 contains a non-numeric entry True"):
            parse_frame('{"version":1,"dim":2,"vectors":[[1,0,0,0],[1,true,"x",0]]}')

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_beyond_float_range_rejected(self, sign):
        big = sign + "1" + "0" * 400
        with pytest.raises(DimensionMismatch, match="non-finite"):
            parse_frame('{"version":1,"dim":1,"vectors":[[1,0],[%s,0]]}' % big)
        with pytest.raises(DimensionMismatch, match="non-finite"):
            parse_matrix('{"version":1,"rows":1,"cols":1,"entries":[0,%s]}' % big)

    def test_numbers_convert_as_python_floats(self):
        # the per-entry float() conversion is the reference
        row = [2**53 + 1, -(2**70) - 3, 12345678901234567891, 0.1, -7, 1e308, 5e-324, 0]
        text = json.dumps({"version": 1, "dim": 4, "vectors": [row]})
        expected = [complex(float(re), float(im)) for re, im in zip(row[0::2], row[1::2])]
        assert parse_frame(text).vectors.tolist() == [expected]


class TestMatrixFormat:
    def test_csv_real(self):
        assert np.array_equal(parse_matrix("2,1\n1,2"), [[2, 1], [1, 2]])

    def test_csv_ignores_trailing_newline(self):
        assert parse_matrix("1,2\n3,4\n").shape == (2, 2)

    def test_csv_ragged(self):
        with pytest.raises(ParseError, match="ragged"):
            parse_matrix("1,2\n3")

    def test_csv_bad_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("1,2\n3,x")

    def test_csv_empty(self):
        with pytest.raises(ParseError):
            parse_matrix("\n\n")

    def test_json_roundtrip_random_complex(self):
        rng = np.random.default_rng(72)
        m = random_complex(rng, 3, 4)
        again = parse_matrix(serialize_matrix(m))
        assert np.array_equal(again, m)

    def test_serialize_parse_serialize_stable(self):
        rng = np.random.default_rng(73)
        m = random_complex(rng, 2, 5)
        once = serialize_matrix(m)
        assert serialize_matrix(parse_matrix(once)) == once

    def test_entries_count_mismatch(self):
        with pytest.raises(DimensionMismatch, match="entries has 4 floats, expected 8"):
            parse_matrix('{"version":1,"rows":2,"cols":2,"entries":[1,0,2,0]}')

    def test_entries_not_an_array(self):
        with pytest.raises(ParseError, match="'entries' must be an array of numbers"):
            parse_matrix('{"version":1,"rows":1,"cols":1,"entries":{"re":1,"im":0}}')

    def test_odd_float_count(self):
        with pytest.raises(ParseError, match="pairs"):
            parse_matrix('{"version":1,"rows":1,"cols":1,"entries":[1,0,2]}')

    @pytest.mark.parametrize("version, shown", [("true", "True"), ("1.0", "1.0")],
                             ids=["version_bool", "version_float"])
    def test_version_is_the_integer_1(self, version, shown):
        with pytest.raises(ParseError, match=f"unsupported format version {shown},"):
            parse_matrix('{"version":%s,"rows":1,"cols":1,"entries":[1,0]}' % version)

    def test_bad_dims(self):
        with pytest.raises(ParseError):
            parse_matrix('{"version":1,"rows":0,"cols":2,"entries":[]}')

    @pytest.mark.parametrize("fields, message", [
        ('"rows":1,"cols":true', "'cols' must be a positive integer, got True"),
        ('"rows":1.0,"cols":1', "'rows' must be a positive integer, got 1.0"),
        ('"rows":1', "'cols' must be a positive integer, got None"),
    ], ids=["cols_bool", "rows_float", "cols_missing"])
    def test_malformed_dims_rejected(self, fields, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_matrix('{"version":1,%s,"entries":[1,0]}' % fields)

    def test_canonical_form_shape(self):
        text = serialize_matrix(np.array([[1.5 + 0.25j]]))
        obj = json.loads(text)
        assert list(obj) == ["version", "rows", "cols", "entries"]
        assert obj == {"version": 1, "rows": 1, "cols": 1, "entries": [1.5, 0.25]}
        assert text.count("\n") == 1 and text.endswith("\n")


class TestVectorFormat:
    def test_column_vector(self):
        v = parse_vector('{"version":1,"rows":3,"cols":1,"entries":[1,0,2,0,3,0]}')
        assert np.array_equal(v, [1, 2, 3])

    def test_row_vector(self):
        v = parse_vector('{"version":1,"rows":1,"cols":3,"entries":[1,0,2,0,3,0]}')
        assert np.array_equal(v, [1, 2, 3])

    def test_rejects_full_matrix(self):
        with pytest.raises(DimensionMismatch):
            parse_vector('{"version":1,"rows":2,"cols":2,"entries":[1,0,0,0,0,0,1,0]}')

    def test_roundtrip(self):
        rng = np.random.default_rng(74)
        v = random_complex(rng, 6)
        assert np.array_equal(parse_vector(serialize_vector(v)), v)

    def test_csv_column(self):
        assert np.array_equal(parse_vector("1\n2\n3"), [1, 2, 3])


#: Any finite float64: signed zeros, subnormals and values up to the float maximum.
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def complex_arrays(draw, ndim):
    shape = draw(st.tuples(*[st.integers(1, 4)] * ndim))
    size = int(np.prod(shape))
    parts = draw(st.lists(st.tuples(finite_floats, finite_floats), min_size=size, max_size=size))
    z = np.empty(shape, dtype=np.complex128)
    z.real = np.reshape([real for real, _ in parts], shape)
    z.imag = np.reshape([imag for _, imag in parts], shape)
    return z


FORMATS = {
    "frame": (lambda z: serialize_frame(Frame(z)), lambda text: parse_frame(text).vectors, 2),
    "matrix": (serialize_matrix, parse_matrix, 2),
    "vector": (serialize_vector, parse_vector, 1),
}


@pytest.mark.parametrize("kind", FORMATS)
def test_roundtrip_is_exact(kind):
    """Every finite float, signed zeros included, survives a round trip bit for bit."""
    serialize, parse, ndim = FORMATS[kind]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(z=complex_arrays(ndim))
    @example(z=np.full((1,) * ndim, complex(1.0, -0.0)))
    @example(z=np.full((2,) * ndim, complex(-0.0, -0.0)))
    @example(z=np.full((1,) * ndim, complex(-1.7e308, 5e-324)))
    def check(z):
        text = serialize(z)
        again = parse(text)
        assert again.shape == z.shape
        assert np.array_equal(again.view(np.uint64), z.view(np.uint64))
        assert serialize(again) == text

    check()
