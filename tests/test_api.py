"""The public API is pinned: adding or removing a name needs an edit here."""

import importlib

import pytest

import framerep

PUBLIC = [
    "DecompositionFailed",
    "DimensionMismatch",
    "Frame",
    "FrameClass",
    "FrameRepError",
    "IncompatibleFrames",
    "LinearOperator",
    "NotAFrame",
    "ParseError",
    "Representation",
    "SectionTooLarge",
    "SolveOptions",
    "SolveReport",
    "biorthogonal",
    "frame_multiplier",
    "frobenius_norm",
    "gram",
    "hs_norm",
    "identity_operator",
    "kernel_of_representation",
    "matrix_of_operator",
    "operator_from_images",
    "operator_norm",
    "operator_of_matrix",
    "parse_frame",
    "parse_matrix",
    "parse_vector",
    "project_onto_analysis_range",
    "range_map_check",
    "rank_one",
    "roundtrip_reconstruct",
    "serialize_frame",
    "serialize_matrix",
    "serialize_vector",
    "solve",
]


def test_all_is_the_pinned_sorted_list():
    assert framerep.__all__ == PUBLIC
    assert PUBLIC == sorted(PUBLIC)
    assert len(PUBLIC) == 35


def test_every_public_name_resolves():
    namespace = {}
    exec("from framerep import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(framerep, name)


@pytest.mark.parametrize("home, name", [
    ("frames", "CONDITION_WARN_RATIO"),
    ("frames", "FrameBounds"),
    ("frames", "RANK_RTOL"),
    ("frames", "TIGHT_RTOL"),
    ("linalg", "svd"),
])
def test_internal_name_lives_in_its_home_module(home, name):
    # importable where it is defined, but not part of the package's namespace
    assert hasattr(importlib.import_module(f"framerep.{home}"), name)
    assert not hasattr(framerep, name)
