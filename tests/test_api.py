"""The public API is pinned: adding or removing a name needs an edit here."""

import framerep

PUBLIC = [
    "CONDITION_WARN_RATIO",
    "DecompositionFailed",
    "DimensionMismatch",
    "Frame",
    "FrameBounds",
    "FrameClass",
    "FrameRepError",
    "IncompatibleFrames",
    "LinearOperator",
    "NotAFrame",
    "ParseError",
    "RANK_RTOL",
    "Representation",
    "SectionTooLarge",
    "SolveOptions",
    "SolveReport",
    "TIGHT_RTOL",
    "biorthogonal",
    "discretize",
    "finite_section",
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
    "pseudoinverse",
    "range_map_check",
    "rank_one",
    "roundtrip_reconstruct",
    "serialize_frame",
    "serialize_matrix",
    "serialize_vector",
    "solve",
    "standard_basis",
    "svd",
]


def test_all_is_the_pinned_sorted_list():
    assert framerep.__all__ == PUBLIC
    assert PUBLIC == sorted(PUBLIC)
    assert len(PUBLIC) == 44


def test_every_public_name_resolves():
    namespace = {}
    exec("from framerep import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(framerep, name)
