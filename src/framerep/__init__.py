"""Frames, duals, and frame-coordinate matrix representations of operators.

The package realizes the operator/matrix correspondence over frames in
finite-dimensional complex Hilbert spaces: frame construction and
classification, canonical duals, Gram matrices, the representation map
``op -> C_phi @ op @ D_psi`` and its inverse direction
``matrix -> D_phi @ matrix @ C_psi``, frame multipliers, integral-kernel
assembly, and a frame-discretized least-squares solver for ``O f = g``.
"""

from .exceptions import (
    DecompositionFailed,
    DimensionMismatch,
    FrameRepError,
    IncompatibleFrames,
    NotAFrame,
    ParseError,
    SectionTooLarge,
)
from .frames import Frame, FrameClass, biorthogonal, gram
from .io import (
    parse_frame,
    parse_matrix,
    parse_vector,
    serialize_frame,
    serialize_matrix,
    serialize_vector,
)
from .linalg import frobenius_norm, operator_norm
from .represent import (
    LinearOperator,
    Representation,
    frame_multiplier,
    hs_norm,
    identity_operator,
    kernel_of_representation,
    matrix_of_operator,
    operator_from_images,
    operator_of_matrix,
    range_map_check,
    rank_one,
    roundtrip_reconstruct,
)
from .solve import (
    SolveOptions,
    SolveReport,
    project_onto_analysis_range,
    solve,
)

__version__ = "0.1.0"

__all__ = [
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
