"""Exception types shared across the package."""


class FrameRepError(Exception):
    """Base class for all errors raised by framerep."""


class DimensionMismatch(FrameRepError):
    """Operand shapes are incompatible for the requested operation."""


class NotAFrame(FrameRepError):
    """The family breaks the rank rule: K < n, or C's ``s_min <= sqrt(RANK_RTOL) s_max``."""


class SectionTooLarge(FrameRepError):
    """Requested finite section exceeds the matrix dimensions."""


class DecompositionFailed(FrameRepError):
    """A LAPACK decomposition did not converge, or an inversion met a singular matrix."""


class IncompatibleFrames(FrameRepError):
    """Representations cannot be combined: inner frames are not a dual pair."""


class ParseError(FrameRepError):
    """Input text could not be parsed into a frame, matrix or vector."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column
