"""Exception types shared across the package."""


class TpsError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TpsError):
    """Operand shapes are incompatible with the requested operation."""


class SingularMatrixError(TpsError):
    """A linear system has no usable pivot (magnitude below threshold)."""


class InvalidGridError(TpsError):
    """Control-point grid parameters are unusable (fewer than 2 points)."""


class DegenerateGridError(TpsError):
    """Control-point configuration yields a singular interpolation system."""


class MissingParameterError(TpsError):
    """A forward pass requested a weight name absent from the store."""


class FormatError(TpsError):
    """A file does not conform to the expected binary/text format."""


class TruncationError(FormatError):
    """A file ended before its declared payload was complete."""


class DuplicateEntryError(FormatError):
    """A weight file declares the same tensor name twice."""


class ValidationError(TpsError):
    """A deserialized value violates a documented invariant."""
