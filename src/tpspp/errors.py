"""Exception types shared across the package."""


class TpsError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TpsError):
    """Operand shapes are incompatible with the requested operation."""


class DegenerateGridError(TpsError):
    """A singular linear system, or a non-finite transform or coordinate."""


class FormatError(TpsError):
    """A file does not conform to the expected binary/text format."""


class ValidationError(TpsError):
    """A deserialized value violates a documented invariant."""
