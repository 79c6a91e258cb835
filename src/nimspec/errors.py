"""Exception types shared across the package, and `require_int`, the one
check of an integer argument (an order, a size or a count): every route
that takes one accepts and rejects the same values."""

import numbers
from typing import Optional


class NimspecError(Exception):
    pass


class InvalidParameterError(NimspecError, ValueError):
    """An argument is outside its documented range."""


def require_int(what: str, value, least: Optional[int] = None) -> int:
    """value as an int, or InvalidParameterError naming what and the value.

    Bools and non-integers are refused; an integral type such as numpy.int64
    is accepted as its int.  With least given, a value below it is refused
    too: "{what} must be non-negative" when least is 0, "{what} must be at
    least {least}" otherwise.
    """
    if type(value) is not int:      # the common case skips the ABC check
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidParameterError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise InvalidParameterError(f"{what} must be {bound}, got {value}")
    return value


class DataUnavailableError(NimspecError, KeyError):
    """No tabulated eigendata / closed form for the requested graph."""

    __str__ = Exception.__str__      # KeyError's would quote the message


class TruncationError(NimspecError):
    """A truncated graph was asked for more than its safe depth determines."""


class NoClosedFormError(NimspecError):
    """The graph has no root-of-unity closed-form measure."""


class GeneratorTranscriptionError(NimspecError):
    """Group closure ran away; the generator matrices are suspect."""


class DataIntegrityError(NimspecError):
    """Enumerated class data disagrees with the shipped character table."""


class FailedIdentityError(NimspecError):
    """An identity that should hold (exactly, or to rounding) failed."""


class SymmetryError(NimspecError):
    """A permutation claimed as a graph symmetry does not commute with the adjacency."""
