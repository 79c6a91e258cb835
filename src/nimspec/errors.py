"""Exception types shared across the package, and the integer check that
raises one of them."""

import numbers


class NimspecError(Exception):
    pass


class InvalidParameterError(NimspecError, ValueError):
    """A constructor argument is outside its documented range."""


def require_int(what: str, value) -> int:
    """value as an int, or InvalidParameterError naming it (bools are refused)."""
    if type(value) is int:          # the common case, without the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{what} must be an integer, got {value!r}")
    return int(value)


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
