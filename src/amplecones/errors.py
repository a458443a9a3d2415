"""Exception hierarchy shared by every module of the library, and the
formatting of points in its messages."""

import sys
from fractions import Fraction


class AmpleconesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(AmpleconesError):
    """An argument violates a documented precondition."""


class PerfectSquareInput(InvalidInput):
    """A radicand that must be irrational is a perfect square."""


class ShapeMismatch(AmpleconesError):
    """Operands have incompatible dimensions, sizes, or scalar kinds."""


class SingularMatrix(AmpleconesError):
    """A matrix that must be invertible is not."""


class NotPositiveDefinite(AmpleconesError):
    """A matrix or form that must be positive definite is not."""


class Unsupported(AmpleconesError):
    """The operation is deliberately not provided for this input."""


class UnsupportedDimension(Unsupported):
    """The operation is only implemented up to a fixed dimension."""


class NotInCone(AmpleconesError):
    """A point that must lie in the relevant cone does not."""


class NotFundamental(AmpleconesError):
    """Group translates of the candidate cone miss a point within the search bound."""


class PreconditionViolated(AmpleconesError):
    """A structural precondition of a verification routine fails."""


def _format_integer(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    if limit and abs(n) >= 10**limit:  # str(n) would raise ValueError
        return f"{'-' if n < 0 else ''}<{abs(n).bit_length()}-bit integer>"
    return str(n)


def _format_coordinate(c) -> str:
    if isinstance(c, Fraction):
        text = _format_integer(c.numerator)
        return text if c.denominator == 1 else f"{text}/{_format_integer(c.denominator)}"
    return _format_integer(c) if isinstance(c, int) else str(c)


def format_point(v) -> str:
    """A point for an error message, with rationals printed as p/q.

    A numerator or denominator too long for ``str`` under the interpreter's
    integer-string limit is printed by its size in bits instead, so that
    building a message about a huge rational point never raises.
    """
    return "(" + ", ".join(map(_format_coordinate, v)) + ")"
