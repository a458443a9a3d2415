"""Exception hierarchy shared by every module of the library, the
formatting of points in its messages, and the base of its value records."""

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


class _Record:
    """Base of the package's immutable value records, in place of
    ``@dataclass(frozen=True)``, whose generated methods cost import time.

    A subclass lists its fields in ``__slots__``, in order, and sets them in
    an ``__init__`` that takes them in that order, with
    ``object.__setattr__``.  From the slots this base gives what the frozen
    dataclass gave: equality with records of the same class only, a hash of
    the field values, a ``Name(field=value, ...)`` repr, assignment and
    deletion that raise ``AttributeError``, and copies and pickles that are
    rebuilt through the constructor.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
