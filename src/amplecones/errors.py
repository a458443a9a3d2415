"""Exception hierarchy shared by every module of the library, the readers
through which every public entry point reads its arguments (``_integer``,
``_rationals``, the one reader of rationals, ``_coordinates`` for points and
other sequences, and ``_integer_point``), the formatting of points in its
messages, and ``_Record``, the immutable base of every value type: every
slot of the package is assigned by it or by the slot setters it hands out."""

import math
from decimal import Decimal
from fractions import Fraction

# bound on the exponent of a rational written as text or a Decimal: Fraction
# builds 10**exponent before any check runs, which takes seconds past a
# million; 4300 is Python's default limit on the digits of a printed integer
_MAX_EXPONENT = 4300
# text in a message longer than _MAX_TEXT characters is shown by its first
# _TEXT_PREFIX characters and its length
_MAX_TEXT = 60
_TEXT_PREFIX = 20
# likewise a point or sequence in a message with more than _MAX_ITEMS items
# is shown by its first _ITEM_PREFIX items and its item count
_MAX_ITEMS = 12
_ITEM_PREFIX = 8


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
    try:
        return str(n)
    except ValueError:  # past the interpreter's int-string limit, which stays as set
        return f"{'-' if n < 0 else ''}<{abs(n).bit_length()}-bit integer>"


def _items(value) -> str:
    """The items of a point or sequence in a message, joined by commas;
    past ``_MAX_ITEMS`` items, its first ``_ITEM_PREFIX`` and its count."""
    value = tuple(value)
    if len(value) > _MAX_ITEMS:
        shown = ", ".join(map(_format_coordinate, value[:_ITEM_PREFIX]))
        return f"{shown}, ... ({len(value)} items)"
    return ", ".join(map(_format_coordinate, value))


def _sequence(value, text: str) -> str:
    """A list or tuple as Python writes it, with ``text`` its joined items."""
    if type(value) is list:
        return f"[{text}]"
    return f"({text},)" if len(value) == 1 else f"({text})"


def _format_coordinate(c) -> str:
    """One item of a message: a rational as p/q, a list or tuple item by
    item (capped as in :func:`format_point`), and text quoted, so that a
    blank entry shows; text longer than ``_MAX_TEXT`` characters is cut to
    its first ``_TEXT_PREFIX`` and named by its length, so that a message
    never echoes an argument of any size."""
    if isinstance(c, Fraction):
        text = _format_integer(c.numerator)
        return text if c.denominator == 1 else f"{text}/{_format_integer(c.denominator)}"
    if type(c) in (list, tuple):
        return _sequence(c, _items(c))
    if isinstance(c, int):
        return _format_integer(c)
    if not isinstance(c, str):
        return str(c)
    if len(c) > _MAX_TEXT:
        return f"{c[:_TEXT_PREFIX]!r}... ({len(c)} characters)"
    return repr(c)


def format_point(v) -> str:
    """A point for an error message, with rationals printed as p/q.

    A numerator or denominator too long for ``str`` under the interpreter's
    integer-string limit is printed by its size in bits instead, so that
    building a message about a huge rational point never raises.  A point,
    or a sequence inside it, of more than ``_MAX_ITEMS`` items is shown by
    its first ``_ITEM_PREFIX`` items and its count, so that a message stays
    short however many entries an argument has.
    """
    return f"({_items(v)})"


def _repr(value) -> str:
    """repr(value), except that an int too long for ``str``, alone or in a
    Fraction, list or tuple, is printed by its size in bits, so that the
    repr of a value never raises."""
    if type(value) in (list, tuple):
        return _sequence(value, ", ".join(map(_repr, value)))
    if type(value) is Fraction:
        num, den = map(_format_integer, value.as_integer_ratio())
        return f"Fraction({num}, {den})"
    return _format_integer(value) if type(value) is int else repr(value)


def _integer(value, name: str, low: int | None = None, message: str = "") -> int:
    """``value``, if it is an int that is not a bool and, when ``low`` is
    given, at least ``low``.  Another type raises InvalidInput naming the
    argument ``name``; a value below ``low`` raises InvalidInput with
    ``message``, in which ``{}`` stands for the value."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise InvalidInput(f"{name} must be an int, not {type(value).__name__}")
    if low is not None and value < low:
        raise InvalidInput(message.format(_format_integer(value)))
    return value


def _rationals(values: tuple, name: str = "coordinates") -> list[Fraction]:
    """``values`` as Fractions.  Whatever ``Fraction`` reads is accepted:
    ints, Fractions, finite floats and Decimals, and text such as "3/4" or
    "1.5e-3" whose exponent is at most 4300 in absolute value.  Anything
    else, NaN and the infinities raise InvalidInput."""
    try:
        return [
            c if type(c) is Fraction
            else Fraction(c if type(c) is int else _bounded(c, name, values))
            for c in values
        ]
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InvalidInput(
            f"{name} of {format_point(values)} must be finite rational numbers"
        ) from None


def _bounded(c, name: str, values: tuple):
    """``c``, unless it is text or a Decimal written with an exponent past
    ``_MAX_EXPONENT`` in absolute value, such as "1e5000" or Decimal("1E+5000")."""
    if isinstance(c, (str, Decimal)):
        _, _, exponent = str(c).lower().partition("e")
        try:
            too_large = abs(int(exponent)) > _MAX_EXPONENT
        except ValueError:  # no exponent, or one that Fraction rejects too
            too_large = False
        if too_large:
            raise InvalidInput(
                f"{name} of {format_point(values)} must be written with exponents "
                f"of at most {_MAX_EXPONENT} in absolute value"
            )
    return c


# the types whose values _common_denominator takes apart without _rationals
_INT = frozenset([int])
_EXACT = frozenset([int, Fraction])


def _common_denominator(values, name: str = "coordinates") -> tuple[tuple[int, ...], int]:
    """The rationals ``values``, read by :func:`_rationals` under ``name``,
    as integer numerators over ``den``, the lcm of their denominators; no
    prime divides den and every numerator.  Ints and Fractions are taken
    apart as they are, with no Fraction built, and ints alone are their own
    numerators over 1."""
    kinds = set(map(type, values))
    if kinds == _INT:
        return tuple(values), 1
    if not kinds <= _EXACT:
        values = _rationals(values, name)
    ratios = [c.as_integer_ratio() for c in values]
    den = math.lcm(*[q for _, q in ratios])
    return tuple([p * (den // q) for p, q in ratios]), den


def _coordinates(v, name: str = "a vector", items: str = "coordinates", cls=None) -> tuple:
    """The coordinates of the point ``v`` as a tuple, or the items of any
    other sequence argument, which the message calls ``name`` and ``items``.
    Text is not a sequence here, since iterating it would read one item per
    character, and neither is a value that cannot be iterated.  When
    ``cls`` (a class or a tuple of classes) is given, every item must be an
    instance of it."""
    if not isinstance(v, (str, bytes, bytearray)):
        try:
            v = tuple(v)
        except TypeError:
            pass
        else:
            if cls is not None:
                for i, item in enumerate(v):
                    if not isinstance(item, cls):
                        raise InvalidInput(
                            f"{name} must be a sequence of {items}; "
                            f"item {i} is of type {type(item).__name__}"
                        )
            return v
    raise InvalidInput(f"{name} must be a sequence of {items}, not {type(v).__name__}")


def _integer_point(v, dim: int | None = None) -> tuple[int, ...]:
    """The point v as ints: v itself when it is a tuple of ints, else v
    times the lcm of its denominators, which keeps every sign and direction.
    A point of a length other than ``dim``, when given, raises
    ShapeMismatch."""
    if type(v) is not tuple:
        v = _coordinates(v)
    if dim is not None and len(v) != dim:
        raise ShapeMismatch(f"point {format_point(v)} does not live in dimension {dim}")
    if set(map(type, v)) != _INT:
        v, _ = _common_denominator(v)
    return v


class _Record:
    """Base of the package's immutable values: the value records, the
    scalars, the matrices, the polyhedral cones and the unit action.

    A subclass lists its slots in ``__slots__``.  Public slots, whose names
    do not start with ``_``, are the constructor's parameters, in order;
    slots that start with ``_`` hold state derived from them.  Every slot is
    filled once, in ``__init__`` or in a trusted builder that starts from
    ``object.__new__``.  :meth:`_set` fills them in every constructor and
    in two trusted builders (``reduction._trusted``, ``fundamental_unit``).
    The three hot builders, ``_RationalAlgebra._make`` (every scalar
    result; ``QuadIrrational._make`` extends it), ``hermitian._trusted``
    (every matrix result) and ``polyhedral._trusted`` (every intersection
    and real-multiplication domain cone), call
    instead the setters that :meth:`_slot_setters` looks up once at import:
    each slot descriptor's ``__set__``, with no loop over keyword arguments.
    One slot is filled later, through ``_set``: ``HermitianMatrix._ldl``,
    the matrix's LDL* elimination, which the first verdict on the matrix
    (or ``act``, on its image) computes and every later verdict reads;
    equality, hashing, copies and pickles ignore it.  From the public slots
    this base gives equality with values of the same class only, a hash of
    their values, a ``Name(field=value, ...)`` repr, and copies and pickles
    that are rebuilt through the public constructor, which validates
    again; assignment and deletion of any attribute raise
    ``AttributeError``.  A type whose public slots are not its
    constructor's parameters (a scalar, or a matrix, which is built from
    rows), or whose equality is coarser (a cone compares its rays as a
    set), overrides what differs.
    """

    __slots__ = ()

    def _set(self, **fields):
        """Fill the named slots of an instance under construction; returns it."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _slot_setters(cls, *names) -> tuple:
        """The ``__set__`` of each named slot's descriptor, in order: each
        fills its slot of a new instance, as ``setter(instance, value)``."""
        return tuple([getattr(cls, name).__set__ for name in names])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__ if name[0] != "_"])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={_repr(getattr(self, name))}" for name in self.__slots__ if name[0] != "_"
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
