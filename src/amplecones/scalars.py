"""Exact arithmetic over the coefficient rings used everywhere in the library.

Four scalar families, all with arbitrary-precision integer backbones:

* ``Rational`` -- an alias of :class:`fractions.Fraction` (eagerly reduced,
  positive denominator, structural equality for free);
* :class:`QuadIrrational` -- elements a + b*sqrt(d) of a real quadratic field,
  with d a fixed squarefree integer >= 2;
* :class:`GaussianRational` -- elements of Q(i);
* :class:`RationalQuaternion` -- the rational Hamilton quaternions.

The last two store a tuple of integer numerators over one positive common
denominator, in lowest terms, and do their arithmetic on those integers;
results come from a private trusted constructor, and a ``Fraction`` is built
only where a coefficient is read out.

On top of these sit continued fractions of square roots, fundamental units of
the orders Z[sqrt(d)], total positivity, and the unit-group rank formula
r1 + r2 - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput, PerfectSquareInput

Rational = Fraction

_RationalLike = (int, Fraction)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def squarefree_part(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; returns (s, d)."""
    s, d = 1, 1
    p = 2
    m = n
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= m
    return s, d


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n >= 1)."""
    return n >= 1 and squarefree_part(n)[0] == 1


def _check_sqrt_input(d: int) -> None:
    if not isinstance(d, int) or d < 2:
        raise InvalidInput(f"radicand must be an integer >= 2, got {d!r}")
    if is_perfect_square(d):
        raise PerfectSquareInput(f"{d} is a perfect square")


def _check_order_input(d: int) -> None:
    _check_sqrt_input(d)
    if not is_squarefree(d):
        raise InvalidInput(f"{d} is not squarefree")


class QuadIrrational:
    """a + b*sqrt(d) with rational a, b and a fixed squarefree d >= 2.

    Values with different d never mix; combining them raises ``InvalidInput``
    rather than coercing.  Plain integers and rationals embed as b = 0.
    """

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a, b) -> None:
        _check_order_input(d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("QuadIrrational is immutable")

    def _wrap(self, a, b) -> "QuadIrrational":
        # results share self.d, which the public constructor checked
        obj = object.__new__(QuadIrrational)
        object.__setattr__(obj, "d", self.d)
        object.__setattr__(obj, "a", Fraction(a))
        object.__setattr__(obj, "b", Fraction(b))
        return obj

    def _coerce(self, other):
        if isinstance(other, QuadIrrational):
            if other.d != self.d:
                raise InvalidInput(
                    f"cannot mix sqrt({self.d}) and sqrt({other.d}) values"
                )
            return other
        if isinstance(other, _RationalLike):
            return self._wrap(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadIrrational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic irrational")
        return self._wrap(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return self._wrap(-self.a, -self.b)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self._wrap(1, 0)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "QuadIrrational":
        """The Galois conjugate a - b*sqrt(d)."""
        return self._wrap(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2."""
        return self.a * self.a - self.d * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(d)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against d*b^2
        lhs, rhs = a * a, self.d * b * b
        if lhs == rhs:
            return 0
        bigger_is_rational = lhs > rhs
        return (1 if bigger_is_rational else -1) * (1 if a > 0 else -1)

    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, QuadIrrational):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, _RationalLike):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.d, self.a, self.b))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadIrrational({self.d}, {self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        b = self.b
        root = f"√{self.d}"
        if b == 1:
            tail = root
        elif b == -1:
            tail = f"-{root}"
        elif b.denominator == 1:
            tail = f"{b}{root}"
        else:
            tail = f"({b}){root}"
        if self.a == 0:
            return tail
        sign = "+" if b > 0 else ""
        return f"{self.a}{sign}{tail}"


class _RationalAlgebra:
    """Value semantics shared by the rational algebras Q(i) and H(Q).

    An element is stored as a tuple ``_num`` of Python integers over one
    positive common denominator ``_den``, kept in lowest terms (the gcd of
    the denominator and every numerator is 1), so that equal values have
    identical state.  The coefficients are taken on a basis whose first
    vector is 1: conjugation negates every other coefficient and the norm is
    the sum of their squares.  Arithmetic works on the integers alone and
    reduces each result with one ``math.gcd``; a ``Fraction`` is built only
    where a coefficient leaves the class (``real``, ``norm``, the named
    coefficient properties, ``repr``/``str`` and ``hash``).  A subclass
    supplies its coefficient names, the product ``_product(a, b)`` of two
    numerator tuples, and ``__str__``.  Plain integers and rationals embed as
    real elements; elements of two different algebras never mix.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, *coeffs) -> None:
        nums, dens = zip(*[Fraction(c).as_integer_ratio() for c in coeffs])
        # each coefficient is in lowest terms, so over the lcm of their
        # denominators the numerators and the denominator stay coprime
        den = math.lcm(*dens)
        if den != 1:
            nums = tuple([n * (den // d) for n, d in zip(nums, dens)])
        object.__setattr__(self, "_num", nums)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, num: tuple, den: int):
        """Trusted constructor: ``num``/``den`` already in lowest terms."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "_num", num)
        object.__setattr__(obj, "_den", den)
        return obj

    @classmethod
    def _reduce(cls, num: tuple, den: int):
        """The element num/den for integers num and den > 0."""
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
        return cls._make(num, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _parts(self, other):
        """(numerators, denominator) of an operand, or None if it is foreign."""
        if isinstance(other, type(self)):
            return other._num, other._den
        if isinstance(other, _RationalLike):
            zeros = (0,) * (len(self._num) - 1)
            return (other.numerator,) + zeros, other.denominator
        return None

    def _fraction(self, index: int) -> Fraction:
        return Fraction(self._num[index], self._den)

    def _fractions(self) -> tuple:
        return tuple(Fraction(n, self._den) for n in self._num)

    @property
    def real(self) -> Fraction:
        return self._fraction(0)

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        num, den = o
        return self._reduce(
            tuple(a * den + b * self._den for a, b in zip(self._num, num)),
            self._den * den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        num, den = o
        return self._reduce(
            tuple(a * den - b * self._den for a, b in zip(self._num, num)),
            self._den * den,
        )

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._make(*o) - self

    def __neg__(self):
        return self._make(tuple(-c for c in self._num), self._den)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        num, den = o
        return self._reduce(self._product(self._num, num), self._den * den)

    def __rmul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        num, den = o
        return self._reduce(self._product(num, self._num), den * self._den)

    def conjugate(self):
        first, *rest = self._num
        return self._make((first,) + tuple(-c for c in rest), self._den)

    def norm(self) -> Fraction:
        """Sum of the squared coefficients; zero only at zero."""
        return Fraction(sum(c * c for c in self._num), self._den * self._den)

    def _inverse(self, num: tuple, den: int):
        # (num/den)^{-1} = conj(num) * den / |num|^2
        n = sum(c * c for c in num)
        if n == 0:
            raise ZeroDivisionError(f"division by zero {type(self).__name__}")
        first, *rest = num
        return (first * den,) + tuple(-c * den for c in rest), n

    def inverse(self):
        return self._reduce(*self._inverse(self._num, self._den))

    def __truediv__(self, other):
        """Right division: self * other^{-1}."""
        o = self._parts(other)
        if o is None:
            return NotImplemented
        num, den = self._inverse(*o)
        return self._reduce(self._product(self._num, num), self._den * den)

    def __rtruediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        num, den = self._inverse(self._num, self._den)
        return self._reduce(self._product(o[0], num), o[1] * den)

    def __bool__(self):
        return any(self._num)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self._num == other._num and self._den == other._den
        if isinstance(other, _RationalLike):
            return (
                not any(self._num[1:])
                and self._num[0] == other.numerator
                and self._den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        if any(self._num[1:]):
            return hash(self._fractions())
        return hash(self.real)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._fractions()))})"


class GaussianRational(_RationalAlgebra):
    """Elements re + im*i of Q(i)."""

    __slots__ = ()

    def __init__(self, re, im=0) -> None:
        super().__init__(re, im)

    re = property(lambda self: self._fraction(0))
    im = property(lambda self: self._fraction(1))

    @staticmethod
    def _product(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class RationalQuaternion(_RationalAlgebra):
    """Hamilton quaternions w + x*i + y*j + z*k over Q.

    Multiplication is associative but not commutative; conjugation negates
    the vector part and the reduced norm w^2 + x^2 + y^2 + z^2 vanishes only
    at zero, so every nonzero element is invertible.
    """

    __slots__ = ()

    def __init__(self, w, x=0, y=0, z=0) -> None:
        super().__init__(w, x, y, z)

    w = property(lambda self: self._fraction(0))
    x = property(lambda self: self._fraction(1))
    y = property(lambda self: self._fraction(2))
    z = property(lambda self: self._fraction(3))

    @staticmethod
    def _product(p, q):
        a, b, c, d = p
        e, f, g, h = q
        return (
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __str__(self):
        parts = []
        for coeff, unit in zip(self._fractions(), ("", "i", "j", "k")):
            if coeff == 0:
                continue
            sign = "+" if coeff > 0 and parts else ""
            parts.append(f"{sign}{coeff}{unit}")
        return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class UnitElement:
    """A unit a + b*sqrt(d) of the order Z[sqrt(d)], tagged with its norm."""

    value: QuadIrrational
    norm: int

    def __post_init__(self):
        if self.norm not in (1, -1):
            raise InvalidInput(f"unit norm must be +-1, got {self.norm}")
        v = self.value
        if v.a.denominator != 1 or v.b.denominator != 1:
            raise InvalidInput("unit must lie in Z[sqrt(d)]")
        if v.norm() != self.norm:
            raise InvalidInput("declared norm does not match value")


def continued_fraction_sqrt(d: int) -> tuple[int, list[int]]:
    """Integer part and full period of the simple continued fraction of sqrt(d).

    The returned period is palindromic apart from its final term, which
    always equals twice the integer part.
    """
    _check_sqrt_input(d)
    a0 = math.isqrt(d)
    period: list[int] = []
    m, den, a = 0, 1, a0
    while True:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        period.append(a)
        if den == 1:
            return a0, period


def fundamental_unit(d: int) -> UnitElement:
    """Smallest unit a + b*sqrt(d) of Z[sqrt(d)] with a, b > 0.

    Computed from the continued-fraction convergent one step before the
    period of sqrt(d) closes; the norm a^2 - d*b^2 is (-1)^(period length).
    """
    _check_order_input(d)
    a0, period = continued_fraction_sqrt(d)
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    for q in period[:-1]:
        h, h_prev = q * h + h_prev, h
        k, k_prev = q * k + k_prev, k
    value = QuadIrrational(d, h, k)
    return UnitElement(value=value, norm=int(h * h - d * k * k))


def is_totally_positive(x: QuadIrrational) -> bool:
    """True iff both real embeddings of x are positive."""
    return x.sign() > 0 and x.conjugate().sign() > 0


def dirichlet_rank(r1: int, r2: int) -> int:
    """Rank r1 + r2 - 1 of the unit group of a field with signature (r1, r2)."""
    if r1 < 0 or r2 < 0 or r1 + r2 < 1:
        raise InvalidInput(f"signature ({r1}, {r2}) is not a number field signature")
    return r1 + r2 - 1
