"""Exact arithmetic over the coefficient rings used everywhere in the library.

Four scalar families, all with arbitrary-precision integer backbones:

* ``Rational`` -- an alias of :class:`fractions.Fraction` (eagerly reduced,
  positive denominator, structural equality for free);
* :class:`QuadIrrational` -- elements a + b*sqrt(d) of a real quadratic field,
  with d a fixed squarefree integer >= 2;
* :class:`GaussianRational` -- elements of Q(i);
* :class:`RationalQuaternion` -- the rational Hamilton quaternions.

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
        return QuadIrrational(self.d, a, b)

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


class GaussianRational:
    """Elements re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0) -> None:
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, _RationalLike):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

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
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RationalLike):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class RationalQuaternion:
    """Hamilton quaternions w + x*i + y*j + z*k over Q.

    Multiplication is associative but not commutative; conjugation negates
    the vector part and the reduced norm w^2 + x^2 + y^2 + z^2 vanishes only
    at zero, so every nonzero element is invertible.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x=0, y=0, z=0) -> None:
        object.__setattr__(self, "w", Fraction(w))
        object.__setattr__(self, "x", Fraction(x))
        object.__setattr__(self, "y", Fraction(y))
        object.__setattr__(self, "z", Fraction(z))

    def __setattr__(self, name, value):
        raise AttributeError("RationalQuaternion is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalQuaternion):
            return other
        if isinstance(other, _RationalLike):
            return RationalQuaternion(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalQuaternion(
            self.w + o.w, self.x + o.x, self.y + o.y, self.z + o.z
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalQuaternion(
            self.w - o.w, self.x - o.x, self.y - o.y, self.z - o.z
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = o.w, o.x, o.y, o.z
        return RationalQuaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def inverse(self) -> "RationalQuaternion":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quaternion")
        c = self.conjugate()
        return RationalQuaternion(c.w / n, c.x / n, c.y / n, c.z / n)

    def __truediv__(self, other):
        """Right division: self * other^{-1}."""
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
        return RationalQuaternion(-self.w, -self.x, -self.y, -self.z)

    def conjugate(self) -> "RationalQuaternion":
        return RationalQuaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> Fraction:
        """Reduced norm w^2 + x^2 + y^2 + z^2."""
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    def __bool__(self):
        return bool(self.w or self.x or self.y or self.z)

    def __eq__(self, other):
        if isinstance(other, RationalQuaternion):
            return (
                self.w == other.w
                and self.x == other.x
                and self.y == other.y
                and self.z == other.z
            )
        if isinstance(other, _RationalLike):
            return self.x == 0 and self.y == 0 and self.z == 0 and self.w == other
        return NotImplemented

    def __hash__(self):
        if self.x == 0 and self.y == 0 and self.z == 0:
            return hash(self.w)
        return hash((self.w, self.x, self.y, self.z))

    def __repr__(self):
        return (
            f"RationalQuaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"
        )

    def __str__(self):
        parts = []
        for coeff, unit in ((self.w, ""), (self.x, "i"), (self.y, "j"), (self.z, "k")):
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
