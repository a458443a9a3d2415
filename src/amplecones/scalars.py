"""Exact arithmetic over the coefficient rings used everywhere in the library.

Three scalar families beside :class:`fractions.Fraction`, all with
arbitrary-precision integer backbones:

* :class:`QuadIrrational` -- elements a + b*sqrt(d) of a real quadratic field,
  with d a fixed squarefree integer >= 2;
* :class:`GaussianRational` -- elements of Q(i);
* :class:`RationalQuaternion` -- the rational Hamilton quaternions.

The three share one base class, ``_RationalAlgebra``: each stores a
tuple of integer numerators over one positive common denominator, in lowest
terms, and does its arithmetic on those integers; results come from a
private trusted constructor, and a ``Fraction`` is built only where a
coefficient is read out.  Integer formulas are written once, for the sum,
negation, product (each class supplies its own), conjugation (negation of
every coefficient past the first, written out for Q(i) and H, whose
matrices call it in their inner loops) and the norm form, which is the sum
of squares by default and the indefinite a^2 - d*b^2 for Q(sqrt(d)).  The
other operators derive from these, a rational r being central:
x - y = x + (-y), r - x = (-x) + r, r * x = x * r, x^{-1} = conj(x) / N(x),
x / y = x * y^{-1} and r / x = x^{-1} * r.

On top of these sit the perfect-square tests for integers and rationals,
continued fractions of square roots, fundamental units of the orders
Z[sqrt(d)] (read off half the period of sqrt(d) and built with no
re-validation), total positivity, and the unit-group rank formula
r1 + r2 - 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    InvalidInput,
    PerfectSquareInput,
    _common_denominator,
    _format_coordinate,
    _format_integer,
    _integer,
    _rationals,
    _Record,
    _repr,
    format_point,
)

_RationalLike = (int, Fraction)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def is_square_rational(q) -> bool:
    """Is the positive rational q the square of a rational number?"""
    (q,) = _rationals((q,), "value")
    if q <= 0:
        raise InvalidInput(f"expected a positive rational, got {_format_coordinate(q)}")
    return is_perfect_square(q.numerator) and is_perfect_square(q.denominator)


# trial divisors stop here: every n below 2^64 still factors, since its
# cube root is below 2^22, and the longest run takes well under a second
_TRIAL_LIMIT = 1 << 22


def squarefree_part(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; returns (s, d).

    Trial division runs only while p^3 <= m for the cofactor m left by it.
    Every prime factor of m is then at least p, so m has at most two of
    them: m is 1, a prime q, a product q r of two distinct primes, or a
    square q^2, and only the last is a perfect square.  The cost grows with
    the cube root of n, so a divisor p past 2^22 with p^3 <= m raises
    InvalidInput.  n <= 1 gives (1, n).
    """
    s, d = 1, 1
    p = 2
    m = n
    while p * p * p <= m:
        if p > _TRIAL_LIMIT:
            raise InvalidInput(
                f"cannot factor a {n.bit_length()}-bit integer: trial division "
                f"stops at 2^22, which factors every integer below 2^64"
            )
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if m > 1 and is_perfect_square(m):
        return s * math.isqrt(m), d
    return s, d * m


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n >= 1)."""
    return _integer(n, "n") >= 1 and squarefree_part(n)[0] == 1


def _check_sqrt_input(d: int) -> None:
    _integer(d, "radicand", 2, "radicand must be an integer >= 2, got {}")
    if is_perfect_square(d):
        raise PerfectSquareInput(f"{_format_integer(d)} is a perfect square")


def _check_order_input(d: int) -> None:
    _check_sqrt_input(d)
    if not is_squarefree(d):
        raise InvalidInput(f"{_format_integer(d)} is not squarefree")


class _RationalAlgebra(_Record):
    """Value semantics shared by Q(sqrt(d)), Q(i) and H(Q).

    An element is stored as a tuple ``_num`` of Python integers over one
    positive common denominator ``_den``, kept in lowest terms (the gcd of
    the denominator and every numerator is 1), so that equal values have
    identical state.  The coefficients are taken on a basis whose first
    vector is 1: conjugation negates every other coefficient, and the norm is
    the quadratic form ``_norm_form`` of the numerators over ``_den``
    squared, by default the sum of their squares.  Arithmetic works on the
    integers alone and reduces each result with one ``math.gcd``; a
    ``Fraction`` is built only where a coefficient leaves the class
    (``norm``, the named coefficient properties, ``repr``/``str`` and
    ``hash``).  A subclass supplies its coefficient names, the product
    ``_product(a, b)`` of two numerator tuples, and ``__str__``, and may
    write ``_conjugate`` out for its width; one with per-instance state
    (the radicand of Q(sqrt(d))) extends ``_make`` to copy it into every
    result and ``_same_algebra`` to compare it.  Plain integers and
    rationals embed as the first coefficient; elements of two different
    algebras never mix.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, *coeffs) -> None:
        nums, den = _common_denominator(coeffs, "coefficients")
        self._set(_num=nums, _den=den)

    def _make(self, num: tuple, den: int):
        """Trusted constructor of an element of self's algebra: ``num``/``den``
        already in lowest terms."""
        new = _new(self.__class__)
        _set_num(new, num)
        _set_den(new, den)
        return new

    def _reduce(self, num: tuple, den: int):
        """The element num/den for integers num and den != 0."""
        g = math.gcd(den, *num)
        if den < 0:  # an indefinite norm form can make den negative
            g = -g
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
        return self._make(num, den)

    def __reduce__(self):
        # the constructor takes the coefficients, which are not slots
        return type(self), self._fractions()

    def _parts(self, other):
        """(numerators, denominator) of an operand, or None if it is foreign."""
        if other.__class__ is self.__class__ or isinstance(other, type(self)):
            return other._num, other._den
        if isinstance(other, _RationalLike):
            zeros = (0,) * (len(self._num) - 1)
            return (other.numerator,) + zeros, other.denominator
        return None

    def _same_algebra(self, other) -> bool:
        """Whether ``other``, of self's class, lies in the same algebra."""
        return True

    def _fraction(self, index: int) -> Fraction:
        return Fraction(self._num[index], self._den)

    def _fractions(self) -> tuple:
        return tuple(Fraction(n, self._den) for n in self._num)

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        num, den = o
        own = self._den
        return self._reduce(
            tuple([a * den + b * own for a, b in zip(self._num, num)]), own * den
        )

    __radd__ = __add__

    def __neg__(self):
        return self._make(tuple([-c for c in self._num]), self._den)

    def __sub__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        num, den = o
        return self._reduce(self._product(self._num, num), self._den * den)

    __rmul__ = __mul__

    @staticmethod
    def _conjugate(num: tuple) -> tuple:
        return (num[0],) + tuple([-c for c in num[1:]])

    def conjugate(self):
        return self._make(self._conjugate(self._num), self._den)

    @staticmethod
    def _norm_form(num: tuple) -> int:
        return sum(c * c for c in num)

    def norm(self) -> Fraction:
        """The element times its conjugate, a rational number."""
        return Fraction(self._norm_form(self._num), self._den * self._den)

    def inverse(self):
        # (num/den)^{-1} = conj(num) * den / N(num); N may be negative
        n = self._norm_form(self._num)
        if n == 0:
            raise ZeroDivisionError(f"division by zero {type(self).__name__}")
        return self._reduce(tuple(c * self._den for c in self._conjugate(self._num)), n)

    def __truediv__(self, other):
        """Right division: self * other^{-1}."""
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self * self._make(*o).inverse()

    def __rtruediv__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        return self.inverse() * other

    def __bool__(self):
        return any(self._num)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return (
                self._num == other._num
                and self._den == other._den
                and self._same_algebra(other)
            )
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
        return hash(self._fraction(0))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(_repr, self._fractions()))})"


class QuadIrrational(_RationalAlgebra):
    """a + b*sqrt(d) with rational a, b and a fixed squarefree d >= 2.

    Values with different d never mix; combining them raises ``InvalidInput``
    rather than coercing.  Plain integers and rationals embed as b = 0.  The
    norm a^2 - d*b^2 is indefinite, so it is negative on elements such as
    1 + sqrt(2).
    """

    __slots__ = ("d",)

    def __init__(self, d: int, a, b) -> None:
        _check_order_input(d)
        self._set(d=d)
        super().__init__(a, b)

    def __reduce__(self):
        return QuadIrrational, (self.d, *self._fractions())

    def _make(self, num: tuple, den: int):
        # results share self.d, which the public constructor checked
        new = super()._make(num, den)
        _set_d(new, self.d)
        return new

    def _parts(self, other):
        if isinstance(other, QuadIrrational) and other.d != self.d:
            raise InvalidInput(f"cannot mix sqrt({self.d}) and sqrt({other.d}) values")
        return super()._parts(other)

    def _same_algebra(self, other) -> bool:
        return other.d == self.d

    a = property(lambda self: self._fraction(0))
    b = property(lambda self: self._fraction(1))

    def _product(self, p, q):
        return (p[0] * q[0] + self.d * p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def _norm_form(self, num: tuple) -> int:
        a, b = num
        return a * a - self.d * b * b

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(d)."""
        a, b = self._num  # over a positive denominator
        sign_a, sign_b = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sign_a == sign_b or not sign_b:
            return sign_a
        if not sign_a:
            return sign_b
        # opposite signs: a^2 = d*b^2 is impossible for a non-square d
        return sign_a if a * a > self.d * b * b else sign_b

    def is_rational(self) -> bool:
        return not self._num[1]

    def __repr__(self):
        return f"QuadIrrational({_format_integer(self.d)}, {_repr(self.a)}, {_repr(self.b)})"

    def __str__(self):
        if self.is_rational():
            return _format_coordinate(self.a)
        a, b = self.a, self.b
        size = abs(b)
        if size == 1:
            coefficient = ""
        elif size.denominator == 1:
            coefficient = _format_coordinate(size)
        else:
            coefficient = f"({_format_coordinate(size)})"
        head = _format_coordinate(a) if a else ""
        sign = "-" if b < 0 else "+" if a else ""
        return f"{head}{sign}{coefficient}√{_format_integer(self.d)}"


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

    @staticmethod
    def _conjugate(num: tuple) -> tuple:
        return (num[0], -num[1])

    def __str__(self):
        if self.im == 0:
            return _format_coordinate(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{_format_coordinate(self.re)}{sign}{_format_coordinate(abs(self.im))}i"


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

    @staticmethod
    def _conjugate(num: tuple) -> tuple:
        a, b, c, d = num
        return (a, -b, -c, -d)

    def __str__(self):
        parts = []
        for coeff, unit in zip(self._fractions(), ("", "i", "j", "k")):
            if coeff == 0:
                continue
            sign = "+" if coeff > 0 and parts else ""
            parts.append(f"{sign}{_format_coordinate(coeff)}{unit}")
        return "".join(parts) if parts else "0"


_new = object.__new__
_set_num, _set_den = _RationalAlgebra._slot_setters("_num", "_den")
(_set_d,) = QuadIrrational._slot_setters("d")


class UnitElement(_Record):
    """A unit a + b*sqrt(d) of the order Z[sqrt(d)], tagged with its norm."""

    __slots__ = ("value", "norm")

    def __init__(self, value: QuadIrrational, norm: int):
        if _integer(norm, "norm") not in (1, -1):
            raise InvalidInput(f"unit norm must be +-1, got {_format_integer(norm)}")
        if value.a.denominator != 1 or value.b.denominator != 1:
            raise InvalidInput("unit must lie in Z[sqrt(d)]")
        if value.norm() != norm:
            raise InvalidInput("declared norm does not match value")
        self._set(value=value, norm=norm)


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
    """Smallest unit h + k*sqrt(d) of Z[sqrt(d)] with h, k > 0.

    h/k is the convergent of sqrt(d) one step before its period
    a_1 ... a_L closes, and the norm h^2 - d*k^2 is (-1)^L.  Only half the
    period is walked.  With A(t) = [[t, 1], [1, 0]], the convergent
    h_n/k_n is the first column of A(a_0) A(a_1) ... A(a_n), and
    a_1 ... a_{L-1} reads the same backwards, so the product of its A(a_i)
    is V V^T for L = 2s + 1 and V A(a_s) V^T for L = 2s, V being the
    product of the first s or s - 1 of them.  That gives
    k = k_s^2 + k_{s-1}^2 (norm -1) or k = k_{s-1} (k_s + k_{s-2})
    (norm +1), and then h = isqrt(d*k^2 + norm).  The centre is read off
    the complete quotients (m_i + sqrt(d)) / q_i: L = 2s + 1 at the first
    s with q_{s+1} = q_s, and L = 2s at the first s with m_{s+1} = m_s.
    The recurrence is written out here and in ``continued_fraction_sqrt``
    alike, because one generator shared by both made this walk 18-37 %
    slower.  The unit is built without the public constructors' checks,
    which hold by construction.
    """
    _check_order_input(d)
    a0 = math.isqrt(d)
    # state s: the complete quotient (m + sqrt(d)) / q, its term a, and the
    # convergent denominators k = k_s and k_prev = k_{s-1}
    m, q, a = 0, 1, a0
    k_prev, k = 0, 1
    while True:
        m_next = q * a - m
        q_next = (d - m_next * m_next) // q
        if q_next == q:  # L = 2s + 1
            k, norm = k * k + k_prev * k_prev, -1
            break
        if m_next == m:  # L = 2s, and k_{s-2} = k - a * k_prev
            k, norm = k_prev * (2 * k - a * k_prev), 1
            break
        m, q = m_next, q_next
        a = (a0 + m) // q
        k, k_prev = a * k + k_prev, k
    value = _new(QuadIrrational)._set(d=d, _num=(math.isqrt(d * k * k + norm), k), _den=1)
    return _new(UnitElement)._set(value=value, norm=norm)


def is_totally_positive(x: QuadIrrational) -> bool:
    """True iff both real embeddings of x are positive."""
    return x.sign() > 0 and x.conjugate().sign() > 0


def dirichlet_rank(r1: int, r2: int) -> int:
    """Rank r1 + r2 - 1 of the unit group of a field with signature (r1, r2)."""
    if _integer(r1, "r1") < 0 or _integer(r2, "r2") < 0 or r1 + r2 < 1:
        raise InvalidInput(f"signature {format_point((r1, r2))} is not a number field signature")
    return r1 + r2 - 1
