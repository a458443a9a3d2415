"""Symmetric and Hermitian matrix cones over R, C, and H, with exact verdicts.

The open cone of positive-definite matrices in each Hermitian space is
homogeneous and self-dual for the pairing Re Tr(x y*).  The invertible
matrices act on it by D -> M* D M.  Direct sums of these cones, the shape of
every ample cone, are described by :class:`ConeSpec`.  The Lorentz cone,
which the 2 x 2 real cone matches, has a standalone predicate,
:func:`lorentz_member`, and is not a ConeSpec block.

``AlgebraMatrix`` and ``HermitianMatrix`` share one private base, which
holds the coercing constructor, immutability, equality, hashing, ``repr``,
``identity`` and ``diagonal``.  A matrix stores its value once, as integer
coefficient tuples over one positive denominator, the lcm of its entries'
denominators; the gcd of that denominator and every coefficient is 1, so
equal matrices have identical state, and equality and hashing read it.
``entries`` builds the scalars on each read.  ``star``, products, the
action, the trace pairing, ``quadratic_value``, the LDL* elimination, the
invertibility check of the action and the self-adjointness check all run on
these integers.  What differs between R, C and H sits in one table,
``_KINDS``, which gives each kind two integer kernels: ``dot``, which
accumulates a sum of products of two rows of coefficient tuples in one pass,
and ``update``, the elimination step p x + c y for an integer p.  Matrix
products, the action, ``quadratic_value`` and the negative certificate
compute each output entry with one ``dot`` call and reduce the result to
lowest terms once; the trace pairing is one sum over the flattened
coefficients.  The action M* D M is fused, with no intermediate matrix
reduced: it computes D c and c* once for each column c of M, and the upper
triangle only.

Every verdict on the cone comes from one fraction-free LDL* elimination on
those rows, run at most once per matrix: the first verdict on a
HermitianMatrix (or ``act``, on its image) stores it in its private
``_ldl`` slot, and every later verdict on it reads that slot.  A verdict takes a
HermitianMatrix only, so it never reads one triangle of a matrix that is
not self-adjoint.  Each pivot of a Hermitian Schur complement is real, so
it is central even in H, and the update S_ij <- p S_ij - S_ik S_kj scales
the complement by p > 0 and keeps every pivot sign.  The elimination skips a
zero pivot whose row is zero and stops at the first negative pivot, or zero
pivot with a nonzero row.  Definiteness and semidefiniteness read only the
pivot signs.  The witness D = L diag(delta) L* (a constructive homogeneity
certificate) is read off the recorded integer steps as the integer rows of
L over the lcm of the pivots, and the negative certificate, a violating
vector carried back through the multipliers, is built as scalars once.
The invertibility check of ``act`` is a fraction-free elimination on them,
or, on a D that a verdict has found positive definite, the LDL* elimination
of the result, which is positive definite exactly when M is invertible.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from operator import attrgetter, mul

from .errors import (
    InvalidInput,
    NotPositiveDefinite,
    ShapeMismatch,
    SingularMatrix,
    _coordinates,
    _format_coordinate,
    _integer,
    _rationals,
    _Record,
    _repr,
    format_point,
)
from .scalars import GaussianRational, RationalQuaternion, _RationalLike


class ScalarKind(enum.Enum):
    REAL = "R"
    COMPLEX = "C"
    QUATERNION = "H"

    # members are singletons, so hashing by identity agrees with equality
    # and costs no Python-level call on each lookup in _KINDS
    __hash__ = object.__hash__

    @property
    def imaginary_units(self):
        cls, width = _KINDS[self][:2]
        return tuple(
            cls(*[int(i == j) for j in range(width)]) for i in range(1, width)
        )


# The integer row kernels of each kind, on coefficient tuples; a product
# is always taken in the order written, which matters over H.
# dot(row, col) is sum_k row[k] col[k], accumulated in one pass with no
# tuple built per term: every matrix product, the action, the quadratic
# value and the negative certificate go through it.  update(p, c, x, y) is
# p x + c y for an integer p: every step of the LDL* and invertibility
# eliminations goes through it.  The C and H updates take c y from the
# scalar classes' own products.


def _dot_real(row, col) -> tuple:
    total = 0
    for (a,), (b,) in zip(row, col):
        total += a * b
    return (total,)


def _dot_complex(row, col) -> tuple:
    re = im = 0
    for (a, b), (c, d) in zip(row, col):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def _dot_quaternion(row, col) -> tuple:
    w = x = y = z = 0
    for (a, b, c, d), (e, f, g, h) in zip(row, col):
        w += a * e - b * f - c * g - d * h
        x += a * f + b * e + c * h - d * g
        y += a * g - b * h + c * e + d * f
        z += a * h + b * g - c * f + d * e
    return w, x, y, z


def _update_real(p: int, c, x, y) -> tuple:
    return (p * x[0] + c[0] * y[0],)


def _update_complex(p: int, c, x, y, product=GaussianRational._product) -> tuple:
    re, im = product(c, y)
    return p * x[0] + re, p * x[1] + im


def _update_quaternion(p: int, c, x, y, product=RationalQuaternion._product) -> tuple:
    w, i, j, k = product(c, y)
    return p * x[0] + w, p * x[1] + i, p * x[2] + j, p * x[3] + k


# What the matrix code needs to know about one scalar kind: its entry class
# and its dimension ``width`` over R.  ``split`` reads an entry as (integer
# coefficient tuple, positive denominator), ``dot`` and ``update`` are the
# kind's kernels, ``conj`` conjugates a coefficient tuple (the scalar
# class's own ``_conjugate``, and the identity on R), and ``build``
# turns an integer tuple over a positive denominator back into an entry in
# lowest terms.  Re(a b*) is the dot product of the coefficient tuples.
_Kind = namedtuple("_Kind", "cls width split dot update conj build")


def _algebra_kind(cls, width: int, dot, update) -> _Kind:
    split = attrgetter("_num", "_den")
    return _Kind(cls, width, split, dot, update, cls._conjugate, cls(0)._reduce)


_KINDS = {
    ScalarKind.REAL: _Kind(
        Fraction,
        1,
        lambda x: ((x.numerator,), x.denominator),
        _dot_real,
        _update_real,
        lambda num: num,
        lambda num, den: Fraction(num[0], den),
    ),
    ScalarKind.COMPLEX: _algebra_kind(GaussianRational, 2, _dot_complex, _update_complex),
    ScalarKind.QUATERNION: _algebra_kind(
        RationalQuaternion, 4, _dot_quaternion, _update_quaternion
    ),
}


def _kind(kind: ScalarKind) -> _Kind:
    """The row of ``kind`` in _KINDS; InvalidInput if it is not a ScalarKind."""
    if not isinstance(kind, ScalarKind):
        raise InvalidInput(f"unknown scalar kind {kind!r}; expected a ScalarKind")
    return _KINDS[kind]


def hermitian_dimension(kind: ScalarKind, r: int) -> int:
    """Real dimension of the space of r x r self-adjoint matrices over kind:
    r real diagonal entries and one scalar per pair above the diagonal."""
    _integer(r, "r", 1, "matrix size must be positive, got {}")
    return r + _kind(kind).width * r * (r - 1) // 2


def _coerce_entry(kind: ScalarKind, cls, value):
    """``value`` as a scalar of ``kind``, whose class is ``cls``."""
    if isinstance(value, cls):
        return value  # immutable, so no copy is needed
    if isinstance(value, _RationalLike):
        return cls(value)
    raise ShapeMismatch(
        f"entry {_format_coordinate(value)} does not belong to scalar kind {kind.value}"
    )


def _trusted(cls, kind: ScalarKind, rows, den: int):
    """An AlgebraMatrix or HermitianMatrix of ``kind`` with entries
    rows[i][j] / den, with no validation.

    Only results of the library's own exact arithmetic come through here: a
    result that is self-adjoint in exact arithmetic (M* D M) is so entry for
    entry.  ``rows`` is a tuple of tuples of integer coefficient tuples and
    ``den`` is positive, with no common factor of ``den`` and every
    coefficient: exactly what :func:`_integer_rows` reads off the entries.
    The public constructors keep full validation.
    """
    m = _new(cls)
    _set_kind(m, kind)
    _set_size(m, len(rows))
    _set_rows(m, rows)
    _set_den(m, den)
    return m


def _integer_rows(ops: _Kind, entries):
    """The rows of ``entries`` as integer coefficient tuples over one
    positive denominator, the lcm of the entries' denominators."""
    rows = [list(map(ops.split, row)) for row in entries]
    den = math.lcm(*[d for row in rows for _, d in row])
    return tuple([
        tuple([num if d == den else tuple([c * (den // d) for c in num]) for num, d in row])
        for row in rows
    ]), den


def _from_integers(cls, kind: ScalarKind, nums, den: int):
    """The trusted matrix of entries nums[i][j] / den for a positive den.

    Dividing every coefficient and ``den`` by their common gcd g leaves the
    rows over den / g, which is the lcm of the reduced entries'
    denominators: exactly what :func:`_integer_rows` would read.
    """
    g = math.gcd(den, *[c for row in nums for num in row for c in num])
    if g != 1:
        nums = [[tuple([c // g for c in num]) for num in row] for row in nums]
        den //= g
    return _trusted(cls, kind, tuple(map(tuple, nums)), den)


def _product_rows(dot, a, b):
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def _pairing(x, y) -> int:
    """Sum of Re(a b*) over paired entries of two integer coefficient
    matrices: the dot product of all their coefficients."""
    return sum(
        map(
            mul,
            [c for row in x for num in row for c in num],
            [c for row in y for num in row for c in num],
        )
    )


def _require_same_space(x, y):
    if x.kind is not y.kind or x.size != y.size:
        raise ShapeMismatch(
            f"operands live in different spaces: {x.kind.value}^{x.size} vs "
            f"{y.kind.value}^{y.size}"
        )


class _Matrix(_Record):
    """An immutable square matrix over one scalar kind, equal to any matrix
    of either class with the same kind and entries."""

    # _rows / _den: the entries as integer coefficient tuples over one
    # denominator, in the form of _integer_rows
    __slots__ = ("kind", "size", "_rows", "_den")

    def __init__(self, kind: ScalarKind, rows) -> None:
        rows = [_coordinates(r) for r in _coordinates(rows)]
        n = len(rows)
        if set(map(len, rows)) != {n}:  # also when n == 0
            raise ShapeMismatch("matrix must be square and nonempty")
        ops = _kind(kind)
        entries = [[_coerce_entry(kind, ops.cls, v) for v in row] for row in rows]
        rows, den = _integer_rows(ops, entries)
        self._set(kind=kind, size=n, _rows=rows, _den=den)

    @property
    def entries(self) -> tuple:
        """The entries as a tuple of row tuples of scalars of ``kind``."""
        build, den = _KINDS[self.kind].build, self._den
        return tuple(tuple([build(num, den) for num in row]) for row in self._rows)

    @classmethod
    def identity(cls, kind: ScalarKind, n: int):
        zero = (0,) * _kind(kind).width
        one = (1,) + zero[1:]
        _integer(n, "n", 1, "matrix must be square and nonempty")
        return _trusted(
            cls, kind, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), 1
        )

    @classmethod
    def diagonal(cls, kind: ScalarKind, values):
        values = _coordinates(values)
        return cls(
            kind,
            [
                [values[i] if i == j else 0 for j in range(len(values))]
                for i in range(len(values))
            ],
        )

    def __eq__(self, other):
        if not isinstance(other, _Matrix):
            return NotImplemented
        # the stored form is canonical, so equal entries give equal state
        return (
            self.kind is other.kind and self._den == other._den and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.kind, self._den, self._rows))

    def __repr__(self):
        rows = _format_coordinate([list(row) for row in self.entries])
        return f"{type(self).__name__}({self.kind.value}, {rows})"

    def __reduce__(self):
        return type(self), (self.kind, self.entries)


_new = object.__new__
_set_kind, _set_size, _set_rows, _set_den = _Matrix._slot_setters(
    "kind", "size", "_rows", "_den"
)


class AlgebraMatrix(_Matrix):
    """Square matrix over one scalar kind, with no symmetry constraint."""

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, _Matrix):
            return NotImplemented
        _require_same_space(self, other)
        return _from_integers(
            AlgebraMatrix,
            self.kind,
            _product_rows(_KINDS[self.kind].dot, self._rows, other._rows),
            self._den * other._den,
        )

    def star(self) -> "AlgebraMatrix":
        """Conjugate transpose."""
        conj = _KINDS[self.kind].conj
        rows = tuple(tuple(map(conj, col)) for col in zip(*self._rows))
        return _trusted(AlgebraMatrix, self.kind, rows, self._den)


def _is_invertible(M: _Matrix) -> bool:
    """Fraction-free Gaussian elimination on the integer rows of M.

    Over the skew field H a row is cleared by a left multiple of the pivot
    row: row_i <- N(p) row_i - (a_ic p*) row_k.  Since p* = N(p) p^{-1},
    this is N(p) (row_i - a_ic p^{-1} row_k), the exact step times a
    positive integer, so each pivot column has the zero pattern of exact
    elimination over the scalars, and so does the verdict.  The product
    order matters: [[1, i], [j, -k]] is singular.  Each updated row is
    divided by the gcd of its coefficients.
    """
    ops = _KINDS[M.kind]
    dot, update = ops.dot, ops.update
    a = [list(row) for row in M._rows]
    n = M.size
    for col in range(n):
        for r in range(col, n):
            if any(a[r][col]):
                break
        else:
            return False
        a[col], a[r] = a[r], a[col]
        below = [row for row in a[col + 1 :] if any(row[col])]
        if not below:
            continue
        p = a[col][col]
        norm = sum([c * c for c in p])
        minus_p_star = (tuple([-c for c in ops.conj(p)]),)
        tail = a[col][col + 1 :]  # columns up to col are never read again
        for row in below:
            factor = dot((row[col],), minus_p_star)  # -a_ic p*
            new = [update(norm, factor, x, y) for x, y in zip(row[col + 1 :], tail)]
            g = math.gcd(*[c for num in new for c in num])
            if g > 1:
                new = [tuple([c // g for c in num]) for num in new]
            row[col + 1 :] = new
    return True


class HermitianMatrix(_Matrix):
    """Square matrix equal to its conjugate transpose.

    The constructor verifies entries[i][j] == conj(entries[j][i]) on the
    integer rows, which share one denominator; in particular diagonal
    entries have vanishing imaginary or vector part.  The first verdict on
    a matrix runs its LDL* elimination and keeps the result; equality,
    hashing, copies and pickles ignore it.
    """

    # _ldl: the result of _eliminate, filled on the first verdict
    __slots__ = ("_ldl",)

    def __init__(self, kind: ScalarKind, rows) -> None:
        super().__init__(kind, rows)
        rows, conj = self._rows, _KINDS[kind].conj
        for i, row in enumerate(rows):
            for j in range(i, self.size):
                if row[j] != conj(rows[j][i]):
                    raise InvalidInput(
                        f"matrix is not self-adjoint at position ({i}, {j})"
                    )


def _hermitian(D, name: str) -> HermitianMatrix:
    """``D``, if it is a HermitianMatrix; ShapeMismatch naming ``name`` if not."""
    if not isinstance(D, HermitianMatrix):
        # named, not printed: a matrix's repr is long, and it raises
        # ValueError on an entry past the int-string limit
        got = "an AlgebraMatrix" if isinstance(D, AlgebraMatrix) else _format_coordinate(D)
        raise ShapeMismatch(f"{name} needs a HermitianMatrix, got {got}")
    return D


def trace_inner_product(x: HermitianMatrix, y: HermitianMatrix) -> Fraction:
    """Real part of Tr(x y*): the pairing making each matrix cone self-dual."""
    _hermitian(x, "trace_inner_product")
    _hermitian(y, "trace_inner_product")
    _require_same_space(x, y)
    return Fraction(_pairing(x._rows, y._rows), x._den * y._den)


def _eliminate(D: HermitianMatrix):
    """The LDL* elimination of D (see :func:`_elimination`): run on the first
    verdict on D, or by ``act`` on its image, and kept in D's ``_ldl`` slot,
    from which every later verdict on D reads it."""
    result = getattr(D, "_ldl", None)
    if result is None:
        result = _elimination(D)
        D._set(_ldl=result)
    return result


def _elimination(D: HermitianMatrix):
    """Fraction-free LDL* elimination of D's integer rows, stopped at the
    first sign of negativity.

    S starts as the integer rows of D, and it always equals s times the true
    Schur complement for a positive rational scale s = s_num / s_den (den at
    the start, where D = S / den).  A positive pivot p = S_kk updates the
    trailing block to p S_ij - S_ik S_kj, which is s p times the next
    complement because p is real, and the block is then divided by the gcd
    g of its coefficients, so s becomes s p / g.  The gcd division is exact
    by construction; it keeps the integers about the size of the leading
    minors, as Bareiss's division by the previous pivot does (Bareiss,
    Math. Comp. 1968).  Only the upper triangle is stored: S_ik is the
    conjugate of S_ki.

    Returns ``(steps, failure)``, all tuples.  ``steps[k]`` is ``(p, row,
    s_num, s_den)``: the integer pivot, the entries S_kj with j > k (None for
    a zero pivot whose row is zero, which is skipped), and the scale at that
    step, so that the true pivot is p s_den / s_num and the multiplier L_ik
    is S_ik / p.  ``failure`` is None exactly when D is positive
    semidefinite.  Otherwise it is ``(k, bad, s_bb, s_bk, s_num, s_den)`` for
    the step k that breaks: ``bad`` is None for a negative pivot, and for a
    zero pivot with a nonzero row it is the first row b with S_bk != 0, with
    the integers S_bb (real) and S_bk.
    """
    ops = _KINDS[D.kind]
    update = ops.update
    s_num, s_den = D._den, 1
    n = D.size
    s = [list(row) for row in D._rows]  # only entries on or above the diagonal
    steps = []
    for k in range(n):
        row = s[k]
        p = row[k][0]
        if p > 0:
            coeffs = []
            for i in range(k + 1, n):
                c = (-row[i][0],) + row[i][1:]  # -S_ik = -conj(S_ki)
                si = s[i]
                for j in range(i, n):
                    num = update(p, c, si[j], row[j])
                    si[j] = num
                    coeffs.extend(num)
            g = math.gcd(*coeffs) or 1  # 0 when the block is zero
            if g != 1:
                for i in range(k + 1, n):
                    s[i][i:] = [tuple([x // g for x in num]) for num in s[i][i:]]
            steps.append((p, tuple(row[k + 1 :]), s_num, s_den))
            s_num, s_den = s_num * p, s_den * g
            continue
        if p == 0:
            bad = next((j for j in range(k + 1, n) if any(row[j])), None)
            if bad is None:
                steps.append((p, None, s_num, s_den))
                continue
            failure = (k, bad, s[bad][bad][0], ops.conj(row[bad]), s_num, s_den)
            return tuple(steps), failure
        return tuple(steps), (k, None, None, None, s_num, s_den)
    return tuple(steps), None


def _in_cone(D: HermitianMatrix, closed: bool) -> bool:
    """Membership of D in the closed cone (no negative pivot and no zero
    pivot with a nonzero row) or in the open one (every pivot positive)."""
    steps, failure = _eliminate(D)
    return failure is None and (closed or all([step[0] for step in steps]))


def is_positive_definite(D: HermitianMatrix) -> bool:
    """Membership in the open cone: all pivots of exact LDL* are positive."""
    return _in_cone(_hermitian(D, "is_positive_definite"), False)


def ldl_witness(D: HermitianMatrix):
    """Unit lower-triangular L and positive diagonal delta with
    D = L diag(delta) L*, i.e. act(L*, diag(delta)) = D exactly."""
    if not _in_cone(_hermitian(D, "ldl_witness"), False):
        raise NotPositiveDefinite("matrix has a non-positive pivot")
    steps = _eliminate(D)[0]
    ops = _KINDS[D.kind]
    conj = ops.conj
    n = D.size
    den = math.lcm(*[step[0] for step in steps])
    zero = (0,) * ops.width
    lower = [[(den,) + zero[1:] if i == j else zero for j in range(n)] for i in range(n)]
    delta = []
    for k, (p, row, s_num, s_den) in enumerate(steps):
        delta.append(Fraction(p * s_den, s_num))
        scale = den // p
        for i, num in enumerate(row, k + 1):
            lower[i][k] = tuple([scale * c for c in conj(num)])  # S_ik / p over den
    return _from_integers(AlgebraMatrix, D.kind, lower, den), tuple(delta)


def is_positive_semidefinite(D: HermitianMatrix) -> bool:
    """Membership in the closed cone, with exact zero-pivot handling."""
    return _in_cone(_hermitian(D, "is_positive_semidefinite"), True)


def quadratic_value(D: HermitianMatrix, v) -> Fraction:
    """The (automatically real) value v* D v for a coordinate vector v."""
    _hermitian(D, "quadratic_value")
    v = _coordinates(v)
    if len(v) != D.size:
        raise ShapeMismatch("vector length does not match matrix size")
    ops = _KINDS[D.kind]
    (vv,), v_den = _integer_rows(ops, [[_coerce_entry(D.kind, ops.cls, c) for c in v]])
    # v* D v = sum_i Re(v_i* w_i) for w = D v, and Re(v_i* w_i) = Re(w_i v_i*)
    # even over H, so it is the pairing of w and v as one-row matrices
    w = [ops.dot(row, vv) for row in D._rows]
    return Fraction(_pairing([w], [vv]), D._den * v_den * v_den)


def negative_certificate(D: HermitianMatrix):
    """A vector v with v* D v < 0, or None when D is positive semidefinite.

    The LDL* elimination runs until it breaks at step k, where a local
    vector w has w* S w < 0 on the true Schur complement S: w = e_k for a
    negative pivot, and w = t e_k + e_b for a zero pivot with S_bk != 0,
    with t = -(S_bb + 1) / (2 |S_bk|^2) conj(S_bk), so that
    w* S w = S_bb - 2 (S_bb + 1) / 2 = -1.  It is carried back through the
    multipliers as v = L^{-*} w, so that v* D v = w* S w < 0.  All of it runs
    on integer tuples over one denominator, and v is built once.
    """
    steps, failure = _eliminate(_hermitian(D, "negative_certificate"))
    if failure is None:
        return None
    ops = _KINDS[D.kind]
    k, bad, s_bb, s_bk, s_num, s_den = failure
    zero = (0,) * ops.width
    v = [zero] * D.size  # integer tuples over v_den
    if bad is None:
        v[k], v_den = (1,) + zero[1:], 1
    else:
        # the integers are s times the true ones, so with s = s_num / s_den,
        # t = -(S_bb + s) / (2 N(S_bk)) conj(S_bk) on the integer S
        shift = s_bb * s_den + s_num
        v_den = 2 * s_den * sum([c * c for c in s_bk])
        v[k] = tuple([-shift * c for c in ops.conj(s_bk)])
        v[bad] = (v_den,) + zero[1:]
    for i in reversed(range(k)):
        p, row = steps[i][:2]
        if row is None:
            continue  # a skipped step leaves a unit column of L, so v_i = 0
        # v_i = -sum_{j > i} conj(L_ji) v_j, and conj(L_ji) = S_ij / p
        total = ops.dot(row, v[i + 1 :])
        v = [tuple([p * c for c in num]) for num in v]
        v[i] = tuple([-c for c in total])
        v_den *= p
    return tuple([ops.build(num, v_den) for num in v])


def act(M: AlgebraMatrix, D: HermitianMatrix) -> HermitianMatrix:
    """The cone automorphism D -> M* D M for invertible M.

    A singular M raises SingularMatrix.  When a verdict has already found D
    positive definite, M* D M is positive definite exactly when M is
    invertible, so the check is the LDL* elimination of the result, which
    the result keeps for its own verdicts; otherwise M goes through the
    fraction-free elimination of :func:`_is_invertible`.
    """
    if not isinstance(M, _Matrix):
        raise ShapeMismatch(f"act needs a matrix M, got {_format_coordinate(M)}")
    _hermitian(D, "act")
    _require_same_space(M, D)
    # read D's kept elimination, never start one
    on_cone = getattr(D, "_ldl", None) is not None and _in_cone(D, False)
    if not on_cone and not _is_invertible(M):
        raise SingularMatrix("action matrix is singular")
    ops = _KINDS[D.kind]
    dot, conj = ops.dot, ops.conj
    m_rows, d_rows = M._rows, D._rows
    n = D.size
    nums = [[None] * n for _ in range(n)]
    star = []  # row i of M*: the conjugated column i of M
    for j in range(n):
        col = [row[j] for row in m_rows]
        star.append([conj(c) for c in col])
        dm_col = [dot(row, col) for row in d_rows]  # column j of D M
        for i in range(j + 1):
            num = dot(star[i], dm_col)
            nums[i][j] = num
            if i != j:
                # M* D M is self-adjoint, so entry (j, i) is exactly the
                # conjugate of entry (i, j)
                nums[j][i] = conj(num)
    image = _from_integers(HermitianMatrix, D.kind, nums, M._den * D._den * M._den)
    if on_cone and not _in_cone(image, False):
        raise SingularMatrix("action matrix is singular")
    return image


class LorentzVector(_Record):
    """A point (x0, ..., xn) of the ambient space of the spherical cone."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(_rationals(_coordinates(coords)))
        if len(coords) < 2:
            raise InvalidInput("Lorentz vectors need at least two coordinates")
        self._set(coords=coords)

    def __repr__(self):
        return f"LorentzVector({_repr(list(self.coords))})"

    def __str__(self):
        return f"LorentzVector{format_point(self.coords)}"


def lorentz_member(v: LorentzVector, *, closed: bool = False) -> bool:
    """x0 > sqrt(x1^2 + ... + xn^2), decided without square roots."""
    x0 = v.coords[0]
    rest = sum(c * c for c in v.coords[1:])
    if closed:
        return x0 >= 0 and x0 * x0 >= rest
    return x0 > 0 and x0 * x0 > rest


class PDBlock(_Record):
    __slots__ = ("kind", "size")

    def __init__(self, kind: ScalarKind, size: int):
        _kind(kind)  # reject a bad kind here, not when .dimension reads it
        _integer(size, "size", 1, "block size must be positive")
        self._set(kind=kind, size=size)

    @property
    def dimension(self) -> int:
        return hermitian_dimension(self.kind, self.size)


class ConeSpec(_Record):
    """Formal direct sum of positive-definite matrix cones, one PDBlock each:
    by Albert's classification, every ample cone is one."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = _coordinates(blocks, "a cone", "blocks", PDBlock)
        if not blocks:
            raise InvalidInput("a cone needs at least one block")
        self._set(blocks=blocks)

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    def __repr__(self):
        return f"ConeSpec({list(self.blocks)})"


def cone_member(spec: ConeSpec, parts, *, closed: bool = False) -> bool:
    """Blockwise membership in the direct sum; every block must pass.

    ``parts`` pairs each block with a HermitianMatrix, in block order.
    """
    parts = _coordinates(parts, "parts", "block components")
    if len(parts) != len(spec.blocks):
        raise ShapeMismatch(
            f"expected {len(spec.blocks)} block components, got {len(parts)}"
        )
    for block, part in zip(spec.blocks, parts):
        _hermitian(part, "PD block")
        if part.kind is not block.kind or part.size != block.size:
            raise ShapeMismatch(
                f"component {part.kind.value}^{part.size} does not match "
                f"block {block.kind.value}^{block.size}"
            )
        if not _in_cone(part, closed):
            return False
    return True


def hermitian_basis(kind: ScalarKind, r: int) -> list[HermitianMatrix]:
    """Explicit basis of the r x r self-adjoint matrices over kind.

    Diagonal units E_ii, symmetric pairs E_ij + E_ji, and for each imaginary
    unit u the skew combinations u(E_ij - E_ji); the count always equals
    hermitian_dimension(kind, r).
    """
    count = hermitian_dimension(kind, r)  # validates kind and r
    basis = []

    def build(assign):
        rows = [[0] * r for _ in range(r)]
        for (i, j), v in assign.items():
            rows[i][j] = v
        return HermitianMatrix(kind, rows)

    for i in range(r):
        basis.append(build({(i, i): 1}))
    for i in range(r):
        for j in range(i + 1, r):
            basis.append(build({(i, j): 1, (j, i): 1}))
            for u in kind.imaginary_units:
                basis.append(build({(i, j): u, (j, i): -u}))
    assert len(basis) == count
    return basis
