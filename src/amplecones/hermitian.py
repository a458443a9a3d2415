"""Symmetric and Hermitian matrix cones over R, C, and H, with exact verdicts.

The open cone of positive-definite matrices in each Hermitian space is
homogeneous and self-dual for the pairing Re Tr(x y*).  Every verdict on it
comes from one exact LDL* elimination (all pivots are rational because
Hermitian diagonals are): it skips a zero pivot whose row is zero and stops
at the first negative pivot, or zero pivot with a nonzero row, carrying a
violating vector back through its multipliers.  Definiteness,
semidefiniteness, the witness D = L diag(delta) L* (a constructive
homogeneity certificate) and the negative certificate are all read off that
one pass.  The scalars of all three kinds expose ``real`` and
``conjugate()``, so the elimination has no per-kind branches.  The
invertible matrices act by D -> M* D M.  Direct sums of these cones and of
Lorentz cones are described by :class:`ConeSpec`.

Matrix products, the action and the trace pairing share one integer kernel
with no per-kind branch either: each operand matrix is read once as integer
coefficient tuples over one common denominator (the lcm of its entries'
denominators), each output entry is an integer sum of tuple products, and it
is reduced to lowest terms once.  The action M* D M is fused, with no
intermediate matrix reduced, and computes the upper triangle only.

The 27-dimensional exceptional cone is representable as a block tag only;
every arithmetic operation on it raises :class:`~amplecones.errors.Unsupported`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, mul
from typing import Callable, NamedTuple

from .errors import (
    InvalidInput,
    NotPositiveDefinite,
    ShapeMismatch,
    SingularMatrix,
    Unsupported,
)
from .scalars import GaussianRational, RationalQuaternion

_RationalLike = (int, Fraction)


class ScalarKind(enum.Enum):
    REAL = "R"
    COMPLEX = "C"
    QUATERNION = "H"
    OCTONION = "O"

    @property
    def imaginary_units(self):
        cls, width = _kind(self)[:2]
        return tuple(
            cls(*[int(i == j) for j in range(width)]) for i in range(1, width)
        )


class _Kind(NamedTuple):
    """What the matrix code needs to know about one scalar kind.

    ``split`` reads an entry as (integer coefficient tuple, positive
    denominator), ``product`` multiplies two coefficient tuples, and
    ``build`` turns an integer tuple over a positive denominator back into
    an entry in lowest terms.  Conjugation negates every coefficient but the
    first, and Re(a b*) is the dot product of the coefficient tuples.
    """

    cls: type | None
    width: int  # dimension over R
    zero: object = None
    one: object = None
    split: Callable | None = None
    product: Callable | None = None
    build: Callable | None = None


def _algebra_kind(cls, width: int) -> _Kind:
    zero = cls(0)
    return _Kind(
        cls, width, zero, cls(1), attrgetter("_num", "_den"), cls._product, zero._reduce
    )


# octonion arithmetic is not provided, so that kind has no class
_KINDS = {
    ScalarKind.REAL: _Kind(
        Fraction,
        1,
        Fraction(0),
        Fraction(1),
        lambda x: ((x.numerator,), x.denominator),
        lambda p, q: (p[0] * q[0],),
        lambda num, den: Fraction(num[0], den),
    ),
    ScalarKind.COMPLEX: _algebra_kind(GaussianRational, 2),
    ScalarKind.QUATERNION: _algebra_kind(RationalQuaternion, 4),
    ScalarKind.OCTONION: _Kind(None, 8),
}


def _kind(kind: ScalarKind) -> _Kind:
    ops = _KINDS[kind]
    if ops.cls is None:
        raise Unsupported("octonion arithmetic is not provided")
    return ops


def hermitian_dimension(kind: ScalarKind, r: int) -> int:
    """Real dimension of the space of r x r self-adjoint matrices over kind:
    r real diagonal entries and one scalar per pair above the diagonal."""
    if r < 1:
        raise InvalidInput(f"matrix size must be positive, got {r}")
    if kind is ScalarKind.OCTONION and r != 3:
        raise Unsupported("the exceptional cone exists only in size 3")
    return r + _KINDS[kind].width * r * (r - 1) // 2


def _coerce_entry(kind: ScalarKind, value):
    cls = _kind(kind).cls
    if isinstance(value, cls):
        return value  # immutable, so no copy is needed
    if isinstance(value, _RationalLike):
        return cls(value)
    raise ShapeMismatch(f"entry {value!r} does not belong to scalar kind {kind.value}")


def _trusted(cls, kind: ScalarKind, entries):
    """An AlgebraMatrix or HermitianMatrix of ``kind`` from a tuple of entry
    tuples that are already scalars of that kind, with no validation.

    Only results of the library's own exact arithmetic come through here:
    their entries have the right kind by construction, and a result that is
    self-adjoint in exact arithmetic (M* D M, L diag L*) is so entry for
    entry.  The public constructors keep full validation.
    """
    obj = object.__new__(cls)
    object.__setattr__(obj, "kind", kind)
    object.__setattr__(obj, "size", len(entries))
    object.__setattr__(obj, "entries", entries)
    return obj


def _zero(kind: ScalarKind):
    return _kind(kind).zero


def _one(kind: ScalarKind):
    return _kind(kind).one


def _integer_rows(ops: _Kind, entries):
    """The rows of ``entries`` as integer coefficient tuples over one
    positive denominator, the lcm of the entries' denominators."""
    rows = [list(map(ops.split, row)) for row in entries]
    den = math.lcm(*[d for row in rows for _, d in row])
    return [
        [num if d == den else tuple([c * (den // d) for c in num]) for num, d in row]
        for row in rows
    ], den


def _conjugate(num: tuple) -> tuple:
    return (num[0],) + tuple([-c for c in num[1:]])


def _dot(product, row, col) -> tuple:
    """The integer coefficient tuple of sum_k row[k] col[k]."""
    return tuple(map(sum, zip(*map(product, row, col))))


def _product_rows(product, a, b):
    cols = list(zip(*b))
    return [[_dot(product, row, col) for col in cols] for row in a]


def _pairing(x, y) -> int:
    """Sum of Re(a b*) over paired entries of two integer coefficient
    matrices: the dot product of all their coefficients."""
    return sum(
        sum(map(mul, p, q)) for rx, ry in zip(x, y) for p, q in zip(rx, ry)
    )


class AlgebraMatrix:
    """Square matrix over one scalar kind, with no symmetry constraint."""

    __slots__ = ("kind", "size", "entries")

    def __init__(self, kind: ScalarKind, rows) -> None:
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ShapeMismatch("matrix must be square and nonempty")
        entries = tuple(
            tuple(_coerce_entry(kind, v) for v in row) for row in rows
        )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraMatrix is immutable")

    @classmethod
    def identity(cls, kind: ScalarKind, n: int) -> "AlgebraMatrix":
        one, zero = _one(kind), _zero(kind)
        return cls(kind, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, kind: ScalarKind, values) -> "AlgebraMatrix":
        values = list(values)
        zero = _zero(kind)
        return cls(
            kind,
            [
                [values[i] if i == j else zero for j in range(len(values))]
                for i in range(len(values))
            ],
        )

    def _require_compatible(self, other):
        if self.kind is not other.kind or self.size != other.size:
            raise ShapeMismatch(
                f"incompatible matrices: {self.kind.value}^{self.size} vs "
                f"{other.kind.value}^{other.size}"
            )

    def __mul__(self, other):
        if isinstance(other, HermitianMatrix):
            other = other.to_algebra()
        if not isinstance(other, AlgebraMatrix):
            return NotImplemented
        self._require_compatible(other)
        ops = _KINDS[self.kind]
        a, da = _integer_rows(ops, self.entries)
        b, db = _integer_rows(ops, other.entries)
        den, build = da * db, ops.build
        return _trusted(
            AlgebraMatrix,
            self.kind,
            tuple(
                tuple([build(num, den) for num in row])
                for row in _product_rows(ops.product, a, b)
            ),
        )

    def __add__(self, other):
        if isinstance(other, HermitianMatrix):
            other = other.to_algebra()
        if not isinstance(other, AlgebraMatrix):
            return NotImplemented
        self._require_compatible(other)
        return _trusted(
            AlgebraMatrix,
            self.kind,
            tuple(
                tuple(a + b for a, b in zip(row, other_row))
                for row, other_row in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self):
        return _trusted(
            AlgebraMatrix,
            self.kind,
            tuple(tuple(-v for v in row) for row in self.entries),
        )

    def star(self) -> "AlgebraMatrix":
        """Conjugate transpose."""
        return _trusted(
            AlgebraMatrix,
            self.kind,
            tuple(tuple(v.conjugate() for v in col) for col in zip(*self.entries)),
        )

    def is_invertible(self) -> bool:
        """Exact Gaussian elimination over the (possibly skew) scalar field."""
        n = self.size
        a = [list(row) for row in self.entries]
        for col in range(n):
            pivot_row = None
            for i in range(col, n):
                if a[i][col]:
                    pivot_row = i
                    break
            if pivot_row is None:
                return False
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv = 1 / a[col][col]
            for i in range(col + 1, n):
                if not a[i][col]:
                    continue
                factor = a[i][col] * inv
                # columns up to col are never read again
                row, pivot = a[i], a[col]
                for j in range(col + 1, n):
                    row[j] = row[j] - factor * pivot[j]
        return True

    def __eq__(self, other):
        if isinstance(other, HermitianMatrix):
            other = other.to_algebra()
        if not isinstance(other, AlgebraMatrix):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.size == other.size
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.kind, self.entries))

    def __repr__(self):
        rows = ", ".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.entries
        )
        return f"AlgebraMatrix({self.kind.value}, [{rows}])"


class HermitianMatrix:
    """Square matrix equal to its conjugate transpose.

    The constructor verifies entries[i][j] == conj(entries[j][i]); in
    particular diagonal entries have vanishing imaginary or vector part.
    """

    __slots__ = ("kind", "size", "entries")

    def __init__(self, kind: ScalarKind, rows) -> None:
        m = AlgebraMatrix(kind, rows)
        for i in range(m.size):
            for j in range(i, m.size):
                if m.entries[i][j] != m.entries[j][i].conjugate():
                    raise InvalidInput(
                        f"matrix is not self-adjoint at position ({i}, {j})"
                    )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "size", m.size)
        object.__setattr__(self, "entries", m.entries)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    @classmethod
    def identity(cls, kind: ScalarKind, n: int) -> "HermitianMatrix":
        return _trusted(cls, kind, AlgebraMatrix.identity(kind, n).entries)

    @classmethod
    def diagonal(cls, kind: ScalarKind, values) -> "HermitianMatrix":
        return cls(kind, AlgebraMatrix.diagonal(kind, values).entries)

    def to_algebra(self) -> AlgebraMatrix:
        return _trusted(AlgebraMatrix, self.kind, self.entries)

    def __eq__(self, other):
        if isinstance(other, HermitianMatrix):
            return (
                self.kind is other.kind
                and self.size == other.size
                and self.entries == other.entries
            )
        if isinstance(other, AlgebraMatrix):
            return self.to_algebra() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.entries))

    def __repr__(self):
        rows = ", ".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.entries
        )
        return f"HermitianMatrix({self.kind.value}, [{rows}])"


def _require_same_space(x, y):
    if x.kind is not y.kind or x.size != y.size:
        raise ShapeMismatch(
            f"operands live in different spaces: {x.kind.value}^{x.size} vs "
            f"{y.kind.value}^{y.size}"
        )


def trace_inner_product(x: HermitianMatrix, y: HermitianMatrix) -> Fraction:
    """Real part of Tr(x y*): the pairing making each matrix cone self-dual."""
    _require_same_space(x, y)
    ops = _KINDS[x.kind]
    a, da = _integer_rows(ops, x.entries)
    b, db = _integer_rows(ops, y.entries)
    return Fraction(_pairing(a, b), da * db)


def _eliminate(D: HermitianMatrix):
    """Exact LDL* elimination of D, stopped at the first sign of negativity.

    Returns ``(lower, pivots, v)``.  The pivots are the real diagonal values
    of successive Schur complements, so the elimination stays rational even
    over the quaternions.  A zero pivot whose row is zero is skipped (its
    column of ``lower`` stays a unit column).  A negative pivot, or a zero
    pivot with a nonzero row, gives a local vector w with w* S w < 0 on the
    current Schur complement S; it is carried back through the recorded
    multipliers as v = L^{-*} w, so that v* D v = w* S w < 0, and the
    elimination stops.  ``v`` is None exactly when D is positive
    semidefinite, and then D = L diag(pivots) L*.
    """
    n = D.size
    a = [list(row) for row in D.entries]
    one, zero = _one(D.kind), _zero(D.kind)
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    pivots = []
    for k in range(n):
        pivot = a[k][k].real
        if pivot > 0:
            pivots.append(pivot)
            inv = 1 / pivot
            for i in range(k + 1, n):
                m = a[i][k] * inv
                lower[i][k] = m
                for j in range(k + 1, n):
                    a[i][j] = a[i][j] - m * a[k][j]
            continue
        if pivot == 0:
            bad = next((i for i in range(k + 1, n) if a[i][k]), None)
            if bad is None:
                pivots.append(pivot)
                continue
        v = [zero] * n
        if pivot < 0:
            v[k] = one
        else:
            # a semidefinite matrix with a zero diagonal entry has a zero row;
            # with w = t e_k + e_bad, w* S w = S_bb - 2 scale |entry|^2 = -1
            entry = a[bad][k]
            scale = (a[bad][bad].real + 1) / (2 * (entry * entry.conjugate()).real)
            v[k] = -scale * entry.conjugate()
            v[bad] = one
        for i in reversed(range(k)):
            v[i] = -sum((lower[j][i].conjugate() * v[j] for j in range(i + 1, n)), zero)
        return lower, tuple(pivots), tuple(v)
    return lower, tuple(pivots), None


def is_positive_definite(D: HermitianMatrix) -> bool:
    """Membership in the open cone: all pivots of exact LDL* are positive."""
    _, pivots, v = _eliminate(D)
    return v is None and all(pivots)


def ldl_witness(D: HermitianMatrix):
    """Unit lower-triangular L and positive diagonal delta with
    D = L diag(delta) L*, i.e. act(L*, diag(delta)) = D exactly."""
    lower, delta, v = _eliminate(D)
    if v is not None or not all(delta):
        raise NotPositiveDefinite("matrix has a non-positive pivot")
    return _trusted(AlgebraMatrix, D.kind, tuple(map(tuple, lower))), delta


def is_positive_semidefinite(D: HermitianMatrix) -> bool:
    """Membership in the closed cone, with exact zero-pivot handling."""
    return _eliminate(D)[2] is None


def quadratic_value(D: HermitianMatrix, v) -> Fraction:
    """The (automatically real) value v* D v for a coordinate vector v."""
    if len(v) != D.size:
        raise ShapeMismatch("vector length does not match matrix size")
    ops = _KINDS[D.kind]
    (vv,), v_den = _integer_rows(ops, [[_coerce_entry(D.kind, c) for c in v]])
    d, d_den = _integer_rows(ops, D.entries)
    # v* D v = sum_i Re(v_i* w_i) for w = D v, and Re(v_i* w_i) = Re(w_i v_i*)
    # even over H, so it is the pairing of w and v as one-row matrices
    w = [_dot(ops.product, row, vv) for row in d]
    return Fraction(_pairing([w], [vv]), d_den * v_den * v_den)


def negative_certificate(D: HermitianMatrix):
    """A vector v with v* D v < 0, or None when D is positive semidefinite.

    Found by running the LDL* elimination until it breaks and transporting
    the violating direction back through the recorded eliminations.
    """
    return _eliminate(D)[2]


def act(M: AlgebraMatrix, D: HermitianMatrix) -> HermitianMatrix:
    """The cone automorphism D -> M* D M for invertible M."""
    if M.kind is not D.kind or M.size != D.size:
        raise ShapeMismatch("matrix and Hermitian operand are incompatible")
    if not M.is_invertible():
        raise SingularMatrix("action matrix is singular")
    ops = _KINDS[D.kind]
    m, m_den = _integer_rows(ops, M.entries)
    d, d_den = _integer_rows(ops, D.entries)
    product, build = ops.product, ops.build
    den = m_den * d_den * m_den
    # column j of D M, and row i of M* (the conjugated column i of M)
    dm_cols = list(zip(*_product_rows(product, d, m)))
    m_star = [list(map(_conjugate, col)) for col in zip(*m)]
    n = D.size
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            num = _dot(product, m_star[i], dm_cols[j])
            rows[i][j] = build(num, den)
            if j != i:
                # M* D M is self-adjoint, so entry (j, i) is exactly the
                # conjugate of entry (i, j)
                rows[j][i] = build(_conjugate(num), den)
    return _trusted(HermitianMatrix, D.kind, tuple(map(tuple, rows)))


class LorentzVector:
    """A point (x0, ..., xn) of the ambient space of the spherical cone."""

    __slots__ = ("coords",)

    def __init__(self, coords) -> None:
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) < 2:
            raise InvalidInput("Lorentz vectors need at least two coordinates")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("LorentzVector is immutable")

    def __eq__(self, other):
        if not isinstance(other, LorentzVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"LorentzVector({list(self.coords)})"


def lorentz_member(v: LorentzVector, *, closed: bool = False) -> bool:
    """x0 > sqrt(x1^2 + ... + xn^2), decided without square roots."""
    x0 = v.coords[0]
    rest = sum(c * c for c in v.coords[1:])
    if closed:
        return x0 >= 0 and x0 * x0 >= rest
    return x0 > 0 and x0 * x0 > rest


@dataclass(frozen=True)
class PDBlock:
    kind: ScalarKind
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise InvalidInput("block size must be positive")
        if self.kind is ScalarKind.OCTONION and self.size != 3:
            raise Unsupported("the exceptional block exists only in size 3")

    @property
    def dimension(self) -> int:
        return hermitian_dimension(self.kind, self.size)


@dataclass(frozen=True)
class LorentzBlock:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput("Lorentz block needs n >= 1")

    @property
    def dimension(self) -> int:
        return self.n + 1


class ConeSpec:
    """Formal direct sum of positive-definite matrix cones and Lorentz cones."""

    __slots__ = ("blocks",)

    def __init__(self, blocks) -> None:
        blocks = tuple(blocks)
        if not blocks:
            raise InvalidInput("a cone needs at least one block")
        for b in blocks:
            if not isinstance(b, (PDBlock, LorentzBlock)):
                raise InvalidInput(f"unknown block descriptor {b!r}")
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("ConeSpec is immutable")

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    def __eq__(self, other):
        if not isinstance(other, ConeSpec):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"ConeSpec({list(self.blocks)})"


def cone_member(spec: ConeSpec, parts, *, closed: bool = False) -> bool:
    """Blockwise membership in the direct sum; every block must pass.

    ``parts`` pairs each PD block with a HermitianMatrix and each Lorentz
    block with a LorentzVector, in block order.
    """
    parts = list(parts)
    if len(parts) != len(spec.blocks):
        raise ShapeMismatch(
            f"expected {len(spec.blocks)} block components, got {len(parts)}"
        )
    for block, part in zip(spec.blocks, parts):
        if isinstance(block, PDBlock):
            if block.kind is ScalarKind.OCTONION:
                raise Unsupported("membership in the exceptional block is not provided")
            if not isinstance(part, HermitianMatrix):
                raise ShapeMismatch(f"PD block needs a HermitianMatrix, got {part!r}")
            if part.kind is not block.kind or part.size != block.size:
                raise ShapeMismatch(
                    f"component {part.kind.value}^{part.size} does not match "
                    f"block {block.kind.value}^{block.size}"
                )
            ok = (
                is_positive_semidefinite(part)
                if closed
                else is_positive_definite(part)
            )
        else:
            if not isinstance(part, LorentzVector):
                raise ShapeMismatch(f"Lorentz block needs a LorentzVector, got {part!r}")
            if len(part.coords) != block.n + 1:
                raise ShapeMismatch(
                    f"Lorentz component has {len(part.coords)} coordinates, "
                    f"block needs {block.n + 1}"
                )
            ok = lorentz_member(part, closed=closed)
        if not ok:
            return False
    return True


def hermitian_basis(kind: ScalarKind, r: int) -> list[HermitianMatrix]:
    """Explicit basis of the r x r self-adjoint matrices over kind.

    Diagonal units E_ii, symmetric pairs E_ij + E_ji, and for each imaginary
    unit u the skew combinations u(E_ij - E_ji); the count always equals
    hermitian_dimension(kind, r).
    """
    zero, one = _zero(kind), _one(kind)
    basis = []

    def build(assign):
        rows = [[zero] * r for _ in range(r)]
        for (i, j), v in assign.items():
            rows[i][j] = v
        return HermitianMatrix(kind, rows)

    for i in range(r):
        basis.append(build({(i, i): one}))
    for i in range(r):
        for j in range(i + 1, r):
            basis.append(build({(i, j): one, (j, i): one}))
            for u in kind.imaginary_units:
                basis.append(build({(i, j): u, (j, i): -u}))
    assert len(basis) == hermitian_dimension(kind, r)
    return basis
