"""From isogeny-type data of an abelian variety to its ample cone and back.

A model lists simple factors (an opaque isogeny-class id, the real form of
the endomorphism division algebra with its positive involution, and a
multiplicity).  From that the real endomorphism algebra decomposes into
matrix blocks over R, C, H; the self-adjoint parts of the blocks assemble
the Neron-Severi space, whose dimension is the Picard number, and the ample
cone is the direct sum of the positive-definite cones of the blocks, acted
on blockwise by M* D M.

For surfaces with intersection form diag(a, -b) the boundary rays of the
nef cone are rational exactly when a/b is a rational square; in the real
multiplication case the unit group supplies an explicit rational polyhedral
cone between a rational ray and its image, which the reduction module can
certify as a fundamental domain.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .errors import (
    InvalidInput,
    NotInCone,
    ShapeMismatch,
    _coordinates,
    _integer,
    _rationals,
    _Record,
    format_point,
)
from .hermitian import (
    AlgebraMatrix,
    ConeSpec,
    HermitianMatrix,
    PDBlock,
    ScalarKind,
    _kind,
    act,
    hermitian_basis,
    hermitian_dimension,
)
from .polyhedral import PolyhedralCone, _trusted as _trusted_cone, primitive_vector
from .reduction import GroupAction2D, _trusted as _trusted_action
from .scalars import (
    QuadIrrational,
    _check_order_input,
    dirichlet_rank,
    fundamental_unit,
    is_square_rational,
    squarefree_part,
)


class AlbertForm(enum.Enum):
    """Real form of the endomorphism algebra of a simple factor, with its
    positive involution (conjugate transpose in every case)."""

    REAL_SPLIT = "RealSplit"          # R x ... x R
    COMPLEX_SPLIT = "ComplexSplit"    # C x ... x C
    QUATERNION_SPLIT = "QuaternionSplit"  # H x ... x H
    MAT2_REAL = "Mat2Real"            # M_2(R) x ... x M_2(R)
    MAT2_COMPLEX = "Mat2Complex"      # M_2(C) x ... x M_2(C)


_FORM_RULES = {
    AlbertForm.REAL_SPLIT: (ScalarKind.REAL, 1),
    AlbertForm.COMPLEX_SPLIT: (ScalarKind.COMPLEX, 1),
    AlbertForm.QUATERNION_SPLIT: (ScalarKind.QUATERNION, 1),
    AlbertForm.MAT2_REAL: (ScalarKind.REAL, 2),
    AlbertForm.MAT2_COMPLEX: (ScalarKind.COMPLEX, 2),
}


class AlbertRealType(_Record):
    __slots__ = ("form", "m")

    def __init__(self, form: AlbertForm, m: int):
        if not isinstance(form, AlbertForm):
            raise InvalidInput(f"unknown Albert form {form!r}")
        _integer(m, "m", 1, "number of simple summands m must be positive")
        self._set(form=form, m=m)


class SimpleFactor(_Record):
    __slots__ = ("id", "albert", "multiplicity")

    def __init__(self, id: str, albert: AlbertRealType, multiplicity: int):
        if not isinstance(id, str):
            raise InvalidInput("factor id must be a string")
        if not isinstance(albert, AlbertRealType):
            raise InvalidInput(f"albert must be an AlbertRealType, not {type(albert).__name__}")
        _integer(multiplicity, "multiplicity", 1, "factor multiplicity must be positive")
        self._set(id=id, albert=albert, multiplicity=multiplicity)


class AbelianVarietyModel(_Record):
    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = _coordinates(factors, "a model", "simple factors", SimpleFactor)
        if not factors:
            raise InvalidInput("a model needs at least one simple factor")
        ids = [f.id for f in factors]
        if len(set(ids)) != len(ids):
            raise InvalidInput("simple factors must have pairwise distinct ids")
        self._set(factors=factors)


class Block(_Record):
    __slots__ = ("kind", "size", "origin")

    def __init__(self, kind: ScalarKind, size: int, origin: str):
        _kind(kind)  # reject a bad kind here, not when .dimension reads it
        _integer(size, "size", 1, "block size must be positive")
        if not isinstance(origin, str):
            raise InvalidInput("block origin must be a string")
        self._set(kind=kind, size=size, origin=origin)

    @property
    def dimension(self) -> int:
        return hermitian_dimension(self.kind, self.size)


class BlockDecomposition(_Record):
    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self._set(blocks=_coordinates(blocks, "a decomposition", "blocks", Block))


def endo_real_decomposition(model: AbelianVarietyModel) -> BlockDecomposition:
    """Matrix blocks of the real endomorphism algebra, in model order.

    A factor of multiplicity n with division algebra splitting into m copies
    of k (or of the 2 x 2 matrices over k) contributes m blocks of size n
    (or 2n) over k, all tagged with the factor's id.
    """
    blocks = []
    for factor in model.factors:
        kind, scale = _FORM_RULES[factor.albert.form]
        size = scale * factor.multiplicity
        blocks.extend(
            Block(kind=kind, size=size, origin=factor.id)
            for _ in range(factor.albert.m)
        )
    return BlockDecomposition(blocks=tuple(blocks))


def picard_number(model: AbelianVarietyModel) -> int:
    """Dimension of the Neron-Severi space: the sum of the self-adjoint
    dimensions of the blocks."""
    return sum(b.dimension for b in endo_real_decomposition(model).blocks)


def ample_cone(model: AbelianVarietyModel) -> ConeSpec:
    """The ample cone as a direct sum of positive-definite matrix cones."""
    return ConeSpec(
        PDBlock(kind=b.kind, size=b.size)
        for b in endo_real_decomposition(model).blocks
    )


def rosati_fixed_basis(decomp: BlockDecomposition) -> list[list[HermitianMatrix]]:
    """Per block, an explicit basis of the self-adjoint matrices: the fixed
    space of conjugate transposition, which realizes the Rosati involution
    in block coordinates."""
    return [hermitian_basis(b.kind, b.size) for b in decomp.blocks]


def aut_action(
    decomp: BlockDecomposition,
    matrices: list[AlgebraMatrix],
    divisors: list[HermitianMatrix],
) -> list[HermitianMatrix]:
    """Blockwise D -> M* D M; shapes must match the decomposition."""
    matrices = _coordinates(
        matrices, "matrices", "matrices", (AlgebraMatrix, HermitianMatrix)
    )
    divisors = _coordinates(divisors, "divisors", "divisors", HermitianMatrix)
    if len(matrices) != len(decomp.blocks) or len(divisors) != len(decomp.blocks):
        raise ShapeMismatch("one matrix and one divisor block per decomposition block")
    out = []
    for block, m, d in zip(decomp.blocks, matrices, divisors):
        if (
            m.kind is not block.kind
            or m.size != block.size
            or d.kind is not block.kind
            or d.size != block.size
        ):
            raise ShapeMismatch(
                f"block over {block.kind.value}^{block.size} got "
                f"{m.kind.value}^{m.size} and {d.kind.value}^{d.size}"
            )
        out.append(act(m, d))
    return out


class SurfaceConeData(_Record):
    """Nef-cone data of an abelian surface with intersection form diag(a, -b).

    ``rays`` holds primitive integer boundary rays when a/b is a rational
    square, and otherwise the symbolic coefficient c = sqrt(a/b) of the
    boundary pair v1 +- c*v2 as a quadratic irrational.
    """

    __slots__ = ("a", "b", "rational_polyhedral", "rays")

    def __init__(self, a: Fraction, b: Fraction, rational_polyhedral: bool, rays):
        a, b = _rationals((a, b), "parameters a, b")
        self._set(a=a, b=b, rational_polyhedral=rational_polyhedral, rays=tuple(rays))


def surface_nef_data(a, b) -> SurfaceConeData:
    """Boundary-ray data for the form diag(a, -b), exact in both regimes."""
    a, b = _rationals((a, b), "parameters a, b")
    if a <= 0 or b <= 0:
        raise InvalidInput("intersection form needs positive a and b")
    ratio = a / b
    if is_square_rational(ratio):
        root = Fraction(math.isqrt(ratio.numerator), math.isqrt(ratio.denominator))
        plus = primitive_vector((1, root))
        minus = primitive_vector((1, -root))
        return SurfaceConeData(
            a=a, b=b, rational_polyhedral=True, rays=(plus, minus)
        )
    # sqrt(a/b) = (s/q) * sqrt(d) with d squarefree
    s, d = squarefree_part(ratio.numerator * ratio.denominator)
    coeff = QuadIrrational(d, 0, Fraction(s, ratio.denominator))
    return SurfaceConeData(
        a=a, b=b, rational_polyhedral=False, rays=(coeff, -coeff)
    )


def bauer_rational_polyhedral(model: AbelianVarietyModel) -> bool:
    """Is the nef cone rational polyhedral?  True exactly when every factor
    has multiplicity one and its own Picard number is one."""
    # factor i adds m * dim Herm_{scale * n}(K) >= 1 to the Picard number,
    # with equality exactly when m = n = scale = 1, so the sum equals the
    # number of factors exactly when every factor passes the test above
    return picard_number(model) == len(model.factors)


def real_mult_fundamental_domain(d: int, ray) -> tuple[PolyhedralCone, GroupAction2D]:
    """The rank-1 construction: a rational polyhedral cone between a rational
    ray R and g(R), where g multiplies by the square of the fundamental unit
    of Z[sqrt(d)] in the basis {1, sqrt(d)}.

    A unit u acts on NS as x -> u* x u = u^2 x, since the Rosati involution
    is trivial on a totally real field, so the action is by the square.  The
    square is totally positive of norm +1, so g preserves the quadratic cone
    {x1^2 - d*x2^2 > 0, x1 > 0} and fixes each boundary ray.  The unit and
    the action are the library's own, so both are built with no
    re-validation: the action through ``reduction._trusted``, with the
    slots that ``GroupAction2D(g, 1, d)`` would store.  The cone is built
    in closed form through ``polyhedral._trusted``, with the rays, normals
    and incidence that ``PolyhedralCone(2, [u, g(u)])`` derives: g has
    det 1, so the image of the primitive ray u = (x, y) is primitive, and
    it lies counterclockwise of u, since cross(u, g(u)) = q(x^2 - d y^2)
    is positive.  The normal tight on u is (-y, x), and the one tight on
    v = g(u) is (v2, -v1).  ``verify_fundamental_domain`` checks
    such a domain; its reach cut (see there) leaves the sample stream and
    the report unchanged.
    """
    # validates d; a unit h + k sqrt(d) of Z[sqrt(d)] has denominator 1
    h, k = fundamental_unit(d).value._num
    p, q = h * h + d * k * k, 2 * h * k  # (h + k sqrt(d))^2
    # p^2 - d q^2 = N(unit)^2 = 1, so gcd(p, q) = 1, and p > 0: the
    # generator passes every check of the public constructor
    action = _trusted_action(((p, d * q), (q, p)), 1, d)
    if not action.open_member(ray):
        shown = format_point(_rationals(ray))  # the values read, not the text
        raise NotInCone(f"ray {shown} is outside the open cone x1^2 > {d} x2^2")
    u = x, y = primitive_vector(ray)
    v = (p * x + d * q * y, q * x + p * y)
    pi = _trusted_cone(2, (u, v), ((-y, x), (v[1], -v[0])), (1, 2))
    return pi, action


def dirichlet_data(d: int) -> tuple[int, int, int]:
    """Signature and unit rank (r1, r2, r1 + r2 - 1) of Q(sqrt(d)): always
    (2, 0, 1) for real quadratic fields."""
    _check_order_input(d)
    r1, r2 = 2, 0
    return r1, r2, dirichlet_rank(r1, r2)


# --- model (de)serialization -------------------------------------------------

def model_from_json_dict(data) -> AbelianVarietyModel:
    """Parse {"factors": [{"id": ..., "albert": {"form": ..., "m": ...},
    "n": ...}]} with strict validation."""
    if not isinstance(data, dict) or "factors" not in data:
        raise InvalidInput('model JSON must be an object with a "factors" list')
    raw = data["factors"]
    if not isinstance(raw, list) or not raw:
        raise InvalidInput('"factors" must be a nonempty list')
    factors = []
    for item in raw:
        if not isinstance(item, dict):
            raise InvalidInput(f"factor entry {item!r} is not an object")
        try:
            fid = item["id"]
            albert = item["albert"]
            n = item["n"]
            form_name = albert["form"]
            m = albert["m"]
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"factor entry {item!r} is missing {exc}") from None
        try:
            form = AlbertForm(form_name)
        except ValueError:
            raise InvalidInput(f"unknown Albert form {form_name!r}") from None
        if not all(type(x) is int for x in (m, n)):  # bool is an int subclass
            raise InvalidInput(f"m and n must be integers, got m={m!r}, n={n!r}")
        factors.append(
            SimpleFactor(
                id=fid,
                albert=AlbertRealType(form=form, m=m),
                multiplicity=n,
            )
        )
    return AbelianVarietyModel(factors=factors)


def model_to_json_dict(model: AbelianVarietyModel) -> dict:
    return {
        "factors": [
            {
                "id": f.id,
                "albert": {"form": f.albert.form.value, "m": f.albert.m},
                "n": f.multiplicity,
            }
            for f in model.factors
        ]
    }
