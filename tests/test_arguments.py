"""Hostile arguments at every public entry point.

Each public callable with an integer, rational, point or sequence parameter
reads it through one reader in ``amplecones.errors``, each verdict on a
Hermitian matrix checks that it got one, and each swept parameter that takes
one class (text, an enum member or a record) checks its type, so every
hostile value below ends in InvalidInput or ShapeMismatch within a second,
with a message that prints no ``Fraction(``.  A rational or point written
with a huge exponent is rejected before ``Fraction`` builds it; a hostile
sequence is rejected as not a sequence, before any later check could fire
on an empty or misread one, and a hostile matrix as not a HermitianMatrix,
before any triangle of it is read.  The sweep is driven by README's Public
API list: a listed name that is neither swept nor exempt fails it, so new
API gets covered.
"""

import enum
import inspect
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import amplecones as ac
from amplecones import InvalidInput, ShapeMismatch
from amplecones import ScalarKind as K
from amplecones.abelian import AlbertForm
from test_public_api import listed_names

NAN = float("nan")

HOSTILE = {
    "integer": (None, "7", 1.5, NAN, True, Fraction(7)),
    "rational": (None, NAN, float("inf"), object(), "abc", "1e10000000", Decimal("1e10000000")),
    "point": (None, 5, "10", b"10", (NAN, 0), ("1e10000000", 0)),
    "sequence": (None, 5, "ab"),
    # the third is not self-adjoint, though x^T B x = |x|^2 is positive
    # definite; the last holds a Fraction, which a message prints as p/q
    "matrix": (None, 5, ac.AlgebraMatrix(K.REAL, [[1, 5], [-5, 1]]), [[Fraction(1, 2)]]),
    # no instance of the one class a parameter takes: text, an enum or a record
    "class": (None, 5, b"E", ["E"]),
}

PI, ACTION = ac.real_mult_fundamental_domain(2, (1, 0))
EYE = ac.HermitianMatrix.identity(K.REAL, 2)
UNIT = ac.QuadIrrational(3, 2, 1)  # 2 + sqrt(3), of norm 1
ALBERT = ac.AlbertRealType(AlbertForm.REAL_SPLIT, 1)
SPEC = ac.ConeSpec([ac.PDBlock(K.REAL, 2)])
DECOMPOSITION = ac.BlockDecomposition([ac.Block(K.REAL, 2, "E")])
MATRIX = ac.AlgebraMatrix.identity(K.REAL, 2)


def matrix_rows(cls):
    return [
        ("integer", "identity n", lambda x: cls.identity(K.REAL, x)),
        ("point", "rows", lambda x: cls(K.REAL, x)),
        ("point", "row", lambda x: cls(K.REAL, [x, (0, 1)])),
        ("point", "diagonal", lambda x: cls.diagonal(K.REAL, x)),
    ]


# public name -> (argument type, argument, call with the hostile value there)
SWEEP = {
    "GaussianRational": [
        ("rational", "re", lambda x: ac.GaussianRational(x)),
        ("rational", "im", lambda x: ac.GaussianRational(0, x)),
    ],
    "QuadIrrational": [
        ("integer", "d", lambda x: ac.QuadIrrational(x, 1, 1)),
        ("rational", "a", lambda x: ac.QuadIrrational(2, x, 1)),
        ("rational", "b", lambda x: ac.QuadIrrational(2, 1, x)),
    ],
    "RationalQuaternion": [
        ("rational", "w", lambda x: ac.RationalQuaternion(x)),
        ("rational", "z", lambda x: ac.RationalQuaternion(1, 0, 0, x)),
    ],
    "UnitElement": [("integer", "norm", lambda x: ac.UnitElement(UNIT, x))],
    "continued_fraction_sqrt": [("integer", "d", ac.continued_fraction_sqrt)],
    "dirichlet_rank": [
        ("integer", "r1", lambda x: ac.dirichlet_rank(x, 0)),
        ("integer", "r2", lambda x: ac.dirichlet_rank(1, x)),
    ],
    "fundamental_unit": [("integer", "d", ac.fundamental_unit)],
    "is_square_rational": [("rational", "q", ac.is_square_rational)],
    "is_squarefree": [("integer", "n", ac.is_squarefree)],
    "AlgebraMatrix": matrix_rows(ac.AlgebraMatrix),
    "HermitianMatrix": matrix_rows(ac.HermitianMatrix),
    "ConeSpec": [("sequence", "blocks", ac.ConeSpec)],
    "cone_member": [("sequence", "parts", lambda x: ac.cone_member(SPEC, x))],
    "LorentzVector": [("point", "coords", ac.LorentzVector)],
    "PDBlock": [
        ("integer", "size", lambda x: ac.PDBlock(K.REAL, x)),
        ("class", "kind", lambda x: ac.PDBlock(x, 2)),
    ],
    "hermitian_basis": [
        ("integer", "r", lambda x: ac.hermitian_basis(K.REAL, x)),
        ("class", "kind", lambda x: ac.hermitian_basis(x, 2)),
    ],
    "hermitian_dimension": [
        ("integer", "r", lambda x: ac.hermitian_dimension(K.REAL, x)),
        ("class", "kind", lambda x: ac.hermitian_dimension(x, 2)),
    ],
    "quadratic_value": [
        ("point", "v", lambda x: ac.quadratic_value(EYE, x)),
        ("matrix", "D", lambda x: ac.quadratic_value(x, (1, 0))),
    ],
    "act": [("matrix", "D", lambda x: ac.act(MATRIX, x))],
    "is_positive_definite": [("matrix", "D", ac.is_positive_definite)],
    "is_positive_semidefinite": [("matrix", "D", ac.is_positive_semidefinite)],
    "ldl_witness": [("matrix", "D", ac.ldl_witness)],
    "negative_certificate": [("matrix", "D", ac.negative_certificate)],
    "trace_inner_product": [
        ("matrix", "x", lambda x: ac.trace_inner_product(x, EYE)),
        ("matrix", "y", lambda x: ac.trace_inner_product(EYE, x)),
    ],
    "PolyhedralCone": [
        ("integer", "dim", lambda x: ac.PolyhedralCone(x, [(1, 0)])),
        ("point", "ray", lambda x: ac.PolyhedralCone(2, [x, (1, 0)])),
    ],
    "poly_member": [
        ("point", "v", lambda x: ac.poly_member(PI, x)),
        ("point", "v interior", lambda x: ac.poly_member(PI, x, interior=True)),
    ],
    "primitive_vector": [("point", "v", ac.primitive_vector)],
    "DomainReport": [
        ("integer", "words_used", lambda x: ac.DomainReport(True, True, (), x)),
        ("sequence", "witnesses", lambda x: ac.DomainReport(True, True, x)),
    ],
    "GroupAction2D": [
        ("point", "generator", lambda x: ac.GroupAction2D(x, 1, 2)),
        ("point", "generator row", lambda x: ac.GroupAction2D([x, (2, 3)], 1, 2)),
        ("rational", "a", lambda x: ac.GroupAction2D([[3, 4], [2, 3]], x, 2)),
        ("rational", "b", lambda x: ac.GroupAction2D([[3, 4], [2, 3]], 1, x)),
        ("point", "open_member", ACTION.open_member),
        ("point", "closed_member", ACTION.closed_member),
        ("point", "ray_image ray", ACTION.ray_image),
        ("integer", "ray_image k", lambda x: ACTION.ray_image((1, 0), x)),
        ("integer", "translate_cone k", lambda x: ACTION.translate_cone(PI, x)),
    ],
    "IntegralForm": [
        ("integer", "g11", lambda x: ac.IntegralForm(x, 0, 1)),
        ("integer", "g12", lambda x: ac.IntegralForm(1, x, 1)),
        ("integer", "g22", lambda x: ac.IntegralForm(1, 0, x)),
    ],
    "UnimodularMatrix": [
        ("integer", "a", lambda x: ac.UnimodularMatrix(x, 0, 0, 1)),
        ("integer", "b", lambda x: ac.UnimodularMatrix(1, x, 0, 1)),
        ("integer", "c", lambda x: ac.UnimodularMatrix(1, 0, x, 1)),
        ("integer", "d", lambda x: ac.UnimodularMatrix(1, 0, 0, x)),
        ("integer", "shear k", ac.UnimodularMatrix.shear),
    ],
    "translate_locate": [
        ("point", "p", lambda x: ac.translate_locate(x, PI, ACTION)),
        ("integer", "max_word", lambda x: ac.translate_locate((1, 0), PI, ACTION, x)),
    ],
    "verify_fundamental_domain": [
        ("integer", "samples", lambda x: ac.verify_fundamental_domain(PI, ACTION, samples=x)),
        ("integer", "max_word", lambda x: ac.verify_fundamental_domain(PI, ACTION, max_word=x)),
        ("integer", "seed", lambda x: ac.verify_fundamental_domain(PI, ACTION, 5, seed=x)),
    ],
    "AbelianVarietyModel": [("sequence", "factors", ac.AbelianVarietyModel)],
    "BlockDecomposition": [("sequence", "blocks", ac.BlockDecomposition)],
    "aut_action": [
        ("sequence", "matrices", lambda x: ac.aut_action(DECOMPOSITION, x, [EYE])),
        ("sequence", "divisors", lambda x: ac.aut_action(DECOMPOSITION, [MATRIX], x)),
    ],
    "AlbertRealType": [
        ("integer", "m", lambda x: ac.AlbertRealType(AlbertForm.REAL_SPLIT, x)),
        ("class", "form", lambda x: ac.AlbertRealType(x, 1)),
    ],
    "Block": [
        ("integer", "size", lambda x: ac.Block(K.REAL, x, "E")),
        ("class", "kind", lambda x: ac.Block(x, 2, "E")),
        ("class", "origin", lambda x: ac.Block(K.REAL, 2, x)),
    ],
    "SimpleFactor": [
        ("integer", "multiplicity", lambda x: ac.SimpleFactor("E", ALBERT, x)),
        ("class", "id", lambda x: ac.SimpleFactor(x, ALBERT, 1)),
        ("class", "albert", lambda x: ac.SimpleFactor("E", x, 1)),
    ],
    "SurfaceConeData": [
        ("rational", "a", lambda x: ac.SurfaceConeData(x, 1, False, ())),
        ("rational", "b", lambda x: ac.SurfaceConeData(1, x, False, ())),
    ],
    "dirichlet_data": [("integer", "d", ac.dirichlet_data)],
    "real_mult_fundamental_domain": [
        ("integer", "d", lambda x: ac.real_mult_fundamental_domain(x, (1, 0))),
        ("point", "ray", lambda x: ac.real_mult_fundamental_domain(2, x)),
    ],
    "surface_nef_data": [
        ("rational", "a", lambda x: ac.surface_nef_data(x, 1)),
        ("rational", "b", lambda x: ac.surface_nef_data(1, x)),
    ],
}

# public names with no integer, rational, point, sequence or Hermitian
# matrix parameter, and why
EXEMPT = {
    **dict.fromkeys(
        [
            "AmpleconesError", "InvalidInput", "NotFundamental", "NotInCone",
            "NotPositiveDefinite", "PerfectSquareInput", "PreconditionViolated",
            "ShapeMismatch", "SingularMatrix", "Unsupported", "UnsupportedDimension",
        ],
        "an exception: takes a message",
    ),
    "ScalarKind": "an enumeration",
    "AlbertForm": "an enumeration",
    **dict.fromkeys(
        [
            "cone_intersection", "lorentz_member", "is_totally_positive", "minkowski_reduce", "ample_cone", "bauer_rational_polyhedral",
            "endo_real_decomposition", "picard_number", "rosati_fixed_basis",
            "model_to_json_dict",
        ],
        "takes values the library built: blocks, factors, matrices, cones, forms, models",
    ),
    "model_from_json_dict": "reads a JSON document through its own check",
}

ROWS = [
    pytest.param(kind, call, bad, id=f"{name}-{argument}-{kind}{i}")
    for name, rows in SWEEP.items()
    for kind, argument, call in rows
    for i, bad in enumerate(HOSTILE[kind])
]


@pytest.mark.parametrize("kind,call,bad", ROWS)
def test_hostile_argument_raises_a_readable_amplecones_error(kind, call, bad):
    start = time.perf_counter()
    with pytest.raises((InvalidInput, ShapeMismatch)) as caught:
        call(bad)
    assert time.perf_counter() - start < 1
    message = str(caught.value)
    assert "Fraction(" not in message
    if kind == "sequence":  # rejected by the reader, not by a later check
        assert "must be a sequence of" in message
        assert message.endswith(f", not {type(bad).__name__}")
    if kind == "matrix":  # rejected before any entry is read
        assert " needs a HermitianMatrix, got " in message


@pytest.mark.parametrize(
    "call,text",
    [
        (
            lambda: ac.AbelianVarietyModel([5]),
            "a model must be a sequence of simple factors; item 0 is of type int",
        ),
        (
            lambda: ac.BlockDecomposition([ac.Block(K.REAL, 2, "E"), 5]),
            "a decomposition must be a sequence of blocks; item 1 is of type int",
        ),
        (
            lambda: ac.aut_action(DECOMPOSITION, [5], [EYE]),
            "matrices must be a sequence of matrices; item 0 is of type int",
        ),
        (
            lambda: ac.aut_action(DECOMPOSITION, [MATRIX], [MATRIX]),
            "divisors must be a sequence of divisors; item 0 is of type AlgebraMatrix",
        ),
        (
            lambda: ac.DomainReport(False, True, [5]),
            "witnesses must be a sequence of dicts; item 0 is of type int",
        ),
    ],
    ids=[
        "model-factor", "decomposition-block", "aut_action-matrix", "aut_action-divisor",
        "domain-report-witness",
    ],
)
def test_items_of_sequence_arguments_are_read(call, text):
    with pytest.raises(InvalidInput) as caught:
        call()
    assert str(caught.value) == text


def test_every_listed_callable_is_swept_or_exempt():
    listed = {name for names in listed_names().values() for name in names}
    assert not set(SWEEP) & set(EXEMPT)
    assert set(SWEEP) | set(EXEMPT) == listed
    assert all(SWEEP.values())


def test_exempt_callables_take_no_annotated_integer():
    for name in EXEMPT:
        value = getattr(ac, name)
        if isinstance(value, type) and issubclass(value, (Exception, enum.Enum)):
            continue
        annotations = [p.annotation for p in inspect.signature(value).parameters.values()]
        assert "int" not in annotations and "Fraction" not in annotations, name


def test_messages_print_scalars_as_p_over_q():
    half = Fraction(1, 2)
    spec = ac.ConeSpec([ac.PDBlock(K.REAL, 1), ac.PDBlock(K.REAL, 1)])
    one = ac.HermitianMatrix.identity(K.REAL, 1)
    vector = ac.LorentzVector([half, 0])
    for call, text in [
        (lambda: ac.fundamental_unit(Fraction(7)), "radicand must be an int, not Fraction"),
        (
            lambda: ac.HermitianMatrix(K.REAL, [[ac.GaussianRational(half)]]),
            "entry 1/2 does not belong to scalar kind R",
        ),
        (lambda: ac.cone_member(spec, [half, half]), "PD block needs a HermitianMatrix, got 1/2"),
        (lambda: ac.cone_member(spec, [one, half]), "PD block needs a HermitianMatrix, got 1/2"),
        (
            lambda: ac.cone_member(spec, [vector, vector]),
            "PD block needs a HermitianMatrix, got LorentzVector(1/2, 0)",
        ),
        (
            lambda: ac.ConeSpec([ac.PDBlock(K.REAL, 1), vector]),
            "a cone must be a sequence of blocks; item 1 is of type LorentzVector",
        ),
        (
            lambda: ac.is_positive_definite([[half]]),
            "is_positive_definite needs a HermitianMatrix, got [[1/2]]",
        ),
        (
            lambda: ac.HermitianMatrix(K.REAL, [[[half]]]),
            "entry [1/2] does not belong to scalar kind R",
        ),
        (lambda: ac.act([[half]], one), "act needs a matrix M, got [[1/2]]"),
    ]:
        with pytest.raises(ac.AmpleconesError) as caught:
            call()
        assert str(caught.value) == text
