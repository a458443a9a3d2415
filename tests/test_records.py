"""The package's immutable value records: construction, equality, hashing,
repr, immutability, copying and validation messages, and the immutability
and copying of the other value types that share their base."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import amplecones
from amplecones import (
    AbelianVarietyModel,
    AlbertRealType,
    AlgebraMatrix,
    Block,
    BlockDecomposition,
    ConeSpec,
    GaussianRational,
    GroupAction2D,
    HermitianMatrix,
    IntegralForm,
    InvalidInput,
    LorentzVector,
    NotPositiveDefinite,
    PDBlock,
    PerfectSquareInput,
    PolyhedralCone,
    QuadIrrational,
    RationalQuaternion,
    ScalarKind,
    ShapeMismatch,
    SimpleFactor,
    SurfaceConeData,
    UnimodularMatrix,
    UnitElement,
    aut_action,
    cone_intersection,
    dirichlet_rank,
    fundamental_unit,
    is_square_rational,
    model_from_json_dict,
    quadratic_value,
    real_mult_fundamental_domain,
    surface_nef_data,
    translate_locate,
)
from amplecones.abelian import AlbertForm

K = ScalarKind
_ALBERT = AlbertRealType(AlbertForm.MAT2_COMPLEX, 2)
_FACTOR = SimpleFactor("E1", _ALBERT, 3)
_BLOCK = Block(K.QUATERNION, 2, "E1")
_ROOT = QuadIrrational(5, 0, Fraction(1, 2))

# each record as (class, its fields in order with sample values, its repr)
RECORDS = [
    (
        AlbertRealType,
        {"form": AlbertForm.MAT2_COMPLEX, "m": 2},
        "AlbertRealType(form=<AlbertForm.MAT2_COMPLEX: 'Mat2Complex'>, m=2)",
    ),
    (
        SimpleFactor,
        {"id": "E1", "albert": _ALBERT, "multiplicity": 3},
        "SimpleFactor(id='E1', albert=AlbertRealType(form=<AlbertForm.MAT2_COMPLEX: "
        "'Mat2Complex'>, m=2), multiplicity=3)",
    ),
    (
        AbelianVarietyModel,
        {"factors": (_FACTOR,)},
        "AbelianVarietyModel(factors=(SimpleFactor(id='E1', albert=AlbertRealType("
        "form=<AlbertForm.MAT2_COMPLEX: 'Mat2Complex'>, m=2), multiplicity=3),))",
    ),
    (
        Block,
        {"kind": K.QUATERNION, "size": 2, "origin": "E1"},
        "Block(kind=<ScalarKind.QUATERNION: 'H'>, size=2, origin='E1')",
    ),
    (
        BlockDecomposition,
        {"blocks": (_BLOCK,)},
        "BlockDecomposition(blocks=(Block(kind=<ScalarKind.QUATERNION: 'H'>, size=2, "
        "origin='E1'),))",
    ),
    (
        SurfaceConeData,
        {"a": Fraction(1), "b": Fraction(5), "rational_polyhedral": False, "rays": (_ROOT, -_ROOT)},
        "SurfaceConeData(a=Fraction(1, 1), b=Fraction(5, 1), rational_polyhedral=False, "
        "rays=(QuadIrrational(5, Fraction(0, 1), Fraction(1, 2)), "
        "QuadIrrational(5, Fraction(0, 1), Fraction(-1, 2))))",
    ),
    (
        LorentzVector,
        {"coords": (Fraction(1), Fraction(1, 2), Fraction(0))},
        "LorentzVector([Fraction(1, 1), Fraction(1, 2), Fraction(0, 1)])",
    ),
    (PDBlock, {"kind": K.REAL, "size": 1}, "PDBlock(kind=<ScalarKind.REAL: 'R'>, size=1)"),
    (
        ConeSpec,
        {"blocks": (PDBlock(K.COMPLEX, 2), PDBlock(K.REAL, 1))},
        "ConeSpec([PDBlock(kind=<ScalarKind.COMPLEX: 'C'>, size=2), "
        "PDBlock(kind=<ScalarKind.REAL: 'R'>, size=1)])",
    ),
    (IntegralForm, {"g11": 2, "g12": 1, "g22": 3}, "IntegralForm(g11=2, g12=1, g22=3)"),
    (UnimodularMatrix, {"a": 5, "b": 2, "c": 7, "d": 3}, "UnimodularMatrix(a=5, b=2, c=7, d=3)"),
    (
        UnitElement,
        {"value": QuadIrrational(5, 2, 1), "norm": -1},
        "UnitElement(value=QuadIrrational(5, Fraction(2, 1), Fraction(1, 1)), norm=-1)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
BUILDERS = [partial(cls, **fields) for cls, fields, _ in RECORDS]

# the other value types, each as (how to build one, a public attribute, a
# private slot); the first four are copied and pickled here as well, and
# the records, which have no private slots, join the immutability test
VALUES = [
    (partial(PolyhedralCone, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]), "dim", "_masks"),
    (
        partial(AlgebraMatrix, K.QUATERNION, [[1, RationalQuaternion(0, 1, 2, 3)], [0, Fraction(1, 2)]]),
        "kind",
        "_rows",
    ),
    (
        partial(HermitianMatrix, K.COMPLEX, [[2, GaussianRational(1, 1)], [GaussianRational(1, -1), 3]]),
        "size",
        "_den",
    ),
    (lambda: real_mult_fundamental_domain(7, (1, 0))[1], "generator", "_fwd"),
    (partial(GaussianRational, 1, 2), "re", "_num"),
    (partial(RationalQuaternion, 1, 2, 3, 4), "w", "_den"),
    (partial(QuadIrrational, 5, 1, 2), "d", "_num"),
]
VALUE_IDS = [type(make()).__name__ for make, _, _ in VALUES]


@pytest.fixture(params=RECORDS, ids=IDS)
def record(request):
    cls, fields, text = request.param
    return cls, fields, text, cls(*fields.values())


def test_positional_equals_keyword(record):
    cls, fields, _, rec = record
    by_name = cls(**fields)
    assert rec == by_name and hash(rec) == hash(by_name)
    assert tuple(getattr(rec, name) for name in fields) == tuple(fields.values())


def test_other_classes_are_unequal(record):
    cls, fields, _, rec = record
    twin = type("Twin" + cls.__name__, (cls,), {})(**fields)
    assert rec != twin and twin != rec
    assert rec != tuple(fields.values()) and rec != object()
    for other_cls, other_fields, _ in RECORDS:
        if other_cls is not cls:
            assert rec != other_cls(**other_fields)


def test_repr_is_unchanged(record):
    _, _, text, rec = record
    assert repr(rec) == text


_HUGE = f"<{(10**5000).bit_length()}-bit integer>"  # 10**5000 is past str()'s digit limit


@pytest.mark.parametrize(
    "make,text",
    [
        (lambda: IntegralForm(10**5000, 0, 1), f"IntegralForm(g11={_HUGE}, g12=0, g22=1)"),
        (
            lambda: PolyhedralCone(2, [(10**5000, 1), (1, 0)]),
            f"PolyhedralCone(2, [[{_HUGE}, 1], [1, 0]])",
        ),
        (
            lambda: surface_nef_data(10**5000, 1),
            f"SurfaceConeData(a=Fraction({_HUGE}, 1), b=Fraction(1, 1), rational_polyhedral=True, "
            f"rays=((1, {10**2500}), (1, -{10**2500})))",
        ),
        (
            lambda: GaussianRational(10**5000),
            f"GaussianRational(Fraction({_HUGE}, 1), Fraction(0, 1))",
        ),
        (
            lambda: RationalQuaternion(1, 10**5000),
            f"RationalQuaternion(Fraction(1, 1), Fraction({_HUGE}, 1), Fraction(0, 1), Fraction(0, 1))",
        ),
        (
            lambda: QuadIrrational(2, 10**5000, Fraction(1, 10**5000)),
            f"QuadIrrational(2, Fraction({_HUGE}, 1), Fraction(1, {_HUGE}))",
        ),
        (lambda: HermitianMatrix(K.REAL, [[10**5000]]), f"HermitianMatrix(R, [[{_HUGE}]])"),
        (
            lambda: HermitianMatrix(K.COMPLEX, [[1, GaussianRational(0, 10**5000)],
                                                [GaussianRational(0, -(10**5000)), 1]]),
            f"HermitianMatrix(C, [[1, 0+{_HUGE}i], [0-{_HUGE}i, 1]])",
        ),
        (
            lambda: LorentzVector([10**5000, Fraction(1, 2)]),
            f"LorentzVector([Fraction({_HUGE}, 1), Fraction(1, 2)])",
        ),
    ],
    ids=["IntegralForm", "PolyhedralCone", "SurfaceConeData", "GaussianRational",
         "RationalQuaternion", "QuadIrrational", "HermitianMatrix-R", "HermitianMatrix-C",
         "LorentzVector"],
)
def test_repr_prints_an_integer_past_the_digit_limit_by_its_size(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: fundamental_unit(10**5000), PerfectSquareInput, f"{_HUGE} is a perfect square"),
        (
            lambda: fundamental_unit(10**5001),
            InvalidInput,
            f"<{(10**5001).bit_length()}-bit integer> is not squarefree",
        ),
        (
            lambda: dirichlet_rank(-(10**5000), 0),
            InvalidInput,
            f"signature (-{_HUGE}, 0) is not a number field signature",
        ),
        (
            lambda: is_square_rational(-(10**5000)),
            InvalidInput,
            f"expected a positive rational, got -{_HUGE}",
        ),
        (
            lambda: UnitElement(QuadIrrational(3, 2, 1), 10**5000),
            InvalidInput,
            f"unit norm must be +-1, got {_HUGE}",
        ),
        (
            lambda: AlgebraMatrix(K.REAL, [[GaussianRational(10**5000)]]),
            ShapeMismatch,
            f"entry {_HUGE} does not belong to scalar kind R",
        ),
        (
            lambda: HermitianMatrix(K.REAL, [[RationalQuaternion(1, Fraction(1, 10**5000))]]),
            ShapeMismatch,
            f"entry 1+1/{_HUGE}i does not belong to scalar kind R",
        ),
        (
            lambda: AlgebraMatrix(K.REAL, [[QuadIrrational(2, 0, -(10**5000))]]),
            ShapeMismatch,
            f"entry -{_HUGE}√2 does not belong to scalar kind R",
        ),
        (
            lambda: AlgebraMatrix(K.REAL, [[[10**5000]]]),
            ShapeMismatch,
            f"entry [{_HUGE}] does not belong to scalar kind R",
        ),
    ],
    ids=["fundamental_unit-square", "fundamental_unit-not-squarefree", "dirichlet_rank",
         "is_square_rational", "UnitElement", "AlgebraMatrix-entry", "HermitianMatrix-entry",
         "QuadIrrational-entry", "list-entry"],
)
def test_messages_print_an_integer_past_the_digit_limit_by_its_size(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_list_arguments_are_stored_as_tuples(record):
    cls, fields, _, rec = record
    listed = {name: list(v) if type(v) is tuple else v for name, v in fields.items()}
    built = cls(**listed)
    assert built == rec and hash(built) == hash(rec)
    assert all(type(getattr(built, name)) is type(v) for name, v in fields.items())


@pytest.mark.parametrize(
    "make,public,private",
    [(make, next(iter(fields)), None) for make, (_, fields, _) in zip(BUILDERS, RECORDS)] + VALUES,
    ids=IDS + VALUE_IDS,
)
def test_fields_cannot_change(make, public, private):
    value = make()
    before = getattr(value, public)
    for attr in filter(None, (public, private, "extra")):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert getattr(value, public) == before and value == make()


@pytest.mark.parametrize(
    "make", BUILDERS + [make for make, _, _ in VALUES[:4]], ids=IDS + VALUE_IDS[:4]
)
def test_copies_compare_equal(make):
    # a second build from the same arguments is a twin too, so two actions
    # built from the same d must compare by value, not by identity
    value = make()
    for twin in (make(), copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: AlbertRealType("Mat2Real", 1), InvalidInput, "unknown Albert form 'Mat2Real'"),
        (
            lambda: AlbertRealType(AlbertForm.REAL_SPLIT, 0),
            InvalidInput,
            "number of simple summands m must be positive",
        ),
        (lambda: SimpleFactor("E", _ALBERT, 0), InvalidInput, "factor multiplicity must be positive"),
        (lambda: SimpleFactor(["E"], _ALBERT, 1), InvalidInput, "factor id must be a string"),
        (
            lambda: SimpleFactor("E", "x", 1),
            InvalidInput,
            "albert must be an AlbertRealType, not str",
        ),
        (lambda: AbelianVarietyModel([]), InvalidInput, "a model needs at least one simple factor"),
        (
            lambda: AbelianVarietyModel([_FACTOR, _FACTOR]),
            InvalidInput,
            "simple factors must have pairwise distinct ids",
        ),
        (lambda: LorentzVector((1,)), InvalidInput, "Lorentz vectors need at least two coordinates"),
        (lambda: PDBlock(K.REAL, 0), InvalidInput, "block size must be positive"),
        (lambda: Block(K.REAL, 2, ["A"]), InvalidInput, "block origin must be a string"),
        (lambda: ConeSpec(()), InvalidInput, "a cone needs at least one block"),
        (
            lambda: ConeSpec((_BLOCK,)),
            InvalidInput,
            "a cone must be a sequence of blocks; item 0 is of type Block",
        ),
        (lambda: IntegralForm(1, 2, 3), NotPositiveDefinite, "form (1, 2, 3) is not positive definite"),
        (lambda: UnimodularMatrix(1, 1, 1, 1), InvalidInput, "matrix is not in SL(2, Z)"),
        (lambda: UnitElement(QuadIrrational(5, 2, 1), 2), InvalidInput, "unit norm must be +-1, got 2"),
        (
            lambda: UnitElement(QuadIrrational(5, Fraction(1, 2), 1), 1),
            InvalidInput,
            "unit must lie in Z[sqrt(d)]",
        ),
        (
            lambda: UnitElement(QuadIrrational(5, 2, 1), 1),
            InvalidInput,
            "declared norm does not match value",
        ),
        (lambda: PolyhedralCone(2, []), InvalidInput, "a polyhedral cone needs at least one ray"),
        (
            lambda: cone_intersection(PolyhedralCone(2, [(1, 0)]), PolyhedralCone(3, [(1, 0, 0)])),
            ShapeMismatch,
            "cones live in different dimensions",
        ),
        (
            lambda: GroupAction2D([[1, 0, 0], [0, 1, 0]], 1, 2),
            ShapeMismatch,
            "expected a 2 x 2 matrix",
        ),
        (
            lambda: translate_locate(
                (1, 0),
                PolyhedralCone(3, [(1, 0, 0), (0, 1, 0)]),
                GroupAction2D([[3, 4], [2, 3]], 1, 2),
            ),
            ShapeMismatch,
            "translate location works in the plane",
        ),
        (
            lambda: quadratic_value(HermitianMatrix.identity(K.REAL, 2), (1,)),
            ShapeMismatch,
            "vector length does not match matrix size",
        ),
        (
            lambda: model_from_json_dict({"factors": [1]}),
            InvalidInput,
            "factor entry 1 is not an object",
        ),
        (
            lambda: aut_action(
                BlockDecomposition((_BLOCK,)),
                [AlgebraMatrix.identity(K.REAL, 2)],
                [HermitianMatrix.identity(K.QUATERNION, 2)],
            ),
            ShapeMismatch,
            "block over H^2 got R^2 and H^2",
        ),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "value,name",
    [
        (AlgebraMatrix.identity(K.REAL, 2), "__mul__"),
        (AlgebraMatrix.identity(K.REAL, 2), "__eq__"),
        (HermitianMatrix.identity(K.COMPLEX, 1), "__eq__"),
        (UnimodularMatrix.swap(), "__mul__"),
        (UnimodularMatrix.swap(), "__eq__"),
        (PolyhedralCone(2, [(1, 0), (0, 1)]), "__eq__"),
    ],
    ids=["matrix-mul", "matrix-eq", "hermitian-eq", "unimodular-mul", "record-eq", "cone-eq"],
)
def test_foreign_operands_are_not_implemented(value, name):
    # a foreign operand is handed back to Python, which then raises
    # TypeError for a product and compares by identity for ==
    for foreign in (object(), 2, (1, 0)):
        assert getattr(value, name)(foreign) is NotImplemented
        if name == "__mul__":
            with pytest.raises(TypeError):
                value * foreign
        else:
            assert value != foreign and foreign != value


def test_cold_start_loads_no_typing_and_one_dataclass():
    # -S keeps site-packages out, as on a bare interpreter; every record
    # but DomainReport is a plain slotted class, because each dataclass
    # generates its methods at import.  DomainReport stays a dataclass
    # because the benchmark's self-checks alter reports with
    # dataclasses.replace.
    code = (
        "import sys, amplecones, amplecones.cli\n"
        "print('typing' in sys.modules)\n"
        "print(sorted(name for name, value in vars(amplecones).items()\n"
        "             if isinstance(value, type) and hasattr(value, '__dataclass_fields__')))\n"
    )
    src = Path(amplecones.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.stdout.split("\n") == ["False", "['DomainReport']", ""]
