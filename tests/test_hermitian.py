import copy
import hashlib
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amplecones import (
    AlgebraMatrix,
    Block,
    ConeSpec,
    GaussianRational,
    HermitianMatrix,
    InvalidInput,
    LorentzVector,
    NotPositiveDefinite,
    PDBlock,
    RationalQuaternion,
    ScalarKind,
    ShapeMismatch,
    SingularMatrix,
    act,
    cone_member,
    hermitian_basis,
    hermitian_dimension,
    is_positive_definite,
    is_positive_semidefinite,
    ldl_witness,
    lorentz_member,
    negative_certificate,
    quadratic_value,
    trace_inner_product,
)
from amplecones.abelian import _FORM_RULES
from amplecones.hermitian import _KINDS, _elimination, _integer_rows, _is_invertible
from support import (
    MATRIX_KINDS,
    flatten_hermitian,
    matrix_tuples,
    random_algebra_matrix,
    random_hermitian_matrix,
    random_invertible_matrix,
    random_pd_matrix,
    random_scalar,
    rank_one_plus_shift,
    rational_rank,
    rebuild_scalar,
    ref_act,
    ref_is_invertible,
    ref_ldl,
    ref_matrix_product,
    ref_quadratic_value,
    ref_trace_pairing,
    scalar_state,
    scalar_tuple,
    staged_hermitian,
    wide_algebra_matrix,
    wide_fraction,
    wide_hermitian_matrix,
    wide_scalar,
)

R, C, H = ScalarKind.REAL, ScalarKind.COMPLEX, ScalarKind.QUATERNION
j_unit = RationalQuaternion(0, 0, 1, 0)


class TestConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInput):
            HermitianMatrix(R, [[1, 2], [3, 1]])
        with pytest.raises(InvalidInput):
            HermitianMatrix(C, [[GaussianRational(0, 1), 0], [0, 0]])
        with pytest.raises(InvalidInput):
            # off-diagonal pair must be conjugate, not equal
            HermitianMatrix(C, [[1, GaussianRational(1, 1)], [GaussianRational(1, 1), 1]])

    def test_entry_kind_enforced(self):
        with pytest.raises(ShapeMismatch):
            AlgebraMatrix(R, [[GaussianRational(1, 0)]])

    @pytest.mark.parametrize("kind", ["R", "C", None, 1])
    def test_kind_must_be_a_scalar_kind(self, kind):
        for build in (
            lambda: AlgebraMatrix(kind, [[1]]),
            lambda: HermitianMatrix(kind, [[1]]),
            lambda: AlgebraMatrix.identity(kind, 2),
            lambda: hermitian_basis(kind, 2),
            lambda: hermitian_dimension(kind, 2),
            lambda: PDBlock(kind, 2),
            lambda: Block(kind, 2, "A"),
        ):
            with pytest.raises(InvalidInput, match=f"unknown scalar kind {kind!r}"):
                build()

    def test_identity_matches_constructor(self):
        for kind in MATRIX_KINDS:
            cls_of_kind = _KINDS[kind].cls
            for cls in (AlgebraMatrix, HermitianMatrix):
                for n in (1, 2, 3, 4):
                    identity = cls.identity(kind, n)
                    ints = [[int(i == j) for j in range(n)] for i in range(n)]
                    assert type(identity) is cls and identity.size == n
                    assert identity == cls(kind, ints) == cls.diagonal(kind, [1] * n)
                    assert identity.entries == tuple(map(tuple, ints))
                    assert all(
                        type(v) is cls_of_kind for row in identity.entries for v in row
                    )

    def test_identity_needs_a_positive_size(self):
        for cls in (AlgebraMatrix, HermitianMatrix):
            assert type(cls.identity(R, 2)) is cls
            for n in (0, -1):
                with pytest.raises(InvalidInput):
                    cls.identity(R, n)
            with pytest.raises(ShapeMismatch):
                cls.diagonal(C, [])


class TestValueSemantics:
    """Equality, hashing, repr and immutability of the matrix and cone
    value types."""

    def test_matrix_classes_compare_by_entries(self):
        rng = random.Random(89)
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3):
                h = random_hermitian_matrix(rng, kind, size)
                a = AlgebraMatrix(kind, h.entries)
                assert a == h and h == a
                assert not (a != h) and not (h != a)
                assert hash(a) == hash(h)
                assert len({a, h}) == 1

    def test_kind_size_and_type_separate_matrices(self):
        for cls in (AlgebraMatrix, HermitianMatrix):
            eye = cls.identity(R, 2)
            assert eye != cls.identity(C, 2) and eye != cls.identity(H, 2)
            assert eye != cls.identity(R, 3) and eye != cls.diagonal(R, [1, 2])
            assert eye != AlgebraMatrix.identity(R, 3)
            assert eye != HermitianMatrix.identity(C, 2)
            one = cls(R, [[1]])
            assert (one == 1) is False and (one == [[1]]) is False
            assert one != 1

    def test_repr_bytes(self):
        third = Fraction(1, 3)
        cases = [
            (AlgebraMatrix(R, [[1, Fraction(1, 2)], [0, -3]]),
             "AlgebraMatrix(R, [[1, 1/2], [0, -3]])"),
            (HermitianMatrix(
                C, [[2, GaussianRational(1, -third)], [GaussianRational(1, third), 0]]
            ), "HermitianMatrix(C, [[2, 1-1/3i], [1+1/3i, 0]])"),
            (AlgebraMatrix(H, [[RationalQuaternion(1, 2, Fraction(-3, 4), 0)]]),
             "AlgebraMatrix(H, [[1+2i-3/4j]])"),
            (HermitianMatrix.identity(H, 2), "HermitianMatrix(H, [[1, 0], [0, 1]])"),
            (LorentzVector([1, Fraction(-1, 2), 0]),
             "LorentzVector([Fraction(1, 1), Fraction(-1, 2), Fraction(0, 1)])"),
            (ConeSpec([PDBlock(C, 2), PDBlock(H, 3)]),
             "ConeSpec([PDBlock(kind=<ScalarKind.COMPLEX: 'C'>, size=2), "
             "PDBlock(kind=<ScalarKind.QUATERNION: 'H'>, size=3)])"),
        ]
        for value, text in cases:
            assert repr(value) == text

    def test_immutable(self):
        values = {
            AlgebraMatrix.identity(R, 2): ("kind", "size", "entries"),
            HermitianMatrix.identity(C, 2): ("kind", "size", "entries"),
            LorentzVector([1, 0]): ("coords",),
            ConeSpec([PDBlock(R, 1)]): ("blocks",),
        }
        for value, names in values.items():
            for name in names + ("other",):
                with pytest.raises(AttributeError):
                    setattr(value, name, None)

    def test_lorentz_vector_record(self):
        v = LorentzVector([1, Fraction(1, 2)])
        assert type(v.coords) is tuple and v.coords == (1, Fraction(1, 2))
        same = LorentzVector(iter((Fraction(1), Fraction(1, 2))))
        assert v == same and hash(v) == hash(same)
        assert v != LorentzVector([1, Fraction(1, 2), 0])
        assert (v == v.coords) is False
        for coords in ([], [1]):
            with pytest.raises(InvalidInput):
                LorentzVector(coords)

    def test_cone_spec_record(self):
        spec = ConeSpec([PDBlock(R, 2), PDBlock(C, 3)])
        assert type(spec.blocks) is tuple
        same = ConeSpec(b for b in (PDBlock(R, 2), PDBlock(C, 3)))
        assert spec == same and hash(spec) == hash(same)
        assert spec != ConeSpec([PDBlock(C, 3), PDBlock(R, 2)])
        assert (spec == spec.blocks) is False
        for blocks in ([], [PDBlock(R, 2), (R, 2)], [LorentzVector([1, 0])]):
            with pytest.raises(InvalidInput):
                ConeSpec(blocks)


class TestInternalResults:
    """Results of the library's own arithmetic skip validation; each must be
    exactly what the validating constructor builds from the same rows."""

    @staticmethod
    def _check(result, cls, kind):
        assert type(result) is cls and result.kind is kind
        assert type(result.entries) is tuple
        assert all(type(row) is tuple for row in result.entries)
        rebuilt = cls(kind, result.entries)  # full validation
        assert rebuilt == result and rebuilt.entries == result.entries
        assert hash(rebuilt) == hash(result)
        for name in ("kind", "size", "entries"):
            with pytest.raises(AttributeError):
                setattr(result, name, None)

    def test_results_match_validating_constructor(self):
        rng = random.Random(67)
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3, 4):
                for _ in range(6):
                    m1 = random_invertible_matrix(rng, kind, size)
                    m2 = random_invertible_matrix(rng, kind, size)
                    d = random_pd_matrix(rng, kind, size)
                    x = random_hermitian_matrix(rng, kind, size)
                    self._check(act(m1, d), HermitianMatrix, kind)
                    self._check(act(m2, x), HermitianMatrix, kind)
                    for product in (m1 * m2, m1 * d, m1.star()):
                        self._check(product, AlgebraMatrix, kind)
                    self._check(ldl_witness(d)[0], AlgebraMatrix, kind)

    def test_public_constructor_still_validates(self):
        rng = random.Random(71)
        wrong = {R: GaussianRational(1), C: RationalQuaternion(1), H: GaussianRational(1)}
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3, 4):
                good = act(
                    random_invertible_matrix(rng, kind, size),
                    random_pd_matrix(rng, kind, size),
                )
                i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
                if i != j:
                    bad = [list(row) for row in good.entries]
                    bad[i][j] = bad[i][j] + 1
                    with pytest.raises(InvalidInput):
                        HermitianMatrix(kind, bad)
                if kind is not R:
                    bad = [list(row) for row in good.entries]
                    bad[i][i] = bad[i][i] + kind.imaginary_units[0]
                    with pytest.raises(InvalidInput):
                        HermitianMatrix(kind, bad)
                bad = [list(row) for row in good.entries]
                bad[i][j] = wrong[kind]
                with pytest.raises(ShapeMismatch):
                    HermitianMatrix(kind, bad)


class TestIntegerKernel:
    """Products, the action and the pairing run on integer coefficients over
    one denominator per operand; each result must equal the scalar-by-scalar
    reference in value and in stored state."""

    @staticmethod
    def _check_entry(got, want):
        for other in (want, rebuild_scalar(want)):
            assert type(got) is type(other)
            assert repr(got) == repr(other) and hash(got) == hash(other)
            assert scalar_state(got) == scalar_state(other)

    def _check_rows(self, result, want):
        assert len(result.entries) == len(want)
        for row, want_row in zip(result.entries, want):
            assert len(row) == len(want_row)
            for got, value in zip(row, want_row):
                self._check_entry(got, value)

    def test_matches_scalar_reference(self):
        rng = random.Random(79)
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3, 4):
                for _ in range(5):
                    a = wide_algebra_matrix(rng, kind, size)
                    b = wide_algebra_matrix(rng, kind, size)
                    d = wide_hermitian_matrix(rng, kind, size)
                    x = wide_hermitian_matrix(rng, kind, size)
                    v = [wide_scalar(rng, kind) for _ in range(size)]
                    self._check_rows(a * b, ref_matrix_product(a.entries, b.entries))
                    self._check_rows(a * d, ref_matrix_product(a.entries, d.entries))
                    while not _is_invertible(a):
                        a = wide_algebra_matrix(rng, kind, size)
                    image = act(a, d)
                    self._check_rows(image, ref_act(a.entries, d.entries))
                    assert HermitianMatrix(kind, image.entries) == image
                    self._check_entry(
                        trace_inner_product(d, x), ref_trace_pairing(d.entries, x.entries)
                    )
                    self._check_entry(quadratic_value(d, v), ref_quadratic_value(d.entries, v))


class TestCachedRows:
    """Each matrix stores only the integer rows of its entries over one
    denominator, in the form that _integer_rows reads off the entries, so
    equal entries give equal state."""

    @staticmethod
    def _check(m):
        assert (m._rows, m._den) == _integer_rows(_KINDS[m.kind], m.entries)

    def test_results_keep_their_integer_rows(self):
        rng = random.Random(97)
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3, 4):
                for make in (random_algebra_matrix, wide_algebra_matrix):
                    a, b = make(rng, kind, size), make(rng, kind, size)
                    while not (_is_invertible(a) and _is_invertible(b)):
                        a, b = make(rng, kind, size), make(rng, kind, size)
                    d = random_pd_matrix(rng, kind, size)
                    x = wide_hermitian_matrix(rng, kind, size)
                    results = (
                        a, d, x, a * b, b * d, act(a, d), act(a, x), act(a * b, d), a.star(),
                        ldl_witness(d)[0], AlgebraMatrix.identity(kind, size),
                        HermitianMatrix.diagonal(kind, [wide_fraction(rng) for _ in range(size)]),
                    )
                    for result in results:
                        self._check(result)
            for m in hermitian_basis(kind, 3):
                self._check(m)

    def test_rows_are_read_once_and_shared(self):
        rng = random.Random(101)
        for kind in MATRIX_KINDS:
            d = wide_hermitian_matrix(rng, kind, 3)
            rows, den = d._rows, d._den
            trace_inner_product(d, d)
            is_positive_semidefinite(d)
            assert d._rows is rows and d._den == den
            assert (rows, den) == _integer_rows(_KINDS[kind], d.entries)

    def test_equal_exactly_when_entries_are_equal(self):
        # the same values reached by several routes must share one stored
        # form: otherwise == and hash would split equal matrices
        rng = random.Random(113)
        pool = []
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3):
                for _ in range(3):
                    m = random_algebra_matrix(rng, kind, size)
                    h = random_hermitian_matrix(rng, kind, size)
                    eye = AlgebraMatrix.identity(kind, size)
                    ha = AlgebraMatrix(kind, h.entries)
                    k = rng.randint(2, 9)
                    # every coefficient passed as Fraction(k p, k q)
                    unreduced = [
                        [type(v)(*[Fraction(c.numerator * k, c.denominator * k)
                                   for c in scalar_tuple(v)]) for v in row]
                        for row in m.entries
                    ]
                    pool += [
                        m, h, eye, AlgebraMatrix(kind, unreduced),
                        m * AlgebraMatrix.diagonal(kind, [0] * size),
                        AlgebraMatrix.diagonal(kind, [0] * size),
                        m.star().star(), m.star(), ha.star(), ha,
                        m * eye, eye * m, eye * h,
                        HermitianMatrix(kind, [[int(i == j) for j in range(size)]
                                               for i in range(size)]),
                    ]
        values = [(m, m.kind, m.entries) for m in pool]
        for a, kind_a, entries_a in values:
            for b, kind_b, entries_b in values:
                same = kind_a is kind_b and entries_a == entries_b
                assert (a == b) is same and (a != b) is not same
                if same:
                    assert hash(a) == hash(b)


class TestFractionFreeElimination:
    """The integer LDL* elimination, and the invertibility check read off
    it, against Fraction-tuple references that divide by every pivot."""

    @staticmethod
    def _hermitian_inputs(rng, kind, size):
        yield random_pd_matrix(rng, kind, size)
        yield random_hermitian_matrix(rng, kind, size)
        yield wide_hermitian_matrix(rng, kind, size)
        k = rng.randrange(size)
        for head in ("negative", "zero-row", "zero-pivot"):
            yield staged_hermitian(rng, kind, size, k, head)

    def test_ldl_matches_reference(self):
        rng = random.Random(103)
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3, 4, 5):
                for _ in range(3):
                    for x in self._hermitian_inputs(rng, kind, size):
                        lower, pivots, v = ref_ldl(matrix_tuples(x))
                        semidefinite = v is None
                        definite = semidefinite and all(pivots)
                        assert is_positive_semidefinite(x) == semidefinite
                        assert is_positive_definite(x) == definite
                        certificate = negative_certificate(x)
                        if semidefinite:
                            assert certificate is None
                        else:
                            assert [scalar_tuple(c) for c in certificate] == v
                            assert quadratic_value(x, certificate) < 0
                        if definite:
                            got, delta = ldl_witness(x)
                            assert matrix_tuples(got) == lower
                            assert list(delta) == pivots
                        else:
                            with pytest.raises(NotPositiveDefinite):
                                ldl_witness(x)

    def test_quaternion_product_order(self):
        i, j, k = H.imaginary_units
        assert _is_invertible(AlgebraMatrix(H, [[1, i], [j, k]]))
        assert not _is_invertible(AlgebraMatrix(H, [[1, i], [j, -k]]))
        assert not _is_invertible(AlgebraMatrix(H, [[1, j], [i, k]]))
        assert _is_invertible(AlgebraMatrix(H, [[1, j], [i, -k]]))

    def test_invertibility_matches_reference(self):
        rng = random.Random(107)
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3, 4, 5):
                for trial in range(8):
                    make = wide_algebra_matrix if trial % 4 == 3 else random_algebra_matrix
                    m = make(rng, kind, size)
                    if size > 1 and trial % 2:
                        # row b becomes c row a (singular) or row a c (over
                        # H usually not)
                        a, b = rng.sample(range(size), 2)
                        c = random_scalar(rng, kind) or _KINDS[kind].cls(1)
                        rows = [list(row) for row in m.entries]
                        if trial % 4 == 1:
                            rows[b] = [c * value for value in rows[a]]
                        else:
                            rows[b] = [value * c for value in rows[a]]
                        m = AlgebraMatrix(kind, rows)
                    assert _is_invertible(m) == ref_is_invertible(matrix_tuples(m))


WIDTH = {R: 1, C: 2, H: 4}
SCALAR = {
    R: lambda num: Fraction(num[0]),
    C: lambda num: GaussianRational(*num),
    H: lambda num: RationalQuaternion(*num),
}


def coefficients(value) -> tuple:
    """The integer coefficient tuple of a scalar with integer coefficients."""
    parts = scalar_tuple(value)
    assert all(c.denominator == 1 for c in parts)
    return tuple(c.numerator for c in parts)


@st.composite
def kernel_rows(draw, min_size=0):
    """A kind and two rows of integer coefficient tuples of one length."""
    kind = draw(st.sampled_from(MATRIX_KINDS))
    number = st.tuples(*[st.integers(-(10**30), 10**30)] * WIDTH[kind])
    n = draw(st.integers(min_size, 5))
    rows = st.lists(number, min_size=n, max_size=n)
    return kind, draw(rows), draw(rows)


class TestKernels:
    """Each kind's row kernels against the scalar classes' own * and +."""

    @given(kernel_rows())
    def test_dot_is_the_sum_of_scalar_products(self, case):
        kind, row, col = case
        scalar = SCALAR[kind]
        want = sum((scalar(a) * scalar(b) for a, b in zip(row, col)), scalar((0,) * WIDTH[kind]))
        assert _KINDS[kind].dot(row, col) == coefficients(want)

    @given(kernel_rows(min_size=2), st.integers(-(10**30), 10**30))
    def test_update_is_p_x_plus_c_y(self, case, p):
        kind, (c, x, *_), (y, *_) = case
        scalar = SCALAR[kind]
        want = p * scalar(x) + scalar(c) * scalar(y)
        assert _KINDS[kind].update(p, c, x, y) == coefficients(want)

    def test_quaternion_kernels_keep_the_product_order(self):
        one, i, j, k = [tuple(int(r == s) for s in range(4)) for r in range(4)]
        minus_k = (0, 0, 0, -1)
        dot, update = _KINDS[H].dot, _KINDS[H].update
        assert dot([i], [j]) == k and dot([j], [i]) == minus_k
        assert dot([i, j], [j, i]) == (0, 0, 0, 0)
        assert dot([j, k], [k, i]) == (0, 1, 1, 0)  # jk + ki = i + j
        assert dot([k, i], [j, k]) == (0, -1, -1, 0)  # kj + ik = -i - j
        assert update(3, i, one, j) == (3, 0, 0, 1)
        assert update(3, j, one, i) == (3, 0, 0, -1)
        a, b = (1, 2, -3, 4), (-5, 6, 7, -8)
        ab = coefficients(RationalQuaternion(*a) * RationalQuaternion(*b))
        assert dot([a], [b]) == ab != dot([b], [a])


def answer(verdict, x) -> str:
    try:
        return repr(verdict(x))
    except NotPositiveDefinite:
        return "NotPositiveDefinite"


class TestCachedElimination:
    """The first verdict on a HermitianMatrix keeps its LDL* elimination in
    the matrix; later verdicts read it.  No order of calls, no copy and no
    pickle may change an answer, and no two matrices may share the slot."""

    VERDICTS = (is_positive_definite, is_positive_semidefinite, ldl_witness, negative_certificate)

    @staticmethod
    def _inputs(rng, kind, size):
        m = random_invertible_matrix(rng, kind, size)
        yield random_pd_matrix(rng, kind, size)
        yield act(m, HermitianMatrix.diagonal(kind, [1] * (size - 1) + [0]))  # singular PSD
        yield random_hermitian_matrix(rng, kind, size)
        k = rng.randrange(size)
        for head in ("negative", "zero-row", "zero-pivot"):
            yield staged_hermitian(rng, kind, size, k, head)

    def test_answers_do_not_depend_on_order_copies_or_pickles(self):
        rng = random.Random(127)
        orders = [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1), (1, 3, 0, 2)]
        verdicts_seen = set()
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3, 4):
                for x in self._inputs(rng, kind, size):
                    # each verdict alone on its own fresh matrix
                    want = [answer(f, HermitianMatrix(kind, x.entries)) for f in self.VERDICTS]
                    verdicts_seen.add((want[0], want[1]))
                    for order in orders:
                        y = HermitianMatrix(kind, x.entries)
                        before = hash(y)
                        for _ in range(2):
                            for index in order:
                                assert answer(self.VERDICTS[index], y) == want[index]
                        steps, failure = y._ldl
                        assert type(steps) is tuple and all(type(step) is tuple for step in steps)
                        assert failure is None or type(failure) is tuple
                        assert hash(y) == before and y == x
                        for twin in (copy.copy(y), copy.deepcopy(y), pickle.loads(pickle.dumps(y))):
                            assert twin == y and hash(twin) == hash(y)
                            assert getattr(twin, "_ldl", None) is None
                            for index in reversed(order):
                                assert answer(self.VERDICTS[index], twin) == want[index]
        # definite, singular semidefinite and indefinite inputs all occurred
        assert verdicts_seen == {("True", "True"), ("False", "True"), ("False", "False")}

    def test_each_matrix_keeps_its_own_elimination(self):
        pd = HermitianMatrix.identity(R, 2)
        indefinite = HermitianMatrix(R, [[1, 2], [2, 1]])
        assert is_positive_definite(pd) and not is_positive_definite(indefinite)
        assert negative_certificate(pd) is None and negative_certificate(indefinite) is not None
        assert pd._ldl is not indefinite._ldl
        assert getattr(HermitianMatrix.identity(R, 2), "_ldl", None) is None


class TestMatrixArguments:
    """A verdict reads a HermitianMatrix and nothing else; the action reads
    a matrix M of either class and a HermitianMatrix D."""

    EYE = HermitianMatrix.identity(R, 2)
    UPPER = AlgebraMatrix(R, [[1, 5], [0, 1]])  # not self-adjoint
    SKEW = AlgebraMatrix(R, [[1, 5], [-5, 1]])  # x^T B x = |x|^2, but B is not symmetric
    HUGE = AlgebraMatrix(R, [[10**5000]])  # an entry past str()'s digit limit

    @pytest.mark.parametrize("bad", [UPPER, SKEW, HUGE, None, 5])
    def test_verdicts_need_a_hermitian_matrix(self, bad):
        calls = [
            (lambda x: act(AlgebraMatrix.identity(R, 2), x), "act"),
            (is_positive_definite, "is_positive_definite"),
            (is_positive_semidefinite, "is_positive_semidefinite"),
            (ldl_witness, "ldl_witness"),
            (negative_certificate, "negative_certificate"),
            (lambda x: trace_inner_product(x, self.EYE), "trace_inner_product"),
            (lambda x: trace_inner_product(self.EYE, x), "trace_inner_product"),
            (lambda x: quadratic_value(x, (1, 0)), "quadratic_value"),
        ]
        for call, name in calls:
            with pytest.raises(ShapeMismatch) as caught:
                call(bad)
            got = "an AlgebraMatrix" if isinstance(bad, AlgebraMatrix) else str(bad)
            assert str(caught.value) == f"{name} needs a HermitianMatrix, got {got}"

    def test_action_needs_a_matrix(self):
        for bad in (None, 5, [[1, 0], [0, 1]]):
            with pytest.raises(ShapeMismatch, match="^act needs a matrix M, got "):
                act(bad, self.EYE)
        d = HermitianMatrix(R, [[2, 1], [1, 3]])
        shear = HermitianMatrix(R, [[1, 1], [1, 2]])
        assert act(shear, d) == act(AlgebraMatrix(R, shear.entries), d)
        assert act(HermitianMatrix.identity(R, 2), d) == d


class TestPinnedOutputs:
    """Every matrix-cone reader on 240 seeded inputs, 1,200 outputs in all,
    pinned by the SHA-256 of their reprs.  The digest was taken with the
    scalar LDL* and invertibility eliminations that the integer ones
    replaced, so it pins verdicts, witnesses, certificates and the action
    byte for byte."""

    DIGEST = "af2066748fa3a2a2819e56823feb8dac4304cf06b55c1a9c73bbe89825c822d6"

    @staticmethod
    def outputs():
        rng = random.Random(109)
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3, 4):
                for trial in range(20):
                    style = trial % 4
                    if style == 0:
                        x = random_pd_matrix(rng, kind, size)
                    elif style == 1:
                        x = random_hermitian_matrix(rng, kind, size)
                    elif style == 2:
                        x = wide_hermitian_matrix(rng, kind, size)
                    else:
                        head = ("negative", "zero-row", "zero-pivot")[trial % 3]
                        x = staged_hermitian(rng, kind, size, rng.randrange(size), head)
                    m = random_algebra_matrix(rng, kind, size, span=1 + trial % 3)
                    yield repr((is_positive_definite(x), is_positive_semidefinite(x)))
                    try:
                        yield repr(ldl_witness(x))
                    except NotPositiveDefinite:
                        yield "NotPositiveDefinite"
                    yield repr(negative_certificate(x))
                    yield repr(_is_invertible(m))
                    try:
                        yield repr(act(m, x))
                    except SingularMatrix:
                        yield "SingularMatrix"

    def test_digest(self):
        outputs = list(self.outputs())
        assert len(outputs) == 1200
        digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
        assert digest == self.DIGEST


class TestTraceInnerProduct:
    def test_examples(self):
        eye = HermitianMatrix.identity(R, 2)
        assert trace_inner_product(eye, eye) == 2
        e1 = HermitianMatrix.diagonal(R, [1, 0])
        e2 = HermitianMatrix.diagonal(R, [0, 1])
        assert trace_inner_product(e1, e2) == 0
        x = HermitianMatrix(H, [[1, j_unit], [-j_unit, 1]])
        assert trace_inner_product(x, x) == 4

    def test_symmetric_and_positive(self):
        rng = random.Random(23)
        for kind in MATRIX_KINDS:
            for _ in range(30):
                x = random_hermitian_matrix(rng, kind, rng.randint(1, 3))
                y = random_hermitian_matrix(rng, kind, x.size)
                assert trace_inner_product(x, y) == trace_inner_product(y, x)
                if any(any(v for v in row) for row in x.entries):
                    assert trace_inner_product(x, x) > 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            trace_inner_product(
                HermitianMatrix.identity(R, 2), HermitianMatrix.identity(R, 3)
            )
        with pytest.raises(ShapeMismatch):
            trace_inner_product(
                HermitianMatrix.identity(R, 2), HermitianMatrix.identity(C, 2)
            )


class TestPositiveDefinite:
    def test_examples(self):
        for kind in MATRIX_KINDS:
            assert is_positive_definite(HermitianMatrix.identity(kind, 3))
        assert not is_positive_definite(HermitianMatrix(R, [[1, 2], [2, 1]]))
        assert is_positive_definite(HermitianMatrix(R, [[2, -1], [-1, 2]]))

    def test_boundary(self):
        d = HermitianMatrix.diagonal(R, [1, 0])
        assert not is_positive_definite(d)
        assert is_positive_semidefinite(d)
        off = HermitianMatrix(R, [[0, 1], [1, 0]])
        assert not is_positive_semidefinite(off)

    def test_quaternionic(self):
        x = HermitianMatrix(H, [[2, j_unit], [-j_unit, 2]])
        assert is_positive_definite(x)
        y = HermitianMatrix(H, [[1, 2 * j_unit], [-2 * j_unit, 1]])
        assert not is_positive_definite(y)


class TestLdlWitness:
    def test_examples(self):
        eye = HermitianMatrix.identity(R, 3)
        lower, delta = ldl_witness(eye)
        assert lower == AlgebraMatrix.identity(R, 3)
        assert delta == (1, 1, 1)

        lower, delta = ldl_witness(HermitianMatrix.diagonal(R, [4, 9]))
        assert lower == AlgebraMatrix.identity(R, 2)
        assert delta == (4, 9)

        lower, delta = ldl_witness(HermitianMatrix(R, [[2, -1], [-1, 2]]))
        assert lower == AlgebraMatrix(R, [[1, 0], [Fraction(-1, 2), 1]])
        assert delta == (2, Fraction(3, 2))

    def test_recomposition_random(self):
        rng = random.Random(29)
        for kind in MATRIX_KINDS:
            for _ in range(40):
                d = random_pd_matrix(rng, kind, rng.randint(1, 3))
                lower, delta = ldl_witness(d)
                recomposed = act(lower.star(), HermitianMatrix.diagonal(kind, delta))
                assert recomposed == d
                assert all(p > 0 for p in delta)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            ldl_witness(HermitianMatrix(R, [[1, 2], [2, 1]]))


class TestAction:
    def test_examples(self):
        eye = HermitianMatrix.identity(R, 2)
        assert act(AlgebraMatrix.identity(R, 2), eye) == eye
        shear = AlgebraMatrix(R, [[1, 1], [0, 1]])
        assert act(shear, eye) == HermitianMatrix(R, [[1, 1], [1, 2]])
        stretch = AlgebraMatrix.diagonal(R, [2, 1])
        assert act(stretch, eye) == HermitianMatrix.diagonal(R, [4, 1])

    def test_composition_and_preservation(self):
        rng = random.Random(31)
        for kind in MATRIX_KINDS:
            for _ in range(40):
                size = rng.randint(1, 3)
                m1 = random_invertible_matrix(rng, kind, size)
                m2 = random_invertible_matrix(rng, kind, size)
                d = random_pd_matrix(rng, kind, size)
                assert act(m1 * m2, d) == act(m2, act(m1, d))
                assert is_positive_definite(act(m1, d))

    def test_errors(self):
        eye = HermitianMatrix.identity(R, 2)
        with pytest.raises(SingularMatrix):
            act(AlgebraMatrix(R, [[1, 1], [1, 1]]), eye)
        with pytest.raises(ShapeMismatch):
            act(AlgebraMatrix.identity(R, 3), eye)

    def test_both_invertibility_routes_agree(self):
        # on a D that a verdict found positive definite, act checks M by the
        # elimination of M* D M and keeps it in the result; on any other D
        # it eliminates M* M.  Both give the same image and refuse the same M.
        rng = random.Random(41)
        for kind in MATRIX_KINDS:
            for size in (1, 2, 3, 4):
                m = random_invertible_matrix(rng, kind, size)
                zero_column = AlgebraMatrix.diagonal(kind, [1] * (size - 1) + [0])
                for singular in (m * zero_column, zero_column * m):
                    assert not _is_invertible(singular)
                    d = random_pd_matrix(rng, kind, size)
                    x = random_hermitian_matrix(rng, kind, size)
                    unread = act(m, d)
                    assert getattr(unread, "_ldl", None) is None
                    assert is_positive_definite(d)
                    image = act(m, d)
                    assert image == unread and image._ldl == _elimination(unread)
                    for target in (d, x, HermitianMatrix.identity(kind, size)):
                        with pytest.raises(SingularMatrix, match="^action matrix is singular$"):
                            act(singular, target)
                        is_positive_semidefinite(target)
                        with pytest.raises(SingularMatrix, match="^action matrix is singular$"):
                            act(singular, target)


class TestSelfDuality:
    def test_in_cone_pairs_pair_positively(self):
        rng = random.Random(37)
        for kind in MATRIX_KINDS:
            for _ in range(60):
                size = rng.randint(1, 3)
                x = random_pd_matrix(rng, kind, size)
                y = random_pd_matrix(rng, kind, size)
                assert trace_inner_product(x, y) > 0

    def test_outside_points_are_separated(self):
        rng = random.Random(41)
        for kind in MATRIX_KINDS:
            found = 0
            while found < 25:
                x = random_hermitian_matrix(rng, kind, rng.randint(2, 3))
                if is_positive_semidefinite(x):
                    continue
                found += 1
                v = negative_certificate(x)
                assert v is not None
                value = quadratic_value(x, v)
                assert value < 0
                trace = trace_inner_product(x, HermitianMatrix.identity(kind, x.size))
                shift = -value / (2 * (abs(trace) + 1))
                y = rank_one_plus_shift(v, kind, shift)
                assert is_positive_definite(y)
                assert trace_inner_product(x, y) < 0

    def test_certificate_absent_for_psd(self):
        rng = random.Random(43)
        for kind in MATRIX_KINDS:
            for _ in range(20):
                d = random_pd_matrix(rng, kind, rng.randint(1, 3))
                assert negative_certificate(d) is None

    def test_certificate_zero_pivot_branch(self):
        # zero diagonal with a nonzero off-diagonal entry is never psd
        hyperbolic = HermitianMatrix(R, [[0, 1], [1, 0]])
        v = negative_certificate(hyperbolic)
        assert quadratic_value(hyperbolic, v) < 0

        i_unit = GaussianRational(0, 1)
        skew = HermitianMatrix(C, [[0, i_unit], [-i_unit, 3]])
        v = negative_certificate(skew)
        assert quadratic_value(skew, v) < 0

        quat = HermitianMatrix(H, [[0, j_unit], [-j_unit, -2]])
        v = negative_certificate(quat)
        assert quadratic_value(quat, v) < 0

    def test_psd_zero_leading_block(self):
        assert is_positive_semidefinite(HermitianMatrix(R, [[0, 0], [0, 1]]))
        assert is_positive_semidefinite(HermitianMatrix.diagonal(R, [0, 0, 2]))
        assert not is_positive_semidefinite(HermitianMatrix(R, [[0, 0], [0, -1]]))

    def test_certificate_after_skipped_zero_row(self):
        # the second pivot is zero with a zero row and is skipped; the
        # third fails, and its vector is carried back through the first
        units = {R: 1, C: GaussianRational(0, 1), H: j_unit}
        for kind, u in units.items():
            x = HermitianMatrix(kind, [[1, u, 0], [u.conjugate(), 1, 0], [0, 0, -1]])
            assert not is_positive_semidefinite(x)
            v = negative_certificate(x)
            assert quadratic_value(x, v) < 0
            # a leading zero row is skipped; the zero pivot after it has a
            # nonzero row
            y = HermitianMatrix(kind, [[0, 0, 0], [0, 0, u], [0, u.conjugate(), 2]])
            assert not is_positive_semidefinite(y)
            v = negative_certificate(y)
            assert quadratic_value(y, v) < 0
            assert v[0] == 0

    def test_readers_agree_random(self):
        rng = random.Random(59)
        for kind in MATRIX_KINDS:
            singular = 0
            for trial in range(60):
                size = rng.randint(1, 4)
                if trial % 3 == 0:
                    x = random_hermitian_matrix(rng, kind, size)
                else:
                    x = random_pd_matrix(rng, kind, size)
                if trial % 3 == 2:
                    # zero one row and column: singular but still PSD
                    k = rng.randrange(size)
                    rows = [list(row) for row in x.entries]
                    for i in range(size):
                        rows[k][i] = rows[i][k] = 0
                    x = HermitianMatrix(kind, rows)
                    singular += 1
                    assert is_positive_semidefinite(x)
                    assert not is_positive_definite(x)
                v = negative_certificate(x)
                assert (v is None) == is_positive_semidefinite(x)
                if v is not None:
                    assert quadratic_value(x, v) < 0
                try:
                    ldl_witness(x)
                    raised = False
                except NotPositiveDefinite:
                    raised = True
                assert raised == (not is_positive_definite(x))
            assert singular == 20


class TestLorentz:
    def test_examples(self):
        assert lorentz_member(LorentzVector([2, 1, 1]))
        assert not lorentz_member(LorentzVector([1, 1, 0]))
        assert not lorentz_member(LorentzVector([-3, 1, 1]))

    def test_closed(self):
        assert lorentz_member(LorentzVector([1, 1, 0]), closed=True)
        assert not lorentz_member(LorentzVector([-1, 1, 0]), closed=True)

    def test_p2_lorentz_correspondence(self):
        # [[p, q], [q, s]] is PD iff (p+s, p-s, 2q) lies in the Lorentz cone
        grid = [Fraction(n, 2) for n in range(-6, 7)]
        for p in grid:
            for q in grid:
                for s in grid:
                    m = HermitianMatrix(R, [[p, q], [q, s]])
                    v = LorentzVector([p + s, p - s, 2 * q])
                    assert is_positive_definite(m) == lorentz_member(v)


class TestConeSpec:
    def test_direct_sum_membership(self):
        spec = ConeSpec([PDBlock(R, 1), PDBlock(R, 1)])
        one_two = [HermitianMatrix(R, [[1]]), HermitianMatrix(R, [[2]])]
        assert cone_member(spec, one_two)
        one_zero = [HermitianMatrix(R, [[1]]), HermitianMatrix(R, [[0]])]
        assert not cone_member(spec, one_zero)  # open cone excludes boundary
        assert cone_member(spec, one_zero, closed=True)

        pd2 = ConeSpec([PDBlock(R, 2)])
        assert cone_member(pd2, [HermitianMatrix(R, [[2, -1], [-1, 2]])])

    def test_dimension(self):
        spec = ConeSpec([PDBlock(R, 2), PDBlock(C, 2), PDBlock(H, 2), PDBlock(R, 1)])
        assert spec.dimension == 3 + 4 + 6 + 1

    def test_shape_errors(self):
        spec = ConeSpec([PDBlock(R, 2)])
        with pytest.raises(ShapeMismatch):
            cone_member(spec, [HermitianMatrix.identity(R, 3)])
        with pytest.raises(ShapeMismatch):
            cone_member(spec, [HermitianMatrix.identity(C, 2)])
        with pytest.raises(ShapeMismatch):
            cone_member(spec, [])


class TestDimensions:
    def test_formulas(self):
        for r in range(1, 5):
            assert hermitian_dimension(R, r) == r * (r + 1) // 2
            assert hermitian_dimension(C, r) == r * r
            assert hermitian_dimension(H, r) == r * (2 * r - 1)
        with pytest.raises(InvalidInput):
            hermitian_dimension(R, 0)

    def test_every_kind_is_one_the_models_compute_with(self):
        # the kinds of Albert's classification, each with an entry class
        assert set(ScalarKind) == {kind for kind, _ in _FORM_RULES.values()}
        assert set(_KINDS) == set(ScalarKind)
        assert all(row.cls is not None for row in _KINDS.values())

    def test_imaginary_units(self):
        assert R.imaginary_units == ()
        assert C.imaginary_units == (GaussianRational(0, 1),)
        assert H.imaginary_units == (
            RationalQuaternion(0, 1, 0, 0),
            RationalQuaternion(0, 0, 1, 0),
            RationalQuaternion(0, 0, 0, 1),
        )

    def test_basis_enumeration(self):
        for kind in MATRIX_KINDS:
            for r in range(1, 5):
                basis = hermitian_basis(kind, r)
                assert len(basis) == hermitian_dimension(kind, r)
                flat = [flatten_hermitian(b) for b in basis]
                assert rational_rank(flat) == len(basis)
