"""Each layer against the others, where the paper identifies their objects.

Binary forms are the real 2 x 2 case of the matrix layer: for U in
SL(2, Z) and an integral form G, the action M_U* D_G M_U is the form
U^T G U, and D_G is positive definite exactly when G is.  Real
multiplication by Q(sqrt(d)) is the scalar layer's quadratic field: the
open cone of the domain action is the set of totally positive elements,
and the action is multiplication by the squared fundamental unit.  None of
these properties needs an oracle; a defect shared by a layer and its own
oracle shows here.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from amplecones import (
    AlgebraMatrix,
    HermitianMatrix,
    IntegralForm,
    NotPositiveDefinite,
    PolyhedralCone,
    QuadIrrational,
    ScalarKind,
    UnimodularMatrix,
    act,
    fundamental_unit,
    is_positive_definite,
    is_squarefree,
    is_totally_positive,
    minkowski_reduce,
    poly_member,
    real_mult_fundamental_domain,
)

R = ScalarKind.REAL
# 0 <= 2 g12 <= g11 <= g22, the reduced forms of minkowski_reduce up to the
# sign of g12
MINKOWSKI = PolyhedralCone(3, [(1, 0, 1), (2, 1, 2), (0, 0, 1)])

# small entries, and entries wider than 64 bits
ENTRIES = st.integers(-(2**80), 2**80) | st.integers(-60, 60)
POSITIVE = st.integers(1, 2**80) | st.integers(1, 60)
# small radicands, and radicands past 1,440,000, where the sampler of
# verify_fundamental_domain cuts its reach
RADICANDS = (st.integers(2, 30) | st.integers(1_440_001, 3_000_000)).filter(is_squarefree)


@st.composite
def forms(draw) -> IntegralForm:
    """A positive definite integral form [[g11, g12], [g12, g22]]."""
    g11, g22 = draw(POSITIVE), draw(POSITIVE)
    r = math.isqrt(g11 * g22 - 1)  # g12^2 < g11 g22 exactly when |g12| <= r
    return IntegralForm(g11, draw(st.integers(-r, r)), g22)


@st.composite
def unimodular(draw) -> UnimodularMatrix:
    """A word in S = [[0, -1], [1, 0]] and shears [[1, t], [0, 1]]."""
    a, b, c, d = 1, 0, 0, 1
    for t in draw(st.lists(ENTRIES, max_size=4)):
        a, b, c, d = b, b * t - a, d, d * t - c  # times S, then the shear
    return UnimodularMatrix(a, b, c, d)


def gram(G: IntegralForm) -> HermitianMatrix:
    return HermitianMatrix(R, [[G.g11, G.g12], [G.g12, G.g22]])


class TestFormsAreRealMatrices:
    @settings(max_examples=300, deadline=None)
    @given(forms(), unimodular())
    def test_action_is_the_change_of_basis(self, G, U):
        # D_G is fresh, so act checks M_U by the elimination of M_U* M_U
        image = act(AlgebraMatrix(R, [[U.a, U.b], [U.c, U.d]]), gram(G))
        assert image == gram(G.transformed(U))

    @settings(max_examples=300, deadline=None)
    @given(ENTRIES, ENTRIES, ENTRIES)
    def test_definite_exactly_when_the_form_builds(self, g11, g12, g22):
        try:
            IntegralForm(g11, g12, g22)
            builds = True
        except NotPositiveDefinite:
            builds = False
        assert is_positive_definite(HermitianMatrix(R, [[g11, g12], [g12, g22]])) == builds

    @settings(max_examples=300, deadline=None)
    @given(forms(), unimodular())
    def test_reduction_lands_in_the_minkowski_cone(self, G, U):
        reduced, V = minkowski_reduce(G.transformed(U))
        assert reduced == G.transformed(U).transformed(V)
        assert poly_member(MINKOWSKI, (reduced.g11, abs(reduced.g12), reduced.g22))
        # canonical: G and U^T G U reduce to one form, which reduces to itself
        assert minkowski_reduce(G)[0] == reduced
        assert minkowski_reduce(reduced)[0] == reduced


class TestRealMultiplicationIsTheQuadraticField:
    @settings(max_examples=200, deadline=None)
    @given(RADICANDS, ENTRIES, ENTRIES)
    def test_open_cone_is_total_positivity(self, d, x, y):
        _, action = real_mult_fundamental_domain(d, (1, 0))
        assert action.open_member((x, y)) == is_totally_positive(QuadIrrational(d, x, y))

    @settings(max_examples=200, deadline=None)
    @given(RADICANDS, ENTRIES, ENTRIES)
    def test_action_is_the_squared_unit(self, d, x, y):
        if x == y == 0:
            return
        _, action = real_mult_fundamental_domain(d, (1, 0))
        unit = fundamental_unit(d).value
        z = QuadIrrational(d, x, y) * unit * unit
        u, w = action.ray_image((x, y))
        # (u, w) is a positive multiple of (z.a, z.b)
        assert u * z.b == w * z.a
        assert u * z.a + w * z.b > 0
