import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtwist.ideals import ring_of_integers, validate_canonical
from quadtwist.lattice2 import (
    Gram2,
    UnimodularMap,
    covering_radius_sq,
    gram_of_twist,
    hermite_thickness_sq,
    is_lagrange_reduced,
    is_paper_reduced,
    is_stable,
    is_wr,
    lagrange_reduce,
    minima_brute_force,
    reduce_to_fundamental,
    similarity_point,
    successive_minima,
    wr_stretch,
    SimilarityPoint,
)
from quadtwist.quadfield import QuadElem

UNIT_SQUARE = Gram2.of(1, 0, 1)
HEXAGONAL = Gram2.of(2, 1, 2)


def random_grams(entry, positive):
    """Strategy for positive definite rational Grams, positive definite by
    construction: draw g11 > 0, g12 and det > 0, then g22 = (g12^2 + det)/g11.
    Nothing is filtered, so Hypothesis never rejects a draw."""
    return st.builds(
        lambda g11, g12, det: Gram2.of(g11, g12, (g12 * g12 + det) / g11),
        positive, entry, positive,
    )


entry = st.fractions(min_value=Fraction(-30), max_value=Fraction(30),
                     max_denominator=12)
positive = st.fractions(min_value=Fraction(1, 12), max_value=Fraction(30),
                        max_denominator=12)
grams = random_grams(entry, positive)


class TestGram2:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            Gram2.of(1, 2, 1)
        with pytest.raises(ValueError):
            Gram2.of(-1, 0, 1)

    def test_value_and_det(self):
        G = Gram2.of(2, 1, 3)
        assert G.det() == 5
        assert G.value((1, 0)) == 2
        assert G.value((1, -1)) == 2 - 2 + 3

    def test_transform_is_congruence(self):
        G = Gram2.of(5, 2, 3)
        U = UnimodularMap(1, 1, 0, 1)
        R = G.transform(U)
        assert R.g11 == G.value((1, 0))
        assert R.g22 == G.value((1, 1))
        assert R.det() == G.det()

    def test_unimodular_validation(self):
        with pytest.raises(ValueError):
            UnimodularMap(2, 0, 0, 1)
        u = UnimodularMap(1, 1, 0, 1) @ UnimodularMap(0, -1, 1, 0)
        assert abs(u.det()) == 1


class TestReduction:
    @given(G=grams)
    @settings(max_examples=300)
    def test_postconditions(self, G):
        R, U = lagrange_reduce(G)
        assert R.g11 <= R.g22
        assert 0 <= 2 * R.g12 <= R.g11
        assert R.det() == G.det()
        assert G.transform(U).entries() == R.entries()

    @given(G=grams)
    @settings(max_examples=150)
    def test_minima_against_enumeration(self, G):
        R, _ = lagrange_reduce(G)
        l1, l2 = successive_minima(G)
        assert (l1, l2) == (R.g11, R.g22)
        assert minima_brute_force(R, box=4) == (l1, l2)

    def test_identity_on_reduced(self):
        R, U = lagrange_reduce(HEXAGONAL)
        assert R.entries() == HEXAGONAL.entries()
        assert (U.a, U.b, U.c, U.d) == (1, 0, 0, 1)

    def test_negative_off_diagonal_normalized(self):
        R, _ = lagrange_reduce(Gram2.of(2, -1, 2))
        assert R.g12 == 1


class TestPredicates:
    def test_wr(self):
        assert is_wr(UNIT_SQUARE)
        assert is_wr(HEXAGONAL)
        assert not is_wr(Gram2.of(1, 0, 2))
        # WR but hidden by a skewed basis
        skew = HEXAGONAL.transform(UnimodularMap(1, 3, 1, 4))
        assert is_wr(skew)

    def test_stable(self):
        assert is_stable(UNIT_SQUARE)  # det = 1 = lambda1^2
        assert is_stable(HEXAGONAL)  # det = 3 <= 4
        assert not is_stable(Gram2.of(1, 0, 2))  # det = 2 > 1

    def test_paper_reduced_ignores_diagonal_order(self):
        G = Gram2.of(191646, 83226, 147442)
        assert G.g11 > G.g22
        assert is_paper_reduced(G)
        assert not is_lagrange_reduced(G)

    def test_lagrange_reduced(self):
        assert is_lagrange_reduced(HEXAGONAL)
        assert not is_lagrange_reduced(Gram2.of(4, 3, 4))


class TestGramOfTwist:
    def test_reference_gram(self):
        I = ring_of_integers(2)
        G = gram_of_twist(I, QuadElem.of(2, 1, 0))
        assert G.entries() == (2, 0, 4)

    def test_rejects_not_totally_positive(self):
        I = ring_of_integers(2)
        with pytest.raises(ValueError):
            gram_of_twist(I, QuadElem.of(2, 1, 1))
        with pytest.raises(ValueError):
            gram_of_twist(I, QuadElem.of(3, 2, 1))

    def test_det_identity(self):
        # det G = N(alpha) * N(I)^2 * disc(K), exactly
        for D, a, b, g, t in [(139, 9, 7, 1, Fraction(25, 2)), (141, 5, 4, 1, 13),
                              (10, 3, 1, 1, 4), (1327, 39, 38, 1, 63)]:
            I = validate_canonical(D, a, b, g)
            alpha = QuadElem.of(D, t, 1)
            G = gram_of_twist(I, alpha)
            assert G.det() == alpha.norm() * I.norm() ** 2 * I.discriminant()

    def test_rationality(self):
        I = validate_canonical(141, 5, 4, 1)
        G = gram_of_twist(I, QuadElem.of(141, Fraction(1269, 61), 1))
        for v in G.entries():
            assert isinstance(v, Fraction)


class TestCoveringRadius:
    def test_unit_square(self):
        assert covering_radius_sq(UNIT_SQUARE) == Fraction(1, 2)
        assert hermite_thickness_sq(UNIT_SQUARE) == Fraction(1, 4)

    def test_hexagonal(self):
        assert covering_radius_sq(HEXAGONAL) == Fraction(2, 3)
        assert hermite_thickness_sq(HEXAGONAL) == Fraction(4, 27)

    @given(G=grams)
    @settings(max_examples=200)
    def test_hexagonal_is_thinnest(self, G):
        assert hermite_thickness_sq(G) >= Fraction(4, 27)

    @given(G=grams)
    @settings(max_examples=100)
    def test_scale_invariance(self, G):
        H = Gram2.of(G.g11 * 7, G.g12 * 7, G.g22 * 7)
        assert covering_radius_sq(H) == 7 * covering_radius_sq(G)
        assert hermite_thickness_sq(H) == hermite_thickness_sq(G)

    @given(G=grams)
    @settings(max_examples=100)
    def test_bounds(self, G):
        mu2 = covering_radius_sq(G)
        l1, l2 = successive_minima(G)
        # the deep hole is at least half the longer minimal vector away and
        # within the circumradius bound mu^2 <= (l1 + l2)/4 + ... use l2/4 lower
        assert mu2 >= l2 / 4
        assert mu2 <= (l1 + l2)  # crude sanity ceiling


class TestWrStretch:
    def test_square_class(self):
        cos_sq, sign, norm_sq = wr_stretch(Gram2.of(1, 0, 4))
        assert (cos_sq, sign, norm_sq) == (0, 0, 4)

    def test_requires_reduced(self):
        with pytest.raises(ValueError):
            wr_stretch(Gram2.of(4, 3, 4))

    @given(G=grams)
    @settings(max_examples=100)
    def test_stretch_invariants(self, G):
        R, _ = lagrange_reduce(G)
        cos_sq, sign, norm_sq = wr_stretch(R)
        # both vectors of the cross-scaled lattice have squared norm g11*g22,
        # the cosine is unchanged, and the class is WR: cos^2 <= 1/4 suffices
        # for a reduced equal-norm basis
        assert norm_sq == R.g11 * R.g22
        assert cos_sq * norm_sq == R.g12 * R.g12
        assert cos_sq <= Fraction(1, 4)
        assert sign == (R.g12 > 0) - (R.g12 < 0)


class TestSimilarity:
    def test_square_class(self):
        tau = similarity_point(UNIT_SQUARE)
        assert (tau.x, tau.y_sq) == (0, 1)

    def test_hexagonal_class(self):
        tau = similarity_point(HEXAGONAL)
        assert (tau.x, tau.y_sq) == (Fraction(1, 2), Fraction(3, 4))

    def test_fundamental_domain_postcondition(self):
        tau = reduce_to_fundamental(SimilarityPoint(Fraction(7, 3), Fraction(1, 50)))
        assert 0 <= tau.x <= Fraction(1, 2)
        assert tau.x * tau.x + tau.y_sq >= 1

    @given(G=grams, m=st.integers(-3, 3))
    @settings(max_examples=150)
    def test_invariance_under_basis_change(self, G, m):
        U = UnimodularMap(1, m, 0, 1) @ UnimodularMap(0, -1, 1, 0)
        assert similarity_point(G) == similarity_point(G.transform(U))

    @given(G=grams)
    @settings(max_examples=150)
    def test_region_flags(self, G):
        tau = similarity_point(G)
        assert is_wr(G) == (tau.x * tau.x + tau.y_sq == 1)
        assert is_stable(G) == (tau.y_sq <= 1)
