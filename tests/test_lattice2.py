import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtwist.applications import _thickness_at
from quadtwist.geodesic import _log_ratio, _sample_at, _t_at
from quadtwist.ideals import enumerate_canonical, ring_of_integers, validate_canonical
from quadtwist.lattice2 import (
    Gram2,
    SimilarityPoint,
    UnimodularMap,
    _gram,
    _reduce,
    _twist_ints,
    gram_of_twist,
    hermite_thickness_sq,
    is_lagrange_reduced,
    is_paper_reduced,
    is_stable,
    is_wr,
    lagrange_reduce,
    minima_brute_force,
    similarity_point,
    successive_minima,
)
from quadtwist.quadfield import (
    QuadElem,
    _t_plus_sqrt,
    discriminant,
    fundamental_unit,
    is_squarefree,
)
from quadtwist.twist import stable_twist, wr_twist

UNIT_SQUARE = Gram2(1, 0, 1)
HEXAGONAL = Gram2(2, 1, 2)


def random_grams(entry, positive):
    """Strategy for positive definite rational Grams, positive definite by
    construction: draw g11 > 0, g12 and det > 0, then g22 = (g12^2 + det)/g11.
    Nothing is filtered, so Hypothesis never rejects a draw."""
    return st.builds(
        lambda g11, g12, det: Gram2(g11, g12, (g12 * g12 + det) / g11),
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
            Gram2(1, 2, 1)
        with pytest.raises(ValueError):
            Gram2(-1, 0, 1)

    def test_det(self):
        assert Gram2(2, 1, 3).det() == 5

    def test_unimodular_validation(self):
        for entries in ((2, 0, 0, 1), (1, 1, 1, 1)):
            with pytest.raises(ValueError):
                UnimodularMap(*entries)
        for entries in ((1, 1, 0, 1), (0, -1, 1, 0), (1, 0, 0, -1)):
            u = UnimodularMap(*entries)
            assert (u.a, u.b, u.c, u.d) == entries


class TestReduction:
    @given(G=grams)
    @settings(max_examples=300)
    def test_postconditions(self, G):
        R, U = lagrange_reduce(G)
        assert R.g11 <= R.g22
        assert 0 <= 2 * R.g12 <= R.g11
        assert R.det() == G.det()
        assert _transform(G, U) == R

    @given(G=grams)
    @settings(max_examples=150)
    def test_minima_against_enumeration(self, G):
        R, _ = lagrange_reduce(G)
        l1, l2 = successive_minima(G)
        assert (l1, l2) == (R.g11, R.g22)
        assert minima_brute_force(R) == (l1, l2)

    def test_brute_force_on_a_skewed_basis(self):
        # The hexagonal lattice in the basis (b1, 30*b1 + b2): its second
        # minimum is at the coefficients (-30, 1) and (-31, 1), outside any
        # fixed box of size 25.
        G = _transform(HEXAGONAL, UnimodularMap(1, 30, 0, 1))
        assert minima_brute_force(G) == successive_minima(G) == (2, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_brute_force_sizes_itself(self, seed):
        rng = random.Random(seed)
        for _ in range(250):
            n11, n12 = rng.randint(1, 40), rng.randint(-40, 40)
            n22 = rng.randint(n12 * n12 // n11 + 1, n12 * n12 // n11 + 40)
            G = Gram2(Fraction(n11, rng.randint(1, 9)), Fraction(n12, 9),
                      Fraction(n22, 9))
            # [[1, m], [0, 1]] [[0, -1], [1, 0]] [[1, k], [0, 1]]
            m, k = rng.randint(-60, 60), rng.randint(-60, 60)
            G = _transform(G, UnimodularMap(m, m * k - 1, 1, k))
            assert minima_brute_force(G) == successive_minima(G)

    def test_identity_on_reduced(self):
        R, U = lagrange_reduce(HEXAGONAL)
        assert R == HEXAGONAL
        assert (U.a, U.b, U.c, U.d) == (1, 0, 0, 1)

    def test_negative_off_diagonal_normalized(self):
        R, _ = lagrange_reduce(Gram2(2, -1, 2))
        assert R.g12 == 1


def _ref_reduce(g):
    """The Fraction loop lagrange_reduce ran before it moved to integers, on
    a (g11, g12, g22) triple: the reduced triple and the transform, whose
    columns follow the basis vectors."""
    g11, g12, g22 = g
    u = UnimodularMap(1, 0, 0, 1)
    while True:
        if g11 > g22:
            g11, g22 = g22, g11
            u = UnimodularMap(u.b, u.a, u.d, u.c)
        if 2 * abs(g12) <= g11:
            break
        r = round(g12 / g11)
        g22 = g22 - 2 * r * g12 + r * r * g11
        g12 = g12 - r * g11
        u = UnimodularMap(u.a, u.b - r * u.a, u.c, u.d - r * u.c)
    if g11 > g22:
        g11, g22 = g22, g11
        u = UnimodularMap(u.b, u.a, u.d, u.c)
    if g12 < 0:
        g12 = -g12
        u = UnimodularMap(u.a, -u.b, u.c, -u.d)
    return (g11, g12, g22), u


def _reference_lagrange(G):
    r, u = _ref_reduce((G.g11, G.g12, G.g22))
    return Gram2(*r), u


wide_grams = random_grams(
    st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6),
                 max_denominator=10**4),
    st.fractions(min_value=Fraction(1, 10**4), max_value=Fraction(10**6),
                 max_denominator=10**4))


class TestReductionAgainstFractionLoop:
    @given(G=st.one_of(grams, wide_grams))
    @settings(max_examples=300, derandomize=True)
    def test_same_result_and_transform(self, G):
        assert lagrange_reduce(G) == _reference_lagrange(G)

    @pytest.mark.parametrize("g11, g12, g22", [
        # g12/g11 is an exact half-integer: 3/2, 5/2, -3/2, -5/2, 7/2
        (2, 3, 10), (2, 5, 20), (2, -3, 10), (2, -5, 20), (4, 14, 50),
        (Fraction(2, 3), 1, 5), (Fraction(2, 7), Fraction(5, 7), 3),
        # ties after a swap: g22 < g11, g12/g22 = 3/2 and 5/2
        (10, 3, 2), (20, -5, 2),
    ])
    def test_half_integer_quotients_round_half_to_even(self, g11, g12, g22):
        G = Gram2(g11, g12, g22)
        R, U = lagrange_reduce(G)
        assert (R, U) == _reference_lagrange(G)
        assert _transform(G, U) == R

    def test_first_step_rounds_to_even(self):
        # 5/2 rounds to 2, not 3: v2 <- v2 - 2 v1
        _, U = lagrange_reduce(Gram2(2, 5, 20))
        assert (U.a, U.b, U.c, U.d) == (1, -2, 0, 1)


# The Fraction implementation of the Gram predicates before Gram2 moved to
# integers, kept as an oracle on plain (g11, g12, g22) Fraction triples.

def _ref_det(g):
    g11, g12, g22 = g
    return g11 * g22 - g12 * g12


def _ref_value(g, v):
    g11, g12, g22 = g
    m, n = v
    return g11 * m * m + 2 * g12 * m * n + g22 * n * n


def _ref_transform(g, u):
    a, b, c, d = u.a, u.b, u.c, u.d
    g11, g12, g22 = g
    return (_ref_value(g, (a, c)),
            g11 * a * b + g12 * (a * d + b * c) + g22 * c * d,
            _ref_value(g, (b, d)))


def _transform(G, u):
    """The Gram of the same lattice in the basis (b1, b2) * U."""
    return Gram2(*_ref_transform((G.g11, G.g12, G.g22), u))


def _ref_is_wr(g):
    r, _ = _ref_reduce(g)
    return r[0] == r[2]


def _ref_is_stable(g):
    r, _ = _ref_reduce(g)
    return _ref_det(r) <= r[0] * r[0]


def _ref_covering_radius_sq(g):
    (g11, g12, g22), _ = _ref_reduce(g)
    return g11 * g22 * (g11 + g22 - 2 * g12) / (4 * _ref_det((g11, g12, g22)))


def _ref_similarity(g):
    r, _ = _ref_reduce(g)
    x, y2 = r[1] / r[0], _ref_det(r) / (r[0] * r[0])
    while True:
        x = x - round(x)
        n = x * x + y2
        if n >= 1:
            break
        x, y2 = -x / n, y2 / (n * n)
    return abs(x), y2


def _ref_minima_brute_force(g, box):
    best = []
    for m in range(-box, box + 1):
        for n in range(0, box + 1):
            if n == 0 and m <= 0:
                continue
            best.append((_ref_value(g, (m, n)), (m, n)))
    best.sort(key=lambda t: t[0])
    q1, v1 = best[0]
    for q2, v2 in best[1:]:
        if v1[0] * v2[1] - v1[1] * v2[0] != 0:
            return q1, q2


def pd_triples(entry, positive):
    """Positive definite (g11, g12, g22) Fraction triples, by construction."""
    return st.builds(lambda g11, g12, det: (g11, g12, (g12 * g12 + det) / g11),
                     positive, entry, positive)


triples = st.one_of(
    pd_triples(entry, positive),
    pd_triples(st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6),
                            max_denominator=10**4),
               st.fractions(min_value=Fraction(1, 10**4),
                            max_value=Fraction(10**6), max_denominator=10**4)))
# [[1, m], [0, 1]] [[0, -1], [1, 0]] [[1, k], [0, s]]
unimodular = st.builds(
    lambda m, k, s: UnimodularMap(m, m * k - s, 1, k),
    st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([1, -1]))


class TestGram2AgainstFractionOracle:
    @given(t=triples, u=unimodular)
    @settings(max_examples=300, derandomize=True)
    def test_predicates_and_invariants(self, t, u):
        G = Gram2(*t)
        assert (G.g11, G.g12, G.g22) == t
        assert all(type(x) is Fraction for x in (G.g11, G.g12, G.g22))
        assert G.det() == _ref_det(t)
        assert is_paper_reduced(G) == (4 * t[1] * t[1] <= t[0] * t[2])
        assert is_lagrange_reduced(G) == (2 * abs(t[1]) <= min(t[0], t[2]))
        assert is_wr(G) == _ref_is_wr(t)
        assert is_stable(G) == _ref_is_stable(t)
        assert hermite_thickness_sq(G) == \
            _ref_covering_radius_sq(t) ** 2 / _ref_det(t)
        tau = similarity_point(G)
        assert (tau.x, tau.y_sq) == _ref_similarity(t)
        R, _ = lagrange_reduce(G)
        assert minima_brute_force(R) == \
            _ref_minima_brute_force((R.g11, R.g12, R.g22), 4)

    @given(t=triples, u=unimodular, k=st.integers(2, 50))
    @settings(max_examples=200, derandomize=True)
    def test_equality_hash_pickle_repr(self, t, u, k):
        G = Gram2(*t)
        # the same matrix through the other constructors and a round trip
        for H in (Gram2(*t),
                  _gram(*(k * n for n in (G._n11, G._n12, G._n22, G._den))),
                  _transform(_transform(G, u), _inverse(u)),
                  pickle.loads(pickle.dumps(G))):
            assert H == G and hash(H) == hash(G)
            assert (H.g11, H.g12, H.g22) == t
        assert repr(G) == f"Gram2(g11={t[0]!r}, g12={t[1]!r}, g22={t[2]!r})"
        assert str(G) == f"[[{t[0]}, {t[1]}], [{t[1]}, {t[2]}]]"
        assert Gram2(*(x * k for x in t)) != G
        assert Gram2(t[0], t[1], t[2] + Fraction(1, k)) != G
        assert G != t

    @given(g11=entry, g12=entry, det=st.fractions(min_value=Fraction(-30),
                                                  max_value=Fraction(0),
                                                  max_denominator=12))
    @settings(max_examples=200, derandomize=True)
    def test_rejects_not_positive_definite(self, g11, g12, det):
        # g11 <= 0, or g11 > 0 with det <= 0
        if g11 > 0:
            g22 = (g12 * g12 + det) / g11
        else:
            g22 = abs(g12) + 1
        with pytest.raises(ValueError, match="not positive definite"):
            Gram2(g11, g12, g22)


def _inverse(u):
    # inverse of [[a, b], [c, d]] with det +-1
    s = u.a * u.d - u.b * u.c
    return UnimodularMap(u.d * s, -u.b * s, -u.c * s, u.a * s)


class TestPredicates:
    def test_wr(self):
        assert is_wr(UNIT_SQUARE)
        assert is_wr(HEXAGONAL)
        assert not is_wr(Gram2(1, 0, 2))
        # WR but hidden by a skewed basis
        skew = _transform(HEXAGONAL, UnimodularMap(1, 3, 1, 4))
        assert is_wr(skew)

    def test_stable(self):
        assert is_stable(UNIT_SQUARE)  # det = 1 = lambda1^2
        assert is_stable(HEXAGONAL)  # det = 3 <= 4
        assert not is_stable(Gram2(1, 0, 2))  # det = 2 > 1

    def test_paper_reduced_ignores_diagonal_order(self):
        G = Gram2(191646, 83226, 147442)
        assert G.g11 > G.g22
        assert is_paper_reduced(G)
        assert not is_lagrange_reduced(G)

    def test_lagrange_reduced(self):
        assert is_lagrange_reduced(HEXAGONAL)
        assert not is_lagrange_reduced(Gram2(4, 3, 4))


class TestGramOfTwist:
    def test_reference_gram(self):
        I = ring_of_integers(2)
        G = gram_of_twist(I, QuadElem.of(2, 1, 0))
        assert (G.g11, G.g12, G.g22) == (2, 0, 4)

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
            assert G.det() == alpha.norm() * I.norm() ** 2 * discriminant(D)

    def test_rationality(self):
        I = validate_canonical(141, 5, 4, 1)
        G = gram_of_twist(I, QuadElem.of(141, Fraction(1269, 61), 1))
        for v in (G.g11, G.g12, G.g22):
            assert isinstance(v, Fraction)


class TestCoveringRadius:
    def test_unit_square(self):
        assert hermite_thickness_sq(UNIT_SQUARE) == Fraction(1, 4)

    def test_hexagonal(self):
        assert hermite_thickness_sq(HEXAGONAL) == Fraction(4, 27)

    @given(G=grams)
    @settings(max_examples=200)
    def test_hexagonal_is_thinnest(self, G):
        assert hermite_thickness_sq(G) >= Fraction(4, 27)

    @given(G=grams)
    @settings(max_examples=100)
    def test_scale_invariance(self, G):
        H = Gram2(G.g11 * 7, G.g12 * 7, G.g22 * 7)
        assert hermite_thickness_sq(H) == hermite_thickness_sq(G)

    @given(G=grams)
    @settings(max_examples=100)
    def test_bounds(self, G):
        mu4 = hermite_thickness_sq(G) * G.det()  # tau^2 = mu^4 / det
        l1, l2 = successive_minima(G)
        # the deep hole is at least half the longer minimal vector away and
        # within the circumradius bound mu^2 <= (l1 + l2)/4 + ... use l2/4 lower
        assert mu4 >= (l2 / 4) ** 2
        assert mu4 <= (l1 + l2) ** 2  # crude sanity ceiling


class TestSimilarity:
    def test_square_class(self):
        tau = similarity_point(UNIT_SQUARE)
        assert (tau.x, tau.y_sq) == (0, 1)

    def test_hexagonal_class(self):
        tau = similarity_point(HEXAGONAL)
        assert (tau.x, tau.y_sq) == (Fraction(1, 2), Fraction(3, 4))

    @given(G=grams, m=st.integers(-3, 3))
    @settings(max_examples=150)
    def test_invariance_under_basis_change(self, G, m):
        U = UnimodularMap(m, -1, 1, 0)  # [[1, m], [0, 1]] [[0, -1], [1, 0]]
        assert similarity_point(G) == similarity_point(_transform(G, U))

    @given(G=grams)
    @settings(max_examples=150)
    def test_region_flags(self, G):
        tau = similarity_point(G)
        assert is_wr(G) == (tau.x * tau.x + tau.y_sq == 1)
        assert is_stable(G) == (tau.y_sq <= 1)


def _seeded_probes(seed):
    """A canonical ideal with squarefree D <= 1000 and a <= 12, WR-twistable
    for even seeds when D has one, with four _t_at probes inside its unit
    period, its WR twist t* and its stable witness t when it has them, all
    drawn from random.Random(seed)."""
    rng = random.Random(seed)
    D = rng.choice([D for D in range(2, 1001) if is_squarefree(D)])
    ideals = enumerate_canonical(D, 12)
    if seed % 2 == 0:
        ideals = [J for J in ideals if wr_twist(J).wr_twistable] or ideals
    I = rng.choice(ideals)
    log_period = _log_ratio(fundamental_unit(D)[1])
    ts = [_t_at(D, log_period * rng.uniform(0.01, 0.99)) for _ in range(4)]
    verdict = wr_twist(I)
    if verdict.wr_twistable:
        ts.append(verdict.t_star)
    witness_t = stable_twist(I).witness_t
    if witness_t is not None:
        ts.append(witness_t)
    return I, ts


class TestOrbitKernel:
    """The orbit probes reduce the pencil integers of the twist as they are;
    they must give what the Gram2 path and the Fraction loop give."""

    @pytest.mark.parametrize("seed", range(40))
    def test_probes_agree_with_the_gram_path(self, seed):
        I, ts = _seeded_probes(seed)
        for t in ts:
            alpha = _t_plus_sqrt(I.D, t)
            G = gram_of_twist(I, alpha)
            s = _sample_at(I, alpha)
            assert s.tau == similarity_point(G)
            assert (s.is_wr, s.is_stable) == (is_wr(G), is_stable(G))
            (g11, g12, g22), _ = _ref_reduce((G.g11, G.g12, G.g22))
            assert s.tau == SimilarityPoint(g12 / g11,
                                            (g11 * g22 - g12 * g12) / (g11 * g11))
            assert s.is_wr == (g11 == g22)
            # exact float equality: both are one correctly rounded division
            assert _thickness_at(I, t) == float(hermite_thickness_sq(G))

    @pytest.mark.parametrize("seed", range(8))
    def test_reduce_diagonal_is_the_minima(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            n11, n12 = rng.randint(1, 30), rng.randint(-30, 30)
            n22 = rng.randint(n12 * n12 // n11 + 1, n12 * n12 // n11 + 31)
            r11, r12, r22, a, b, c, d = _reduce(n11, n12, n22)
            G = Gram2(n11, n12, n22)
            assert minima_brute_force(G) == (r11, r22)
            assert _transform(G, UnimodularMap(a, b, c, d)) == Gram2(r11, r12, r22)
            # the steps depend only on ratios: a multiple reduces the same way
            k = rng.randint(2, 10 ** 30)
            assert _reduce(k * n11, k * n12, k * n22) == \
                (k * r11, k * r12, k * r22, a, b, c, d)

    @pytest.mark.parametrize("seed", range(10))
    def test_twist_ints_rejects_t_below_sqrt_D(self, seed):
        I, _ = _seeded_probes(seed)
        rng = random.Random(seed)
        for _ in range(5):
            q = rng.randint(1, 1000)
            r = math.isqrt(I.D * q * q)  # D is not a square: t^2 < D iff |p| <= r
            p = rng.randint(-r, r)
            with pytest.raises(ValueError, match="not totally positive"):
                _twist_ints(I, p, q)
        with pytest.raises(ValueError, match="not totally positive"):
            _twist_ints(I, math.isqrt(I.D), 1)
