import functools
import hashlib
import json
import math
import os
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtwist.applications import (
    HEXAGONAL_THICKNESS_SQ,
    min_abs_norm,
    tau_min_search,
)
from quadtwist.geodesic import (
    F_invariant,
    _in_cone_ints,
    _log_ratio,
    _points_in_embedding_box,
    _sample_at,
    _t_at,
    orthogonal_only,
    sample_orbit,
    wr_intersection_classes,
)
from quadtwist.ideals import (
    CanonicalIdeal,
    enumerate_canonical,
    ring_of_integers,
)
from quadtwist.lattice2 import (
    Gram2,
    SimilarityPoint,
    gram_of_twist,
    is_stable,
    is_wr,
    lagrange_reduce,
    similarity_point,
)
from quadtwist.quadfield import (
    QuadElem,
    discriminant,
    fundamental_unit,
    is_squarefree,
)
from quadtwist.twist import wr_twist
from support import embedding, power
import oracles


class TestSampleAt:
    def test_orthogonal_point(self):
        s, _ = _sample_at(ring_of_integers(5), QuadElem(5, 5, 1))
        assert (s.tau.x, s.tau.y_sq) == (0, 1)
        assert s.is_wr and s.is_stable

    def test_untwisted_ring(self):
        s, _ = _sample_at(ring_of_integers(2), QuadElem(2, 1, 0))
        assert (s.tau.x, s.tau.y_sq) == (0, 2)
        assert not s.is_wr and not s.is_stable

    def test_rejects_not_totally_positive(self):
        with pytest.raises(ValueError):
            _sample_at(ring_of_integers(2), QuadElem(2, 1, 1))

    @pytest.mark.parametrize("D, a, b, g", [
        (5, 1, 0, 1), (59, 1, 0, 1), (139, 9, 7, 1), (141, 5, 4, 1),
        (1327, 39, 38, 1)])
    def test_matches_public_predicates(self, D, a, b, g):
        # _sample_at reduces the Gram once; its flags and tau must be what the
        # public predicates give, each reducing on its own
        I = CanonicalIdeal(D, a, b, g)
        isqrt = math.isqrt(D)
        for t in [Fraction(isqrt + 1), Fraction(7 * isqrt + 3, 5),
                  Fraction(1946, 107), Fraction(10 * D + 1, 3), Fraction(63)]:
            if not t * t > D:
                continue
            alpha = QuadElem(D, t, 1)
            G = gram_of_twist(I, alpha)
            s, _ = _sample_at(I, alpha)
            assert (s.is_wr, s.is_stable) == (is_wr(G), is_stable(G))
            assert s.tau == similarity_point(G)


class TestSampleOrbit:
    def test_fundamental_domain_postconditions(self):
        for D, a, b, g in [(5, 1, 0, 1), (59, 1, 0, 1), (139, 9, 7, 1)]:
            I = CanonicalIdeal(D, a, b, g)
            samples = sample_orbit(I, 24)
            assert len(samples) == 24
            for s in samples:
                assert 0 <= s.tau.x <= Fraction(1, 2)
                assert s.tau.x * s.tau.x + s.tau.y_sq >= 1
                G = gram_of_twist(I, s.alpha)
                assert s.is_wr == is_wr(G)
                assert s.is_stable == is_stable(G)
                assert s.is_wr == (s.tau.x * s.tau.x + s.tau.y_sq == 1)
                assert s.is_stable == (s.tau.y_sq <= 1)

    def test_ratio_covers_one_period(self):
        I = ring_of_integers(2)
        _, eps_plus = fundamental_unit(2)
        period = embedding(eps_plus, 1) ** 2
        ss = [s.s for s in sample_orbit(I, 16)]
        assert all(1 < x < period for x in ss)
        assert ss == sorted(ss)

    def test_unit_periodicity(self):
        # Gram at alpha and at alpha * eps_plus^2 belong to the same class
        for D in (2, 5, 13):
            I = ring_of_integers(D)
            _, eps_plus = fundamental_unit(D)
            alpha = QuadElem(D, D + 3, 1)
            shifted = alpha * eps_plus * eps_plus
            p1 = similarity_point(gram_of_twist(I, alpha))
            p2 = similarity_point(gram_of_twist(I, shifted))
            assert p1 == p2

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            sample_orbit(ring_of_integers(2), 0)

    @pytest.mark.parametrize("n", [2.0, "4", True])
    def test_count_must_be_an_int(self, n):
        # a bool is an int subclass, so it is refused by type, not value
        with pytest.raises(TypeError, match="n must be an int"):
            sample_orbit(ring_of_integers(2), n)

    @pytest.mark.parametrize("seed", range(12))
    def test_samples_are_the_fraction_path(self, seed):
        # each sample is _sample_at at t + sqrt(D), with t + sqrt(D) built
        # from the Fraction t of the ints _t_at returns, and reduced from the
        # identity basis: the warm-started samples equal the cold ones
        rng = random.Random(seed)
        if seed == 0:
            I, n = ring_of_integers(9999991), 4
        else:
            D = rng.choice([D for D in range(2, 1001) if is_squarefree(D)])
            I, n = rng.choice(enumerate_canonical(D, 12)), rng.randint(1, 40)
        log_period = _log_ratio(fundamental_unit(I.D)[1])
        expected = [_sample_at(I, QuadElem(
                        I.D, Fraction(*_t_at(I.D, log_period * (k + 0.5) / n)), 1))[0]
                    for k in range(n)]
        samples = sample_orbit(I, n)
        assert samples == expected
        assert repr(samples) == repr(expected)

    @staticmethod
    def _check_period(D, samples, n):
        """The orbit invariants of one sampled period of O_K: exactly
        decreasing t > sqrt(D) inside one period, increasing s > 1, and tau
        in the fundamental domain with flags equal to its exact predicates."""
        assert len(samples) == n
        ts = [s.alpha.x for s in samples]
        assert all(b < a for a, b in zip(ts, ts[1:])), D
        assert all(t * t > D for t in ts), D
        assert all(s.alpha.y == 1 for s in samples), D
        _, eps_plus = fundamental_unit(D)
        last = samples[-1].alpha
        # sigma_1/sigma_2 of the last alpha is below eps_plus^2
        assert last * eps_plus.conjugate() < last.conjugate() * eps_plus, D
        for s in samples:
            x, y_sq = s.tau.x, s.tau.y_sq
            assert 0 <= x <= Fraction(1, 2) and y_sq > 0, D
            assert x * x + y_sq >= 1, D
            assert s.is_wr == (x * x + y_sq == 1), D
            assert s.is_stable == (y_sq <= 1), D

    def test_every_ring_of_integers_up_to_1000(self):
        # toward the large-s end of a period t - sqrt(D) = 2*sqrt(D)/(s - 1)
        # falls below the resolution of a float t, in many of these fields
        n = 64
        for D in range(2, 1001):
            if not is_squarefree(D):
                continue
            samples = sample_orbit(ring_of_integers(D), n)
            self._check_period(D, samples, n)
            ss = [s.s for s in samples]
            assert ss[0] > 1 and all(b > a for a, b in zip(ss, ss[1:])), D

    def test_unit_beyond_float_range(self):
        # eps_plus of D = 9999991 has 4153 digits: s is inf for every sample,
        # and the exact t still orders them
        D = 9999991
        samples = sample_orbit(ring_of_integers(D), 8)
        self._check_period(D, samples, 8)
        assert all(s.s == math.inf for s in samples)

    def test_s_is_finite_up_to_the_float_maximum(self):
        # sample 239 has L = 709.7818..., just below ln(max float) =
        # 709.7827...: e^L = 1.796e308 is a float; from sample 240 on s is inf
        samples = sample_orbit(ring_of_integers(10321), 245)
        ss = [s.s for s in samples[238:241]]
        assert 1.79e308 < ss[1] < 1.8e308
        assert ss[0] < ss[1] < ss[2] == math.inf


def _dec_log_ratio(alpha):
    """log(sigma_1/sigma_2) at 120 digits, as ln(1 + x) for
    x = sigma_1/sigma_2 - 1 = 2|q|sqrt(D)(p + |q|sqrt(D))/N, free of
    cancellation: N = p^2 - D*q^2 is an exact int, and the 120 digits keep
    more than 60 of x in 1 + x down to x = 10^-40."""
    with localcontext() as ctx:
        ctx.prec = 120
        p, q, D = alpha.p, abs(alpha.q), alpha.D
        r = Decimal(D).sqrt()
        v = (1 + 2 * q * r * (p + q * r) / (p * p - D * q * q)).ln()
        return v if alpha.q >= 0 else -v


LOG_RATIO_FIELDS = [2, 3, 5, 13, 94, 151, 991, 1327, 125173, 9999991]
_eps_plus = functools.cache(lambda D: fundamental_unit(D)[1])


class TestLogRatio:
    @given(D=st.sampled_from(LOG_RATIO_FIELDS),
           q=st.integers(-10**30, 10**30),
           extra=st.one_of(st.integers(0, 10), st.integers(0, 10**40)),
           d=st.integers(1, 60), j=st.integers(-2, 2))
    @settings(max_examples=300, deadline=None)
    def test_against_decimal(self, D, q, extra, d, j):
        p = math.isqrt(D * q * q) + 1 + extra
        alpha = QuadElem(D, Fraction(p, d), Fraction(q, d))
        alpha = alpha * power(_eps_plus(D), j)
        assert alpha.is_totally_positive()
        ref = _dec_log_ratio(alpha)
        assert abs(Decimal(_log_ratio(alpha)) - ref) <= Decimal(1e-12) * abs(ref), \
            (alpha, ref)

    @pytest.mark.parametrize("D", LOG_RATIO_FIELDS)
    def test_period_of_unit(self, D):
        # N(eps_plus) = 1, so the log ratio is 2 log eps_plus
        _, eps_plus = fundamental_unit(D)
        L = _log_ratio(eps_plus)
        with localcontext() as ctx:
            ctx.prec = 60
            ref = 2 * (eps_plus.p + eps_plus.q * Decimal(D).sqrt()).ln() \
                - 2 * Decimal(eps_plus.d).ln()
        assert abs(Decimal(L) - ref) <= Decimal(1e-12) * ref
        assert _log_ratio(eps_plus.conjugate()) == -L

    @given(D=st.sampled_from(LOG_RATIO_FIELDS), e=st.floats(-15, 10))
    @settings(max_examples=200, deadline=None)
    def test_t_at_realizes_the_log_ratio(self, D, e):
        L = math.exp(e)
        num, den = _t_at(D, L)
        assert den & (den - 1) == 0
        assert num * num > D * den * den
        assert abs(_log_ratio(QuadElem(D, Fraction(num, den), 1)) - L) <= 1e-12 * L


TWIST_FIELDS = [2, 3, 5, 13, 21, 59, 139, 141, 1327]


class TestGramOfTwistAgainstTraces:
    @given(D=st.sampled_from(TWIST_FIELDS), pick=st.integers(0, 10**6),
           q=st.integers(-40, 40).map(lambda q: q or 1),
           extra=st.integers(0, 500), d=st.integers(1, 60))
    @settings(max_examples=300)
    def test_same_gram(self, D, pick, q, extra, d):
        ideals = enumerate_canonical(D, 12)
        I = ideals[pick % len(ideals)]
        # p > |q| sqrt(D) makes alpha = (p + q sqrt(D))/d totally positive
        p = math.isqrt(D * q * q) + 1 + extra
        alpha = QuadElem(D, Fraction(p, d), Fraction(q, d))
        G = gram_of_twist(I, alpha)
        assert (G.g11, G.g12, G.g22) == oracles.twist_gram(
            D, oracles.basis(D, I.a, I.b, I.g), (alpha.x, alpha.y))


def _reference_elements_in_cone(I, norm_bound_sq):
    """The element enumeration before the integer cone test: QuadElem
    dedup and both cone inequalities as QuadElem comparisons.  The float
    embeddings of the basis are the band search's own expression, which
    decides its candidates."""
    z1, z2 = I.basis_elements()
    _, eps_plus = fundamental_unit(I.D)
    M = math.sqrt(float(norm_bound_sq))
    r, x, y = math.sqrt(I.D), float(z2.x), float(z2.y)
    s1 = (float(I.a), x + y * r)
    s2 = (float(I.a), x - y * r)
    n_bands = max(1, math.ceil(2 * math.log(embedding(eps_plus, 1))
                               / math.log(4.0)))
    eps_plus_4 = power(eps_plus, 4)
    seen, out = set(), []
    for k in range(n_bands):
        B1 = math.sqrt(M) * 4.0 ** ((k + 1) / 2) * 1.02
        B2 = math.sqrt(M) * 4.0 ** (-k / 2) * 1.02
        for cx, cy in _points_in_embedding_box(s1, s2, B1, B2):
            z = cx * z1 + cy * z2
            if z in seen:
                continue
            seen.add(z)
            n = z.norm()
            sq, csq = z * z, z.conjugate() * z.conjugate()
            if (n != 0 and n * n <= norm_bound_sq and sq >= csq
                    and sq < csq * eps_plus_4):
                out.append(z)
    return out


def _reference_classes(I):
    """wr_intersection_classes with the element enumeration and the
    QuadElem pairing it had before the integer basis test."""
    dk = discriminant(I.D)
    _, eps_plus = fundamental_unit(I.D)
    elems = _reference_elements_in_cone(I, Fraction(I.norm() ** 2 * dk, 3))
    shifted = []
    for j in (-2, -1, 0, 1, 2):
        u = power(eps_plus, j)
        shifted.extend([(z * u, (z * u).conjugate()) for z in elems])
    values = set()
    target = QuadElem(I.D, I.norm() ** 2 * dk, 0)
    for x in elems:
        xc = x.conjugate()
        for y, yc in shifted:
            w = x * yc + -(xc * y)
            if w * w != target:
                continue
            f = oracles.F((x.x, x.y), (y.x, y.y), I.D, I.a * I.g)
            if f < 0:
                values.add(f)
    return len(values), values


class TestExactPredicates:
    """The integer predicates wr_intersection_classes prunes and decides
    with, against their QuadElem forms."""

    @staticmethod
    def _reference_in_cone(z, eps_plus):
        # both ends of the cone as QuadElem comparisons against eps_plus^4
        sq, csq = z * z, z.conjugate() * z.conjugate()
        return sq >= csq and sq < csq * power(eps_plus, 4)

    @given(D=st.sampled_from(LOG_RATIO_FIELDS[:-1]),
           p=st.integers(-10**6, 10**6), q=st.integers(-30, 30),
           d=st.integers(1, 4), j=st.integers(-2, 2))
    @settings(max_examples=300, deadline=None)
    def test_cone_against_quadelem_comparison(self, D, p, q, d, j):
        eps_plus = _eps_plus(D)
        z = QuadElem(D, Fraction(p, d), Fraction(q, d)) * power(eps_plus, j)
        if z.p == 0 and z.q == 0:
            return
        assert _in_cone_ints(z.p, z.q, D, eps_plus.p, eps_plus.q) == \
            self._reference_in_cone(z, eps_plus), z

    @pytest.mark.parametrize("D", LOG_RATIO_FIELDS[:-1])
    def test_cone_ends(self, D):
        eps_plus = _eps_plus(D)
        s, t = eps_plus.p, eps_plus.q
        # ratio 1 is in, at z = +-1 and z = +-sqrt(D); eps_plus^2 is out,
        # at z = eps_plus, as is eps_plus^-2 at its conjugate
        ends = [(1, 0, True), (-1, 0, True), (0, 1, True), (0, -1, True),
                (s, t, False), (-s, -t, False), (s, -t, False)]
        for P, Q, inside in ends:
            z = QuadElem(D, P, Q)
            assert self._reference_in_cone(z, eps_plus) == inside
            assert _in_cone_ints(P, Q, D, s, t) == inside, (P, Q)

    @given(D=st.sampled_from(TWIST_FIELDS), pick=st.integers(0, 10**6),
           a=st.integers(-40, 40), b=st.integers(-40, 40),
           k=st.integers(-5, 5))
    @settings(max_examples=300, deadline=None)
    def test_norm_pair_discriminant(self, D, pick, a, b, k):
        # a basis (x, y) of I gives the integral norm form
        # N(X*x + Y*y)/N(I) = (N(x), tr(x*conj(y)), N(y))/N(I) of
        # discriminant Delta_K
        if math.gcd(a, b) != 1:
            return
        ideals = enumerate_canonical(D, 12)
        I = ideals[pick % len(ideals)]
        # the row (c, d) with a*d - b*c = 1, then a shear by k
        d = pow(a, -1, abs(b)) if b else a
        c = (a * d - 1) // b if b else 0
        assert a * d - b * c == 1
        z1, z2 = I.basis_elements()
        x = a * z1 + b * z2
        y = (c + k * a) * z1 + (d + k * b) * z2
        N = I.norm()
        B = 2 * (x * y.conjugate()).x / N
        assert B.denominator == 1
        assert discriminant(D) + 4 * x.norm() * y.norm() / N ** 2 == B * B


def _canonical_pairing_ideals():
    """From a seeded draw, one canonical ideal with g > 1 and one other than
    O_K with g = 1, a <= 12, for each squarefree D <= 200 (D = 173 has no
    such g = 1 ideal)."""
    rng = random.Random(26)
    for D in range(2, 201):
        if not is_squarefree(D):
            continue
        ideals = enumerate_canonical(D, 12)
        yield rng.choice([I for I in ideals if I.g > 1])
        primitive = [I for I in ideals[1:] if I.g == 1]
        if primitive:
            yield rng.choice(primitive)


class TestIntersectionPairing:
    def test_matches_reference_on_rings_of_integers_up_to_200(self):
        for D in range(2, 201):
            if is_squarefree(D):
                I = ring_of_integers(D)
                assert wr_intersection_classes(I) == _reference_classes(I), D

    def test_matches_reference_on_canonical_ideals_up_to_200(self):
        ideals = list(_canonical_pairing_ideals())
        assert len(ideals) == 241
        assert any(wr_intersection_classes(I)[0] > 1 for I in ideals)
        for I in ideals:
            assert wr_intersection_classes(I) == _reference_classes(I), I


class TestFInvariant:
    @pytest.mark.parametrize("D, x, y", [
        (151, (-41571, 3383), (-525628, 42775)),
        (166, (41242, 3201), (-18231, -1415)),
        (5, (1, 0), (Fraction(1, 2), Fraction(-1, 2))),
        (13, (3, 1), (Fraction(5, 2), Fraction(1, 2))),
        (13, (1, 0), (2, 0)),
    ])
    def test_against_reference(self, D, x, y):
        I = ring_of_integers(D)
        x, y = QuadElem(D, *x), QuadElem(D, *y)
        try:
            expected = oracles.F((x.x, x.y), (y.x, y.y), D, 1)
        except ValueError:
            with pytest.raises(ValueError):
                F_invariant(x, y, I)
        else:
            assert F_invariant(x, y, I) == expected

    def test_reference_values(self):
        one5 = QuadElem(5, 1, 0)
        delta5 = QuadElem(5, Fraction(1, 2), Fraction(-1, 2))
        assert F_invariant(one5, delta5, ring_of_integers(5)) == Fraction(-1, 4)
        one2 = QuadElem(2, 1, 0)
        assert F_invariant(one2, QuadElem(2, 1, 1),
                           ring_of_integers(2)) == -1
        assert F_invariant(one2, QuadElem(2, 0, -1),
                           ring_of_integers(2)) == 1

    def test_rejects_non_basis(self):
        one = QuadElem(2, 1, 0)
        with pytest.raises(ValueError):
            F_invariant(one, QuadElem(2, 2, 0), ring_of_integers(2))
        with pytest.raises(ValueError):
            F_invariant(one, QuadElem(2, 2, 2), ring_of_integers(2))

    def test_unit_scaling_invariance(self):
        for D in (2, 5, 13):
            I = ring_of_integers(D)
            _, eps_plus = fundamental_unit(D)
            x = QuadElem(D, 1, 0)
            # a second basis vector of O_K: (1 - sqrt(D))/2 or sqrt(D)
            y = (QuadElem(D, Fraction(1, 2), Fraction(-1, 2)) if D % 4 == 1
                 else QuadElem(D, 0, 1))
            f = F_invariant(x, y, I)
            assert F_invariant(x * eps_plus, y * eps_plus, I) == f


class TestIntersectionClasses:
    def test_reference_rings(self):
        assert wr_intersection_classes(ring_of_integers(2)) == (1, {Fraction(-1)})
        assert wr_intersection_classes(ring_of_integers(5)) == \
            (1, {Fraction(-1, 4)})

    def test_crossing_ring(self):
        n, values = wr_intersection_classes(ring_of_integers(59))
        assert n >= 1
        assert all(v < 0 for v in values)

    def test_wr_twistable_ideal_has_crossing(self):
        for D, a, b, g in [(139, 9, 7, 1), (141, 5, 4, 1)]:
            I = CanonicalIdeal(D, a, b, g)
            assert wr_twist(I).wr_twistable
            n, _ = wr_intersection_classes(I)
            assert n >= 1

    def test_values_against_small_search(self):
        # independent check for O_K over Q(sqrt(10)): direct integer scan,
        # no cone reduction; bases of Z[sqrt(10)] are coordinate det +-1 pairs
        found = set()
        for x1 in range(-8, 9):
            for y1 in range(-8, 9):
                nx = x1 * x1 - 10 * y1 * y1
                for x2 in range(-8, 9):
                    for y2 in range(-8, 9):
                        if abs(x1 * y2 - y1 * x2) != 1:
                            continue
                        ny = x2 * x2 - 10 * y2 * y2
                        f = nx * nx + ny * ny + nx * ny - 10
                        if f < 0:
                            found.add(Fraction(f))
        n, values = wr_intersection_classes(ring_of_integers(10))
        assert values == found
        assert n == len(found)

    @pytest.mark.parametrize("I", [
        # N(I)^2 * Delta_K / 3 is a float beyond 1.8e308 at once
        CanonicalIdeal(2, 10**200, 0, 10**200),
        # the unit has 4153 digits: the ratio bands run past float range
        ring_of_integers(9999991),
    ], ids=["large norm", "large unit"])
    def test_float_range_is_a_value_error(self, I):
        with pytest.raises(ValueError, match="float range"):
            wr_intersection_classes(I)


class TestMissedCrossingClasses:
    """wr_intersection_classes misses crossing classes whose basis members
    lie outside the elements it enumerates.  O_K(151) has a basis with
    N(x) = 2, N(y) = 9, so F = 4 + 81 + 18 - 604/4 = -48 < 0; O_K(166) one
    with N(x) = -2, N(y) = 11, so F = 4 + 121 - 22 - 664/4 = -63."""

    @pytest.mark.parametrize("D, x, y, norms, f", [
        (151, (-41571, 3383), (-525628, 42775), (2, 9), -48),
        (166, (41242, 3201), (-18231, -1415), (-2, 11), -63),
    ])
    def test_basis_certified(self, D, x, y, norms, f):
        x, y = QuadElem(D, *x), QuadElem(D, *y)
        assert (x.norm(), y.norm()) == norms
        assert F_invariant(x, y, ring_of_integers(D)) == f

    @pytest.mark.xfail(strict=True, reason="the element enumeration misses "
                       "this class; see CHANGES.md and ROADMAP item 4")
    def test_class_is_reported(self):
        _, values = wr_intersection_classes(ring_of_integers(151))
        assert Fraction(-48) in values


@pytest.fixture(scope="module")
def canonical_bases(primitive_ideals):
    """(I, F of the canonical basis) for each primitive ideal of the shared
    sweep."""
    return [(I, F_invariant(*I.basis_elements(), I)) for I in primitive_ideals]


@pytest.fixture(scope="module")
def twistable(canonical_bases):
    """(I, WR verdict, F) for each WR-twistable one of `canonical_bases`."""
    verdicts = ((I, wr_twist(I), F) for I, F in canonical_bases)
    return [(I, v, F) for I, v, F in verdicts if v.wr_twistable]


def _is_hexagonal(G):
    return 2 * abs(G.g12) == G.g11 == G.g22


class TestCanonicalBasisRelations:
    """ROADMAP item 24: the WR twist of a canonical basis (a, b + delta) and
    the F invariant of that basis, exhaustively on the primitive canonical
    ideals with squarefree D <= 1000 and a <= 40.  R1: WR-twistable implies
    F <= 0.  R2: among those, F = 0 iff the WR Gram is hexagonal.  R3: on a
    hexagonal one, tau_min_search returns t* and exactly the floor 4/27.
    The converse: WR-twistable iff F <= 0 and the crossing x* lies strictly
    between u1 and the apex.  C: a negative F of the canonical basis is one
    of the crossing values of wr_intersection_classes.  R1, R2 and the
    converse are proved in `twist.wr_twist`'s docstring; C fails while the
    band search misses classes (ROADMAP item 4)."""

    def test_counts(self, canonical_bases, twistable):
        assert (len(canonical_bases), len(twistable)) == (19154, 2529)
        assert sum(_is_hexagonal(v.gram) for _, v, _ in twistable) == 170
        assert sum(F < 0 for _, F in canonical_bases) == 2531

    def test_r1_wr_twistable_has_f_at_most_zero(self, twistable):
        assert [I for I, _, F in twistable if F > 0] == []

    def test_r2_f_zero_iff_hexagonal(self, twistable):
        assert [I for I, v, F in twistable
                if (F == 0) != _is_hexagonal(v.gram)] == []

    def test_r3_hexagonal_orbits_reach_the_floor(self, twistable):
        wrong = []
        for I, v, _ in twistable:
            if _is_hexagonal(v.gram):
                r = tau_min_search(I)
                if (r.argmin_t, r.exact_tau_sq_at_argmin) != \
                        (v.t_star, HEXAGONAL_THICKNESS_SQ):
                    wrong.append(I)
        assert wrong == []

    def test_converse_wr_twistable_iff_the_crossing_is_on_the_branch(
            self, canonical_bases, twistable):
        # where F <= 0, (x* = (A + C)/B past u1 = sigma_1(z2)/a, the side
        # of the apex B/(2A) x* is on)
        seen, at_apex = Counter(), []
        wr_ideals = {I for I, _, _ in twistable}
        for I, _ in canonical_bases:
            z1, z2 = oracles.basis(I.D, I.a, I.b, I.g)
            where = None
            if oracles.F(z1, z2, I.D, I.a) <= 0:
                A, B, C = oracles.norm_form(z1, z2, I.D)
                x, apex = Fraction(A + C, B), Fraction(B, 2 * A)
                u1_sign = oracles.surd_sign(Fraction(z2[0], I.a) - x,
                                            Fraction(z2[1], I.a), I.D)
                where = (u1_sign < 0, (x > apex) - (x < apex))
                at_apex += [I] * (x == apex)
            assert (I in wr_ideals) == (where == (True, -1)), I
            seen[where] += 1
        assert seen == {None: 16367, (True, -1): 2529, (True, 1): 257,
                        (True, 0): 1}
        assert at_apex == [CanonicalIdeal(3, 2, 1, 1)]

    @pytest.mark.xfail(strict=True, reason="the band search misses crossing "
                       "values, 738 of these 2,531; see ROADMAP item 4")
    def test_c_negative_f_is_a_crossing_value(self, canonical_bases):
        # a seeded 300 of the 2,531, and (166; 9, 7, 1): F = -2673, but
        # only -8505, -6075 and -5103 are reported
        negative = [(I, F) for I, F in canonical_bases if F < 0]
        sample = random.Random(24).sample(negative, 300)
        I = CanonicalIdeal(166, 9, 7, 1)
        sample.append((I, F_invariant(*I.basis_elements(), I)))
        assert [I for I, F in sample
                if F not in wr_intersection_classes(I)[1]] == []


def _principal_crossings(dk):
    """The forms (A, B, C), B >= 0, of discriminant dk with
    A^2 + A*C + C^2 <= dk/4 (F <= 0) of which (A, B, C) or (A, -B, C) is
    properly equivalent to the principal form: the norm forms of the bases
    of O_K whose class meets the WR locus, by exact enumeration."""
    s = math.isqrt(dk)
    b0 = s - (s - dk) % 2
    cycle = oracles.rho_cycle((1, b0, (b0 * b0 - dk) // 4))

    def principal(f):
        seen = set()
        while f not in seen and f not in cycle:
            seen.add(f)
            f = oracles.rho(f)[0]
        return f in cycle

    # A^2 + A*C + C^2 >= 3*max(|A|, |C|)^2/4 bounds both
    m = math.isqrt(dk // 3) + 1
    forms = []
    for A in range(-m, m + 1):
        for C in range(-m, m + 1):
            b_sq = dk + 4 * A * C
            if A * C == 0 or 4 * (A * A + A * C + C * C) > dk or b_sq < 0:
                continue
            B = math.isqrt(b_sq)
            if B * B == b_sq and (principal((A, B, C))
                                  or principal((A, -B, C))):
                forms.append((A, B, C))
    return forms


class TestOrthogonalOnly:
    def test_reference_values(self):
        assert orthogonal_only(2)
        assert orthogonal_only(5)
        assert orthogonal_only(10)
        assert orthogonal_only(13)
        assert orthogonal_only(29)
        assert not orthogonal_only(17)
        assert not orthogonal_only(59)
        assert not orthogonal_only(7)

    def test_square_families(self):
        # Delta_K - 4 is D - 4 for D = 1 (mod 4) and 4*(D - 1) otherwise:
        # s^2 + 4 and odd s^2 + 1 qualify; an even s gives D = 1 (mod 4)
        # and D - 4 = s^2 - 3, a square only at s = 2
        for s in range(1, 20):
            for D in (s * s + 1, s * s + 4):
                if D > 1 and is_squarefree(D):
                    expected = D == s * s + 4 or s % 2 == 1 or s == 2
                    assert orthogonal_only(D) == expected, D

    def test_a_crossing_off_the_square_class_of_O_K_17(self):
        # 17 - 1 is a square, yet the twist by this alpha is WR at a point
        # that is not the square class i: its class has norms (-2, 1), F =
        # -5/4, next to the square class's norms +-2, F = -1/4
        I = ring_of_integers(17)
        G = gram_of_twist(I, QuadElem(17, Fraction(51, 2), Fraction(-11, 2)))
        assert lagrange_reduce(G)[0] == Gram2(51, 17, 51)
        assert is_wr(G)
        assert similarity_point(G) == SimilarityPoint(Fraction(1, 3),
                                                      Fraction(8, 9))
        assert wr_intersection_classes(I) == (2, {Fraction(-5, 4),
                                                  Fraction(-1, 4)})
        assert not orthogonal_only(17)

    def test_agrees_with_an_exact_enumeration(self):
        # the crossing classes of O_K are all square exactly when every
        # principal form with F <= 0 has A = -C
        for D in range(2, 1000):
            if is_squarefree(D):
                forms = _principal_crossings(discriminant(D))
                assert orthogonal_only(D) == all(A == -C for A, _, C in forms), D

    def test_every_class_is_opposite_norm_pair(self):
        # for these rings every crossing class comes from a basis pair with
        # N(x) = -N(y) = n, so every F-value has the shape n^2 - disc/4
        import math

        for D in (2, 5, 10, 26, 29):
            I = ring_of_integers(D)
            _, values = wr_intersection_classes(I)
            dk = Fraction(discriminant(D))
            for f in values:
                n_sq = f + dk / 4
                assert n_sq.denominator == 1 and n_sq >= 0, (D, f)
                assert math.isqrt(int(n_sq)) ** 2 == int(n_sq), (D, f)


ORBIT_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               os.pardir, "perfbench", "reference", "orbit.json")


def test_orbit_matches_the_benchmark_digests():
    # the benchmark's own gate for the two digested orbit calls, on every
    # recorded ideal of D <= 1000 (the orbit run samples 48 fields of them).
    # The text is the one perfbench/workloads.py digests.  The records of
    # O_K(151) and O_K(166) hold the answers that lack a class (ROADMAP
    # item 4), so mending the band search re-records those two.
    with open(ORBIT_REFERENCE) as f:
        reference = json.load(f)
    assert sum(len(field["ideals"]) for field in reference) == 1821

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    wrong = []
    for field in reference:
        for rec in field["ideals"]:
            I = CanonicalIdeal(field["D"], *rec["abg"])
            count, values = wr_intersection_classes(I)
            m = min_abs_norm(I)
            w = m.witness
            texts = {
                "wr_intersection_classes":
                    f"{count}:" + ",".join(str(v) for v in sorted(values)),
                "min_abs_norm":
                    f"{m.m}:{m.coeffs}:{w.x},{w.y}:{m.attains_ideal_norm}",
            }
            wrong += [(field["D"], *rec["abg"], name)
                      for name, text in texts.items()
                      if digest(text) != rec[name]]
    assert wrong == []
