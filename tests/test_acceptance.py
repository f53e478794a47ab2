"""End-to-end acceptance gate.

Each test covers one numbered criterion and emits a single PASS/FAIL line so
the run log doubles as a checklist.
"""

import functools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

from quadtwist.applications import (
    HEXAGONAL_THICKNESS_SQ,
    d_min_sq_twist,
    euclidean_bounds,
    min_abs_norm,
    tau_min_search,
)
from quadtwist.geodesic import orthogonal_only, sample_orbit, wr_intersection_classes
from quadtwist.ideals import CanonicalIdeal, enumerate_canonical, ring_of_integers
from quadtwist.lattice2 import (
    Gram2,
    gram_of_twist,
    hermite_thickness_sq,
    is_paper_reduced,
    is_stable,
    is_wr,
    lagrange_reduce,
    minima_brute_force,
    successive_minima,
)
from quadtwist.quadfield import QuadElem, fundamental_unit, is_squarefree
from quadtwist.twist import (
    raw_stable_polynomials,
    stable_bound_filter,
    stable_twist,
    wr_bound_filter,
    wr_twist,
)
import oracles


def criterion(n, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {n}: {label}")
                raise
            print(f"PASS  criterion {n}: {label}")

        return run

    return wrap


def rel_close(x, y, rel):
    return abs(x - y) <= rel * abs(y)


@criterion(1, "WR twist of (9, 7-sqrt(139)), exact alpha, minima and cosine")
def test_criterion_1():
    start = time.monotonic()
    v = wr_twist(CanonicalIdeal(139, 9, 7, 1))
    assert v.wr_twistable
    assert v.alpha == QuadElem(139, Fraction(1946, 107), 1)
    l1, l2 = successive_minima(v.gram)
    assert l1 == l2 == Fraction(315252, 107)
    assert v.gram.g12 / v.gram.g11 == Fraction(-1, 14)
    assert rel_close(math.sqrt(Fraction(315252, 107)), 54.27964973, 1e-8)
    assert time.monotonic() - start < 1.0


@criterion(2, "WR twist of (5, 4+(1-sqrt(141))/2), exact alpha, minima and cosine")
def test_criterion_2():
    v = wr_twist(CanonicalIdeal(141, 5, 4, 1))
    assert v.wr_twistable
    assert v.alpha == QuadElem(141, Fraction(1269, 61), 1)
    l1, l2 = successive_minima(v.gram)
    assert l1 == l2 == Fraction(63450, 61)
    assert v.gram.g12 / v.gram.g11 == Fraction(2, 9)
    assert rel_close(math.sqrt(Fraction(63450, 61)), 32.25157258, 1e-8)


@criterion(3, "stable twist of (39, 38-sqrt(1327)) at t=63, exact Gram and det")
def test_criterion_3():
    I = CanonicalIdeal(1327, 39, 38, 1)
    fr = stable_twist(I)
    assert fr.feasible_real
    assert fr.contains_t(Fraction(63))
    G = gram_of_twist(I, QuadElem(1327, 63, 1))
    assert (G.g11, G.g12, G.g22) == (191646, 83226, 147442)
    assert G.det() == 21330102456
    assert rel_close(math.sqrt(21330102456), 146048.2881, 1e-6)
    cos = float(G.g12) / math.sqrt(float(G.g11) * float(G.g22))
    assert rel_close(cos, 0.4951063950, 1e-8)
    assert is_stable(G) and not is_wr(G)
    assert not wr_bound_filter(I)
    assert minima_brute_force(G) == (147442, 172636)
    assert successive_minima(G) == (147442, 172636)
    # the quoted sqrt(191646) is the longer reduced-basis vector, not the
    # classical second minimum 172636; reported, not failed
    print("  note: criterion 3: classical lambda2^2 = 172636, the quoted "
          "191646 is the longer weakly-reduced basis norm")


@criterion(4, "stable twist of (183, 182+(1-sqrt(125173))/2) at t=611")
def test_criterion_4():
    I = CanonicalIdeal(125173, 183, 182, 1)
    fr = stable_twist(I)
    assert fr.feasible_real
    assert fr.contains_t(Fraction(611))
    G = gram_of_twist(I, QuadElem(125173, 611, 1))
    assert (G.g11, G.g22) == (40923558, 33252444)
    assert G.g12 == 17905086
    cos = float(G.g12) / math.sqrt(float(G.g11) * float(G.g22))
    assert rel_close(cos, 0.4853755919, 1e-8)
    assert rel_close(math.sqrt(float(G.det())), 32252383.1, 1e-5)
    assert is_stable(G) and not is_wr(G)
    assert minima_brute_force(G)[1] == 38365830
    assert successive_minima(G) == (33252444, 38365830)


@criterion(5, "O_K is WR/stable twistable iff D = 5, over squarefree D <= 1000")
def test_criterion_5():
    start = time.monotonic()
    wr_ok = []
    stable_ok = []
    for D in range(2, 1001):
        if not is_squarefree(D):
            continue
        I = ring_of_integers(D)
        if wr_twist(I).wr_twistable:
            wr_ok.append(D)
        if stable_twist(I).feasible_real:
            stable_ok.append(D)
    assert wr_ok == [5]
    assert stable_ok == [5]
    v = wr_twist(ring_of_integers(5))
    assert v.alpha == QuadElem(5, 5, 1)
    assert (v.gram.g11, v.gram.g12, v.gram.g22) == (10, 0, 10)
    assert time.monotonic() - start < 60.0


@criterion(6, "bound filters are necessary over D <= 200, a <= 50; t* stable")
def test_criterion_6():
    for D in range(2, 201):
        if not is_squarefree(D):
            continue
        for I in enumerate_canonical(D, 50):
            v = wr_twist(I)
            fr = stable_twist(I)
            if v.wr_twistable:
                assert wr_bound_filter(I), I
                assert fr.contains_t(v.t_star), I
            if fr.witness_t is not None:
                assert stable_bound_filter(I), I


_NEAR = [(i, j) for i in range(-2, 3) for j in range(-2, 3) if (i, j) != (0, 0)]
_AROUND = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]


def _deep_hole_oracle(G):
    """Independent covering-radius oracle, exact on integers.

    The entries of G go over one denominator and `oracles.lagrange` reduces
    them.  A Voronoi vertex is the circumcentre of a lattice triangle
    whose circumcircle has no lattice point inside, and the squared covering
    radius is the largest such circumradius^2.  By translation the triangle
    is (0, p, q); for the reduced basis the search takes every p, q in the
    coefficient window |i|, |j| <= 2 and checks the circle against every
    point in |i|, |j| <= 3.
    """
    g11, g12, g22 = G.g11, G.g12, G.g22
    den = math.lcm(g11.denominator, g12.denominator, g22.denominator)
    (a, b, c), _, _ = oracles.lagrange(*(int(x * den)
                                         for x in (g11, g12, g22)))

    def dot(u, v):
        return a * u[0] * v[0] + b * (u[0] * v[1] + u[1] * v[0]) + c * u[1] * v[1]

    ip = {(w, p): dot(w, p) for w in _AROUND for p in _NEAR}
    # nearest first: a point inside a circle is usually a near one
    sq = sorted((dot(w, w), w) for w in _AROUND)
    best = None
    for p, q in combinations(_NEAR, 2):
        P, Q, X = ip[p, p], ip[q, q], ip[p, q]
        M = P * Q - X * X
        if M == 0:
            continue  # collinear: no circumcircle
        # w is strictly inside the circle through 0, p, q, whose centre is
        # (Q*(P - X)*p + P*(Q - X)*q)/(2*M), iff |w|^2 < 2<w, centre>
        A, B = Q * (P - X), P * (Q - X)
        if any(M * n < A * ip[w, p] + B * ip[w, q] for n, w in sq):
            continue
        r2 = Fraction(P * Q * (P + Q - 2 * X), 4 * M * den)
        if best is None or r2 > best:
            best = r2
    return best


def _random_gram(rng):
    """A positive definite Gram with entries n/d, 1 <= d <= 100, over the
    product of the three denominators."""
    while True:
        n11, d11 = rng.randint(1, 100), rng.randint(1, 100)
        n22, d22 = rng.randint(1, 100), rng.randint(1, 100)
        n12, d12 = rng.randint(-100, 100), rng.randint(1, 100)
        g11, g12, g22 = n11 * d12 * d22, n12 * d11 * d22, n22 * d11 * d12
        if g11 * g22 - g12 * g12 > 0:
            return Gram2(g11, g12, g22, d11 * d12 * d22)


@criterion(7, "reduction minima, covering radius and reducedness vs oracles "
              "on 1000 random Grams")
def test_criterion_7():
    rng = random.Random(20260823)
    for _ in range(1000):
        G = _random_gram(rng)
        R, U = lagrange_reduce(G)
        assert oracles.congruence((G.g11, G.g12, G.g22), (U.a, U.b, U.c, U.d)) \
            == (R.g11, R.g12, R.g22)
        l1, l2 = successive_minima(G)
        assert (l1, l2) == minima_brute_force(R)
        oracle = _deep_hole_oracle(G)
        assert oracle is not None
        # tau^2 = mu^4 / det G
        assert oracle * oracle / G.det() == hermite_thickness_sq(G)
        if is_paper_reduced(G):
            assert min(G.g11, G.g22) == l1


@criterion(8, "stability polynomials match the generic Gram predicates on "
              "500 random (ideal, t)")
def test_criterion_8():
    rng = random.Random(99)
    checked = 0
    while checked < 500:
        D = rng.randint(2, 300)
        if not is_squarefree(D):
            continue
        ideals = enumerate_canonical(D, 30)
        I = rng.choice(ideals)
        t = Fraction(rng.randint(1, 1200), rng.randint(1, 10))
        if t * t <= D:
            continue
        G = gram_of_twist(I, QuadElem(D, t, 1))
        expected = is_paper_reduced(G) and is_stable(G)
        assert raw_stable_polynomials(I, t) == expected, (D, I, t)
        checked += 1


@criterion(9, "orbit crossings, square-only detection and exact sample flags")
def test_criterion_9():
    assert wr_intersection_classes(ring_of_integers(2)) == (1, {Fraction(-1)})
    assert wr_intersection_classes(ring_of_integers(5)) == \
        (1, {Fraction(-1, 4)})
    for D in (2, 5, 10, 13, 29):
        assert orthogonal_only(D), D
    for D in (17, 59):
        assert not orthogonal_only(D), D
    for D, a, b, g in [(5, 1, 0, 1), (59, 1, 0, 1), (139, 9, 7, 1)]:
        I = CanonicalIdeal(D, a, b, g)
        for s in sample_orbit(I, 16):
            assert 0 <= s.tau.x <= Fraction(1, 2)
            assert s.tau.x ** 2 + s.tau.y_sq >= 1
            G = gram_of_twist(I, s.alpha)
            assert s.is_wr == is_wr(G) == (s.tau.x ** 2 + s.tau.y_sq == 1)
            assert s.is_stable == is_stable(G) == (s.tau.y_sq <= 1)


@criterion(10, "Euclidean certificates, thickness window and d_min unit "
               "invariance")
def test_criterion_10():
    certified = [D for D in range(2, 51)
                 if is_squarefree(D) and euclidean_bounds(D).euclidean_certified]
    assert certified == [2, 3, 5, 13]

    r = tau_min_search(ring_of_integers(5))
    tau = math.sqrt(r.exact_tau_sq_at_argmin)
    assert tau <= 0.5 + 1e-15
    assert tau >= math.sqrt(HEXAGONAL_THICKNESS_SQ)

    rng = random.Random(7)
    checked = 0
    while checked < 100:
        D = rng.randint(2, 120)
        if not is_squarefree(D):
            continue
        I = rng.choice(enumerate_canonical(D, 12))
        t = Fraction(rng.randint(1, 600), rng.randint(1, 6))
        if t * t <= D:
            continue
        alpha = QuadElem(D, t, 1)
        _, eps_plus = fundamental_unit(D)
        assert d_min_sq_twist(I, alpha) == \
            d_min_sq_twist(I, alpha * eps_plus * eps_plus)
        checked += 1


@criterion(11, "unit, minimum |N|, orbit and their repr for O_K of three "
               "seeded fields with 10^8 <= D <= 2*10^9, within 5 s")
def test_criterion_11():
    # Seed 1 draws D = 388545018, 1919850095 and 647756574, whose units have
    # 4280, 9540 and 3705 digits; str(int) refuses more than 4300.
    rng = random.Random(1)
    fields = []
    while len(fields) < 3:
        D = rng.randrange(10**8, 2 * 10**9 + 1)
        if is_squarefree(D):
            fields.append(D)
    start = time.monotonic()
    digits = []
    for D in fields:
        eps, _ = fundamental_unit(D)
        assert eps > 1 and abs(eps.norm()) == 1, D
        digits.append(len(str(Decimal(eps.p))))
        I = ring_of_integers(D)
        r = min_abs_norm(I)
        assert r.m == 1 and abs(r.witness.norm()) == 1, D
        samples = sample_orbit(I, 8)
        ts = [s.alpha.x for s in samples]
        assert all(b < a for a, b in zip(ts, ts[1:])) and ts[-1] ** 2 > D, D
        assert repr(eps).startswith(f"QuadElem(D={D}, x=Fraction(")
        assert repr(r).startswith(f"NormSearchResult(m=1, witness=QuadElem(")
        assert repr(samples).startswith("[GeodesicSample(s=")
    assert max(digits) > 4300
    assert time.monotonic() - start < 5.0
