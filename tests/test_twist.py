import math
import random
import textwrap
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtwist.ideals import (
    CanonicalIdeal,
    enumerate_canonical,
    ring_of_integers,
)
from quadtwist.lattice2 import (
    gram_of_twist,
    is_paper_reduced,
    is_stable,
    is_wr,
)
from quadtwist import twist
from quadtwist.quadfield import (
    CertificateError,
    QuadElem,
    Surd,
    is_squarefree,
    surd_compare,
)
from quadtwist.twist import (
    Interval,
    intersect_interval_lists,
    raw_stable_polynomials,
    simplest_rational_in,
    stable_bound_filter,
    stable_twist,
    wr_bound_filter,
    wr_twist,
)
from support import run_python
import oracles

rat = st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                   max_denominator=10)


def _integer_triple(A, B, C):
    """Rational (A, B, C) times the lcm of their denominators: integer
    coefficients of a quadratic with the same solution set."""
    scale = math.lcm(A.denominator, B.denominator, C.denominator)
    return tuple(c.numerator * (scale // c.denominator) for c in (A, B, C))


def _ends(s):
    """A Surd or a rational as the integers (p, q, n, d) of (p + q*sqrt(n))/d."""
    if isinstance(s, Surd):
        return s.p, s.q, s.n, s.d
    return s.numerator, 0, 0, s.denominator


def _cmp(a, b):
    """The sign of a - b for Surds and rationals, by `oracles.surd_cmp`."""
    return oracles.surd_cmp(_ends(a), _ends(b))


def _clip_intervals(feas, A, B, C):
    """`twist._clip` on a list of Intervals: their ends go in as the integers
    of each Surd, and the pieces that come out go back to Intervals."""
    pieces = [(_ends(iv.lo), None if iv.hi is None else _ends(iv.hi),
               iv.lo_closed, iv.hi_closed) for iv in feas]
    return [Interval(Surd(*lo),
                     None if hi is None else Surd(*hi), lc, hc)
            for lo, hi, lc, hc in twist._clip(pieces, A, B, C)]


def _is_point(iv):
    return iv.hi is not None and _cmp(iv.lo, iv.hi) == 0


def _is_empty(iv):
    if iv.hi is None:
        return False
    c = _cmp(iv.lo, iv.hi)
    return c > 0 or (c == 0 and not (iv.lo_closed and iv.hi_closed))


class TestIntervals:
    def test_emptiness(self):
        # pieces of `twist._clip`: ends (p, q, n, d), 2 also as sqrt(4)
        one, two, root4 = (1, 0, 0, 1), (2, 0, 0, 1), (0, 1, 4, 1)
        assert twist._empty(two, one, True, True)
        assert twist._empty(one, one, False, True)
        assert twist._empty(two, root4, True, False)
        assert not twist._empty(one, one, True, True)
        assert not twist._empty(root4, two, True, True)
        assert not twist._empty(one, None, True, True)

    def test_contains(self):
        iv = Interval(Surd(0, 1, 2), Surd(3), lo_closed=False)
        assert iv.contains(2)
        assert iv.contains(3)
        assert not iv.contains(1)
        assert not iv.contains(Surd(0, 1, 2))

    def test_ends_must_be_surds(self):
        for lo, hi in ((1.5, None), (1, Surd(2)), (Surd(1), 2.5),
                       (Surd(1), Fraction(2)), (None, None)):
            with pytest.raises(TypeError):
                Interval(lo, hi, True, False)
        assert Interval(Surd(1), None, True, False).hi is None

    def test_intersection(self):
        a = Interval(Surd(0), Surd(5))
        b = Interval(Surd(3), None)
        out = intersect_interval_lists([a], [b])
        assert len(out) == 1
        assert _cmp(out[0].lo, 3) == 0
        assert _cmp(out[0].hi, 5) == 0


class TestQuadraticSolver:
    @given(A=rat, B=rat, C=rat, t=rat)
    @settings(max_examples=400)
    def test_membership_agreement(self, A, B, C, t):
        domain = Interval(Surd(-100), Surd(100))
        sols = _clip_intervals([domain], *_integer_triple(A, B, C))
        expected = A * t * t + B * t + C >= 0
        got = any(iv.contains(t) for iv in sols)
        assert got == expected

    def test_open_domain_endpoint(self):
        domain = Interval(Surd(0, 1, 2), None, lo_closed=False)
        sols = _clip_intervals([domain], 1, 0, 0)
        assert len(sols) == 1
        assert not sols[0].lo_closed


class TestSimplestRational:
    def test_known_intervals(self):
        assert simplest_rational_in(Surd(0, 1, 2), Surd(0, 1, 3)) == Fraction(3, 2)
        assert simplest_rational_in(Surd(0), Surd(1)) == Fraction(1, 2)
        assert simplest_rational_in(Surd(3), None) == 4
        assert simplest_rational_in(Surd(2), Surd(2)) is None

    def test_narrow_interval_minimality(self):
        lo = Surd(355, 0, 0, 113)  # 355/113 and 355/113 + 1/10^6
        hi = Surd(355 * 10**6 + 113, 0, 0, 113 * 10**6)
        m = simplest_rational_in(lo, hi)

        def inside(x):
            return surd_compare(lo, x) < 0 < surd_compare(hi, x)

        assert inside(m)
        # exhaustive check that no smaller denominator fits
        for den in range(1, m.denominator):
            n0 = int(float(lo) * den)
            assert not any(inside(Fraction(n, den))
                           for n in range(n0 - 1, n0 + 3))

    def test_endpoints_are_excluded(self):
        m = simplest_rational_in(Surd(1), Surd(2))
        assert 1 < m < 2

    def test_rejects_negative_lo(self):
        # the domain is lo >= 0: the old walk looped forever on the first
        # and returned 1/3 on the second, where 0 lies inside
        with pytest.raises(ValueError):
            simplest_rational_in(Surd(-2), Surd(-1))
        with pytest.raises(ValueError):
            simplest_rational_in(Surd(-3), Surd(1, 0, 0, 2))
        with pytest.raises(ValueError):
            simplest_rational_in(Surd(2, -1, 5), None)
        assert simplest_rational_in(Surd(0), Surd(1, 0, 0, 2)) == \
            Fraction(1, 3)


class TestWrTwist:
    def test_reference_cases(self):
        v = wr_twist(CanonicalIdeal(139, 9, 7, 1))
        assert v.wr_twistable and v.t_star == Fraction(1946, 107)
        assert v.gram.g11 == v.gram.g22 == Fraction(315252, 107)
        assert v.gram.g12 / v.gram.g11 == Fraction(-1, 14)

        v = wr_twist(CanonicalIdeal(141, 5, 4, 1))
        assert v.wr_twistable and v.t_star == Fraction(1269, 61)
        assert v.gram.g11 == v.gram.g22 == Fraction(63450, 61)
        assert v.gram.g12 / v.gram.g11 == Fraction(2, 9)

        v = wr_twist(ring_of_integers(5))
        assert v.wr_twistable and v.t_star == 5
        assert (v.gram.g11, v.gram.g12, v.gram.g22) == (10, 0, 10)

    def test_failure_reasons(self):
        v = wr_twist(ring_of_integers(2))
        assert not v.wr_twistable
        assert v.reason == "forced ratio not positive"

    def test_verdict_gram_is_wr_against_generic_predicates(self):
        for D in (10, 139, 141, 193):
            for I in enumerate_canonical(D, 20):
                v = wr_twist(I)
                if not v.wr_twistable:
                    continue
                G = gram_of_twist(I, v.alpha)
                assert is_wr(G) and is_paper_reduced(G)

    def test_brute_force_agreement(self):
        # at every scanned t, the basis vectors are the (equal) minima iff the
        # closed form succeeds with t* = t; lattice-WR alone does not count,
        # since the orbit always crosses the WR locus at some non-basis class
        for D in (7, 10, 13):
            for I in enumerate_canonical(D, 8):
                v = wr_twist(I)
                candidates = [Fraction(num, den)
                              for num in range(1, 120) for den in (1, 2, 3, 5)]
                if v.wr_twistable:
                    candidates.append(v.t_star)
                for t in candidates:
                    if t * t <= D:
                        continue
                    G = gram_of_twist(I, QuadElem(D, t, 1))
                    basis_wr = G.g11 == G.g22 and is_paper_reduced(G)
                    expected = v.wr_twistable and t == v.t_star
                    assert basis_wr == expected, (D, I, t)


class TestStableTwist:
    def test_reference_cases(self):
        fr = stable_twist(CanonicalIdeal(1327, 39, 38, 1))
        assert fr.feasible_real and fr.contains_t(Fraction(63))
        fr = stable_twist(CanonicalIdeal(125173, 183, 182, 1))
        assert fr.feasible_real and fr.contains_t(Fraction(611))

    def test_single_point_feasibility(self):
        fr = stable_twist(ring_of_integers(5))
        assert fr.feasible_real
        assert fr.witness_t is None  # empty interior
        assert len(fr.intervals) == 1 and _is_point(fr.intervals[0])
        assert fr.contains_t(Fraction(5))

    def test_infeasible(self):
        fr = stable_twist(ring_of_integers(7))
        assert not fr.feasible_real
        assert fr.intervals == ()

    def test_witness_consistency(self):
        for D in (10, 139, 141):
            for I in enumerate_canonical(D, 15):
                fr = stable_twist(I)
                if fr.witness_t is None:
                    continue
                G = gram_of_twist(I, fr.witness_alpha)
                assert is_stable(G) and is_paper_reduced(G)
                assert raw_stable_polynomials(I, fr.witness_t)

    def test_polynomials_match_generic_predicates(self):
        rng = random.Random(42)
        checked = 0
        while checked < 300:
            D = rng.randint(2, 200)
            if not is_squarefree(D):
                continue
            ideals = enumerate_canonical(D, 12)
            I = rng.choice(ideals)
            t = Fraction(rng.randint(1, 400), rng.randint(1, 8))
            if t * t <= D:
                continue
            G = gram_of_twist(I, QuadElem(D, t, 1))
            expected = is_paper_reduced(G) and is_stable(G)
            assert raw_stable_polynomials(I, t) == expected, (D, I, t)
            checked += 1

    def test_polynomials_reject_a_non_rational_t(self):
        I = CanonicalIdeal(1327, 39, 38, 1)
        assert raw_stable_polynomials(I, 63)
        assert raw_stable_polynomials(I, Fraction(63))
        for bad in (63.0, "63", Decimal(63), True):
            with pytest.raises(TypeError):
                raw_stable_polynomials(I, bad)

    def test_interval_endpoints_ordered(self):
        for D, a, b, g in [(1327, 39, 38, 1), (139, 10, 3, 1)]:
            fr = stable_twist(CanonicalIdeal(D, a, b, g))
            for iv in fr.intervals:
                if iv.hi is not None:
                    assert _cmp(iv.lo, iv.hi) <= 0


class TestBoundFilters:
    def test_necessity_small_sweep(self):
        for D in (10, 13, 139, 141):
            for I in enumerate_canonical(D, 20):
                v = wr_twist(I)
                fr = stable_twist(I)
                if v.wr_twistable:
                    assert wr_bound_filter(I)
                    assert fr.contains_t(v.t_star)
                if fr.witness_t is not None:
                    assert stable_bound_filter(I)

    def test_wr_implies_stable_filter(self):
        # WR bound is strictly stronger than the stable bound
        for D in (10, 13, 139, 141, 193):
            for I in enumerate_canonical(D, 20):
                if wr_bound_filter(I):
                    assert stable_bound_filter(I)


# The per-case closed forms that the pencil derivation replaced, kept as the
# reference: the pencil must reproduce their triples exactly (the surd roots
# print unreduced radicands, so a rescaled triple would change the output).

def _ref_wr_bound_filter(I):
    D, b, g = I.D, I.b, I.g
    if D % 4 == 1:
        return (2 * b + g) ** 2 < g * g * D
    return b * b < g * g * D


def _ref_stable_bound_filter(I):
    D, b, g = I.D, I.b, I.g
    if D % 4 == 1:
        return 3 * (2 * b + g) ** 2 < 4 * g * g * D
    return 3 * b * b < 4 * g * g * D


def _ref_wr_ratio(I):
    D, a, b, g = I.D, I.a, I.b, I.g
    if D % 4 == 1:
        num = 2 * g * D * (2 * b + g)
        den = 4 * b * b + 4 * b * g + g * g * (D + 1) - 4 * a * a
        reduced_ok = abs(4 * a * a + 4 * b * b + 4 * b * g - (D - 1) * g * g) \
            <= 2 * a * (2 * b + g)
    else:
        num = 2 * b * g * D
        den = b * b + g * g * D - a * a
        reduced_ok = abs(b * b - g * g * D + a * a) <= a * b
    return num, den, reduced_ok


def _ref_stable_constraints(I):
    D, a, b, g = I.D, I.a, I.b, I.g
    cons = []
    if D % 4 == 1:
        B2 = 2 * b + g
        cons.append((g * g * D - 3 * B2 * B2, 6 * D * g * B2, -4 * D * D * g * g))
        cons.append((4 * a * a - g * g * D, 0, g * g * D * D))
        L1 = (B2 * B2 + g * g * D) // 2
        L0 = -D * g * B2
    else:
        cons.append((g * g * D - 3 * b * b, 6 * D * b * g, -4 * D * D * g * g))
        cons.append((a * a - g * g * D, 0, g * g * D * D))
        L1 = D * g * g + b * b
        L0 = -2 * D * b * g
    k = a * a * g * g * D
    cons.append((L1 * L1 - k, 2 * L1 * L0, L0 * L0 + k * D))
    cons.append((0, L1, L0))
    return cons


def _ref_raw_stable_polynomials(I, t):
    D, a, g = I.D, I.a, I.g
    if not t * t > D:
        return False
    cons = _ref_stable_constraints(I)
    (A1, B1, C1) = cons[0]
    if A1 * t * t + B1 * t + C1 < 0:
        return False
    rhs_sq = a * a * g * g * D * (t * t - D)
    if D % 4 == 1:
        m1 = 2 * a * a * t
    else:
        m1 = a * a * t
    _, L1, L0 = cons[3]
    m2 = L1 * t + L0
    for m in (m1, m2):
        if m < 0 or m * m < rhs_sq:
            return False
    return True


def _pencil_sweep():
    """Every canonical ideal with a <= 50 of every squarefree D <= 200, and
    with a <= 30 for D = 1327, 125173 and 9999991."""
    fields = [(D, 50) for D in range(2, 201) if is_squarefree(D)]
    fields += [(1327, 30), (125173, 30), (9999991, 30)]
    return [I for D, max_a in fields for I in enumerate_canonical(D, max_a)]


@pytest.fixture(scope="module")
def sweep():
    ideals = _pencil_sweep()
    assert len(ideals) == 21228
    return ideals


class TestPencilAgainstClosedForms:
    def test_sweep_has_even_g_over_d_1_mod_4(self, sweep):
        even = [I for I in sweep if I.D % 4 == 1 and I.g % 2 == 0]
        assert even and (5, 2, 0, 2) in {(I.D, I.a, I.b, I.g) for I in even}

    def test_stable_constraints_exact(self, sweep):
        # The reference keeps the old fourth triple, the guard g22 >= 0; its
        # rational root lies below sqrt(D), so it cuts nothing from the
        # domain t > sqrt(D), and the library drops it.
        for I in sweep:
            ref = _ref_stable_constraints(I)
            assert twist._stable_constraints(I) == ref[:3], I
            zero, L1, L0 = ref[3]
            assert zero == 0 and L1 > 0, I
            assert L0 >= 0 or L0 * L0 < L1 * L1 * I.D, I

    def test_wr_ratio(self, sweep):
        for I in sweep:
            num, den, ok = twist._wr_ratio(I)
            rnum, rden, rok = _ref_wr_ratio(I)
            assert (num > 0, den > 0) == (rnum > 0, rden > 0), I
            if num > 0 and den > 0:
                assert Fraction(num, den) == Fraction(rnum, rden), I
                assert ok == rok, I

    def test_bound_filters(self, sweep):
        for I in sweep:
            assert wr_bound_filter(I) == _ref_wr_bound_filter(I), I
            assert stable_bound_filter(I) == _ref_stable_bound_filter(I), I

    def test_raw_stable_polynomials(self, sweep):
        rng = random.Random(7)
        for I in sweep[::20]:
            for _ in range(5):
                t = Fraction(rng.randint(-400, 400), rng.randint(1, 8))
                assert raw_stable_polynomials(I, t) == \
                    _ref_raw_stable_polynomials(I, t), (I, t)

    def test_det_identity(self, sweep):
        # det(t*P + Q) = N(I)^2 * D * (t^2 - D), coefficient by coefficient
        for I in sweep[::50]:
            P11, P12, P22, Q11, Q12, Q22 = I._pencil
            det = (P11 * P22 - P12 * P12,
                   P11 * Q22 + Q11 * P22 - 2 * P12 * Q12,
                   Q11 * Q22 - Q12 * Q12)
            k = I.norm() ** 2 * I.D
            assert det == (k, 0, -k * I.D), I


# The feasibility algorithm that clipping at finite roots replaced, kept as
# the reference: each constraint solved over the domain (sqrt(D), oo),
# cross-intersected with the running set, and the result sorted by lower
# end.  The clipped set must equal it endpoint for endpoint, repr included
# (a tie between equal surds of different radicands keeps one of them).


def _ref_intersect_pair(a, b):
    """a & b with its own tie rules, or None when empty: the pairwise
    intersection that `intersect_interval_lists` was built on."""
    cl = _cmp(a.lo, b.lo)
    if cl > 0 or (cl == 0 and not a.lo_closed):
        lo, lo_closed = a.lo, a.lo_closed
    else:
        lo, lo_closed = b.lo, b.lo_closed
    if a.hi is None:
        hi, hi_closed = b.hi, b.hi_closed
    elif b.hi is None:
        hi, hi_closed = a.hi, a.hi_closed
    else:
        ch = _cmp(a.hi, b.hi)
        if ch < 0 or (ch == 0 and not a.hi_closed):
            hi, hi_closed = a.hi, a.hi_closed
        else:
            hi, hi_closed = b.hi, b.hi_closed
    out = Interval(lo, hi, lo_closed, hi_closed)
    return None if _is_empty(out) else out


def _ref_intersect_interval_lists(xs, ys):
    return [c for a in xs for b in ys
            if (c := _ref_intersect_pair(a, b)) is not None]


def _ref_max_stride(check):
    """Largest k >= 1 with check(k) true, given check(1) is true and check
    is monotone (true up to some point, false after)."""
    k = 1
    while check(2 * k):
        k *= 2
    lo_k, hi_k = k, 2 * k
    while lo_k + 1 < hi_k:
        mid = (lo_k + hi_k) // 2
        if check(mid):
            lo_k = mid
        else:
            hi_k = mid
    return lo_k


def _ref_simplest_rational_in(lo, hi):
    """Smallest-denominator rational strictly inside (lo, hi), lo >= 0, by
    the Stern-Brocot walk with exponential stride acceleration: the witness
    search that the continued-fraction walk replaced."""
    if hi is not None and _cmp(lo, hi) >= 0:
        return None
    lo, hi = _ends(lo), None if hi is None else _ends(hi)

    def cmp(n, d, end):  # the sign of n/d - end
        return oracles.surd_cmp((n, 0, 0, d), end)

    ln, ld = 0, 1  # left endpoint of the walk
    rn, rd = 1, 0  # right endpoint, starts at +oo
    while True:
        mn, md = ln + rn, ld + rd
        if cmp(mn, md, lo) <= 0:
            k = _ref_max_stride(
                lambda k: cmp(ln + k * rn, ld + k * rd, lo) <= 0)
            ln, ld = ln + k * rn, ld + k * rd
        elif hi is not None and cmp(mn, md, hi) >= 0:
            k = _ref_max_stride(
                lambda k: cmp(k * ln + rn, k * ld + rd, hi) >= 0)
            rn, rd = k * ln + rn, k * ld + rd
        else:
            return Fraction(mn, md)


def _ref_solve_quadratic_ge0(A, B, C, domain):
    if A == 0:
        if B == 0:
            return [domain] if C >= 0 else []
        if B > 0:
            sol = Interval(Surd(-C, d=B), None, True, True)
        else:
            sol = Interval(domain.lo, Surd(C, d=-B),
                           domain.lo_closed, True)
        return _ref_intersect_interval_lists([domain], [sol])
    disc = B * B - 4 * A * C
    if A > 0:
        if disc <= 0:
            return [domain]
        r1 = Surd(-B, -1, disc, 2 * A)
        r2 = Surd(-B, 1, disc, 2 * A)
        sols = [
            Interval(domain.lo, r1, domain.lo_closed, True),
            Interval(r2, None, True, True),
        ]
    else:
        if disc < 0:
            return []
        r1 = Surd(B, -1, disc, -2 * A)
        r2 = Surd(B, 1, disc, -2 * A)
        sols = [Interval(r1, r2, True, True)]
    return _ref_intersect_interval_lists([domain], sols)


_REF_BY_LO = cmp_to_key(lambda x, y: _cmp(x.lo, y.lo))


def _ref_stable_twist(I):
    """(running sets after each constraint, sorted final set, witness t,
    witness alpha) of the old algorithm over the reference constraints,
    guard g22 >= 0 included; it stops at the first empty set."""
    domain = Interval(Surd(0, 1, I.D), None, lo_closed=False)
    feas, running = [domain], []
    for (A, B, C) in _ref_stable_constraints(I):
        feas = _ref_intersect_interval_lists(
            feas, _ref_solve_quadratic_ge0(A, B, C, domain))
        running.append(feas)
        if not feas:
            break
    feas.sort(key=_REF_BY_LO)
    witness_t = witness_alpha = None
    for iv in feas:
        if not _is_point(iv):
            witness_t = _ref_simplest_rational_in(iv.lo, iv.hi)
            if witness_t is not None:
                witness_alpha = QuadElem(I.D, witness_t, 1)
                break
    return running, feas, witness_t, witness_alpha


def _endpoints(intervals):
    return [(repr(iv.lo), repr(iv.hi), iv.lo_closed, iv.hi_closed)
            for iv in intervals]


def _large_d_sample(n=300, seed=20261018):
    """n canonical ideals (D, a, b, 1) with squarefree 10^5 <= D < 10^7 and
    a <= 3*sqrt(D): a drawn first, then b among the roots of the norm."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        D = rng.randrange(10**5, 10**7)
        if not is_squarefree(D):
            continue
        a = rng.randint(1, 3 * math.isqrt(D))
        if D % 4 == 1:
            roots = [b for b in range(a) if (b * b + b + (1 - D) // 4) % a == 0]
        else:
            roots = [b for b in range(a) if (b * b - D) % a == 0]
        if roots:
            out.append(CanonicalIdeal(D, a, rng.choice(roots), 1))
    return out


class TestClippingAgainstReference:
    @pytest.fixture(scope="class")
    def pairs(self, sweep):
        return [(I, stable_twist(I), _ref_stable_twist(I))
                for I in sweep + _large_d_sample()]

    def test_reports_equal(self, pairs):
        for I, fr, (_, feas, witness_t, witness_alpha) in pairs:
            assert fr.feasible_real == bool(feas), I
            assert len(fr.intervals) == len(feas), I
            assert _endpoints(fr.intervals) == _endpoints(feas), I
            assert repr(fr.witness_t) == repr(witness_t), I
            assert repr(fr.witness_alpha) == repr(witness_alpha), I

    def test_emptied_by(self, pairs):
        emptied = set()
        for I, fr, (running, feas, _, _) in pairs:
            if feas:
                assert fr.emptied_by is None, I
                continue
            k = fr.emptied_by
            assert len(running) == k + 1 and not running[k], I
            assert all(running[:k]), I
            emptied.add(k)
        assert emptied == {0, 1, 2}
        assert len(twist.STABLE_CONSTRAINT_NAMES) == 3

    def test_emptied_by_first_constraint_is_the_bound_filter(self, pairs):
        for I, fr, _ in pairs:
            assert (not stable_bound_filter(I)) == (fr.emptied_by == 0), I

    def test_witness_on_every_interval(self, pairs):
        # every interval, not only the first with a witness, and the points
        tried = 0
        for I, fr, _ in pairs:
            for iv in fr.intervals:
                assert simplest_rational_in(iv.lo, iv.hi) == \
                    _ref_simplest_rational_in(iv.lo, iv.hi), (I, iv)
                tried += 1
        assert tried > 2000


def _height_fails(I):
    """9(a/g)^2 >= 4*Delta: the arc that tau runs on never reaches 3/4."""
    disc = I.D if I.D % 4 == 1 else 4 * I.D
    return 9 * I.a * I.a >= 4 * disc * I.g * I.g


def _clipped(I):
    """(feasible, emptied_by) of a plain loop of `twist._clip` over
    `twist._stable_constraints(I)`, with no prefilter."""
    feas = [((0, 1, I.D, 1), None, False, True)]
    for k, (A, B, C) in enumerate(twist._stable_constraints(I)):
        feas = twist._clip(feas, A, B, C)
        if not feas:
            return False, k
    return True, None


class TestPrefilters:
    """The cone test (`stable_bound_filter`) and the height test that
    `stable_twist` runs before any clipping."""

    def test_agree_with_the_clipping_on_the_primitive_ideals(
            self, primitive_ideals):
        seen = Counter()
        for I in primitive_ideals:
            fr = stable_twist(I)
            feasible, k = _clipped(I)
            assert (fr.feasible_real, fr.emptied_by) == (feasible, k), I
            cone, height = not stable_bound_filter(I), _height_fails(I)
            assert not (feasible and (cone or height)), I
            seen[cone, height, k] += 1
        # (cone fails, height fails, emptied_by): the tests settle 8,321 of
        # the 15,170 empty sets, and every cone failure empties at index 0
        assert seen == {(True, True, 0): 4042, (True, False, 0): 83,
                        (False, True, 2): 4196, (False, False, 1): 5710,
                        (False, False, 2): 1139, (False, False, None): 3984}

    def test_past_the_height_bound_neither_twist_exists(
            self, primitive_ideals):
        # 9(a/g)^2 >= 4*Delta leaves no WR and no stable twist, and every
        # WR twist has 3(a/g)^2 <= Delta, which the oracle's F <= 0 forces
        seen = Counter()
        for I in primitive_ideals:
            disc = I.D if I.D % 4 == 1 else 4 * I.D
            past = _height_fails(I)
            assert twist._past_height(I.a, I.g, disc) is past, I
            wr = wr_twist(I).wr_twistable
            f_le_0 = oracles.F(*oracles.basis(I.D, I.a, I.b, I.g), I.D,
                               I.norm()) <= 0
            low = 3 * I.a * I.a <= disc * I.g * I.g
            if past:
                assert not (wr or stable_twist(I).feasible_real), I
            assert (not wr or f_le_0) and (not f_le_0 or low), I
            seen[past, low, f_le_0, wr] += 1
        # (past the bound, 3(a/g)^2 <= Delta, F <= 0, wr_twistable): 8,238
        # ideals lie past the bound, 2,787 have F <= 0 (the diagonal
        # group's WR ideals) and 2,529 of those twist along t > sqrt(D)
        assert seen == {(True, False, False, False): 8238,
                        (False, False, False, False): 1444,
                        (False, True, False, False): 6685,
                        (False, True, True, False): 258,
                        (False, True, True, True): 2529}

    def test_no_clipping_when_a_prefilter_fails(self, sweep, monkeypatch):
        calls = []
        clip = twist._clip

        def counted(*args):
            calls.append(args)
            return clip(*args)

        monkeypatch.setattr(twist, "_clip", counted)
        skipped = 0
        for I in sweep + _large_d_sample():
            calls.clear()
            stable_twist(I)
            if not stable_bound_filter(I) or _height_fails(I):
                assert calls == [], I
                skipped += 1
            else:
                assert calls, I
        assert skipped == 6298


surd_point = st.builds(Surd, st.integers(-6, 6), st.integers(-1, 1),
                       st.integers(0, 12), st.integers(1, 4))
coeff = st.one_of(st.integers(-6, 6), rat)


def _scaled_roots(A, B, C, k):
    """The real roots of k*(A, B, C) scaled to integers, as integer surds:
    equal in value to the solver's roots, and for k > 1 written with other
    integers (a radicand k^2 times larger), so ties keep a visible choice."""
    A, B, C = (k * c for c in _integer_triple(A, B, C))
    if A == 0:
        return [] if B == 0 else [Surd(-C if B > 0 else C, d=abs(B))]
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    p, d = (-B, 2 * A) if A > 0 else (B, -2 * A)
    return [Surd(p, s, disc, d) for s in (-1, 1)]


@st.composite
def solver_cases(draw):
    """(A, B, C, domain): the integer triple of a drawn rational quadratic
    and a nonempty domain whose ends are often its roots.  +oo is written with hi_closed=True, as every
    constructor in the library writes it (the flag means nothing there, and
    the reference passes it through in some branches and resets it to True
    in others)."""
    A, B, C = draw(coeff), draw(coeff), draw(coeff)
    ends = [surd_point]
    roots = _scaled_roots(A, B, C, draw(st.integers(1, 3)))
    if roots:
        ends.append(st.sampled_from(roots))
    end = st.one_of(*ends)
    lo, hi = draw(end), draw(st.one_of(st.none(), end))
    lo_closed, hi_closed = draw(st.booleans()), hi is None or draw(st.booleans())
    if hi is not None:
        c = _cmp(lo, hi)
        if c > 0:
            lo, hi = hi, lo
        elif c == 0:
            lo_closed = hi_closed = True
    return (*_integer_triple(A, B, C), Interval(lo, hi, lo_closed, hi_closed))


class TestSolverAgainstReference:
    @given(case=solver_cases())
    @settings(max_examples=400, deadline=None)
    def test_equal_to_reference(self, case):
        A, B, C, domain = case
        got = _clip_intervals([domain], A, B, C)
        want = _ref_solve_quadratic_ge0(A, B, C, domain)
        assert _endpoints(got) == _endpoints(want)


def _rewritten(s, j):
    """s with its integers scaled by j: the same value over the radicand
    j^2 * n, so that ties between different radicands are common."""
    return Surd(s.p * j, s.q, s.n * j * j, s.d * j)


nonneg_point = surd_point.filter(lambda s: _cmp(s, 0) >= 0)


@st.composite
def witness_cases(draw):
    """(lo, hi) with lo >= 0: hi = +oo, another point (below lo, too, for an
    empty interval), lo itself over another radicand, or lo + 1/N for a
    narrow interval with a long walk."""
    lo = draw(nonneg_point)
    N = draw(st.integers(2, 10**6))
    hi = draw(st.one_of(
        st.none(), nonneg_point,
        st.builds(_rewritten, st.just(lo), st.integers(1, 3)),
        st.just(Surd(lo.p * N + lo.d, lo.q * N, lo.n, lo.d * N))))
    return lo, hi


@st.composite
def interval_list_pairs(draw):
    """Two short lists of intervals with ends from a few drawn points, each
    point also written over a radicand 4 times larger, so that tied ends of
    different radicands are common; lo > hi and a point with an open end
    make empty input intervals.  +oo is written with hi_closed=True, as the
    library writes it."""
    base = draw(st.lists(surd_point, min_size=1, max_size=4))
    end = st.sampled_from(base + [_rewritten(s, 2) for s in base])
    interval = st.builds(
        lambda lo, hi, lc, hc: Interval(lo, hi, lc, hi is None or hc),
        end, st.one_of(st.none(), end), st.booleans(), st.booleans())
    return (draw(st.lists(interval, max_size=3)),
            draw(st.lists(interval, max_size=3)))


class TestWitnessAndIntersectionAgainstReference:
    @given(case=witness_cases())
    @settings(max_examples=400, deadline=None)
    def test_witness_equal_to_reference(self, case):
        lo, hi = case
        assert simplest_rational_in(lo, hi) == _ref_simplest_rational_in(lo, hi)

    @given(case=interval_list_pairs())
    @settings(max_examples=400, deadline=None)
    def test_intersection_equal_to_reference(self, case):
        xs, ys = case
        assert _endpoints(intersect_interval_lists(xs, ys)) == \
            _endpoints(_ref_intersect_interval_lists(xs, ys))


class TestCertificates:
    """The exact re-checks of a verdict are errors, not asserts."""

    def test_certificate_error_is_not_invalid_input(self):
        assert not issubclass(CertificateError, ValueError)

    def test_wr_twist_rechecks(self, monkeypatch):
        # the certificate reads the WR flag of its reduced pencil integers
        monkeypatch.setattr(twist, "_wr_reduced", lambda *r: False)
        with pytest.raises(CertificateError):
            wr_twist(CanonicalIdeal(139, 9, 7, 1))

    def test_stable_twist_rechecks(self, monkeypatch):
        monkeypatch.setattr(twist, "raw_stable_polynomials", lambda I, t: False)
        with pytest.raises(CertificateError):
            stable_twist(CanonicalIdeal(1327, 39, 38, 1))

    def test_stable_twist_rechecks_under_optimize(self):
        script = textwrap.dedent("""
            import sys
            from quadtwist import twist
            from quadtwist.ideals import CanonicalIdeal
            from quadtwist.quadfield import CertificateError
            assert False, "asserts are live"
            twist._stable_reduced = lambda *r: False
            try:
                twist.stable_twist(CanonicalIdeal(1327, 39, 38, 1))
            except CertificateError:
                sys.exit(0)
            sys.exit(1)
        """)
        proc = run_python("-c", script, flags=("-O",), capture_output=True,
                          text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestSimilarity:
    """I = (a, b, g) is g times its primitive part J = (a/g, b/g, 1): both
    twist alike, with Grams that differ by the factor g^2."""

    @pytest.fixture(scope="class")
    def multiples(self, sweep):
        ideals = [I for I in sweep if I.D <= 200 and I.g > 1]
        assert len(ideals) == 16403
        return ideals

    def test_verdicts_equal_those_of_the_primitive_part(self, multiples):
        primitive = {}
        for I in multiples:
            J = CanonicalIdeal(I.D, I.a // I.g, I.b // I.g, 1)
            if J not in primitive:
                primitive[J] = wr_twist(J), stable_twist(J)
            vJ, fJ = primitive[J]
            g2 = I.g * I.g
            v = wr_twist(I)
            assert (v.wr_twistable, v.reason, v.t_star, v.alpha) == \
                (vJ.wr_twistable, vJ.reason, vJ.t_star, vJ.alpha), I
            if v.gram is not None:
                assert (v.gram.g11, v.gram.g12, v.gram.g22) == (
                    g2 * vJ.gram.g11, g2 * vJ.gram.g12, g2 * vJ.gram.g22), I
            f = stable_twist(I)
            assert (f.feasible_real, f.witness_t, f.witness_alpha,
                    f.emptied_by) == (fJ.feasible_real, fJ.witness_t,
                                      fJ.witness_alpha, fJ.emptied_by), I
            # ends equal as values: only their integer forms differ
            assert len(f.intervals) == len(fJ.intervals), I
            for iv, ivJ in zip(f.intervals, fJ.intervals):
                assert iv.lo == ivJ.lo, I
                assert (iv.hi is None) == (ivJ.hi is None), I
                assert iv.hi is None or iv.hi == ivJ.hi, I
                assert (iv.lo_closed, iv.hi_closed) == \
                    (ivJ.lo_closed, ivJ.hi_closed), I
            if f.witness_alpha is not None:
                G = gram_of_twist(I, f.witness_alpha)
                GJ = gram_of_twist(J, f.witness_alpha)
                assert (G.g11, G.g12, G.g22) == (
                    g2 * GJ.g11, g2 * GJ.g12, g2 * GJ.g22), I

    def test_sweep_holds_each_kind_of_verdict(self, multiples):
        # the identity above is not vacuous: every outcome occurs among
        # the multiples, and so does e = 2 with an even g
        assert any(I.D % 4 == 1 and I.g % 2 == 0 for I in multiples)
        verdicts = [(wr_twist(I).wr_twistable, stable_twist(I).witness_t
                     is not None) for I in multiples[::7]]
        assert {(True, True), (False, True), (False, False)} <= set(verdicts)
