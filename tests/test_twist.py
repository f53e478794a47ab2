import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtwist.ideals import enumerate_canonical, ring_of_integers, validate_canonical
from quadtwist.lattice2 import (
    _pencil,
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
    solve_quadratic_ge0,
    stable_bound_filter,
    stable_twist,
    wr_bound_filter,
    wr_twist,
)

rat = st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                   max_denominator=10)


class TestIntervals:
    def test_emptiness(self):
        assert Interval(Surd.of(2), Surd.of(1)).is_empty()
        assert Interval(Surd.of(1), Surd.of(1), False, True).is_empty()
        assert not Interval(Surd.of(1), Surd.of(1)).is_empty()
        assert not Interval(Surd.of(1), None).is_empty()

    def test_contains(self):
        iv = Interval(Surd.sqrt(2), Surd.of(3), lo_closed=False)
        assert iv.contains(2)
        assert iv.contains(3)
        assert not iv.contains(3, strict=True)
        assert not iv.contains(1)
        assert not iv.contains(Surd.sqrt(2))

    def test_intersection(self):
        a = Interval(Surd.of(0), Surd.of(5))
        b = Interval(Surd.of(3), None)
        out = intersect_interval_lists([a], [b])
        assert len(out) == 1
        assert surd_compare(out[0].lo, 3) == 0
        assert surd_compare(out[0].hi, 5) == 0


class TestQuadraticSolver:
    @given(A=rat, B=rat, C=rat, t=rat)
    @settings(max_examples=400)
    def test_membership_agreement(self, A, B, C, t):
        domain = Interval(Surd.of(-100), Surd.of(100))
        sols = solve_quadratic_ge0(A, B, C, domain)
        expected = A * t * t + B * t + C >= 0
        got = any(iv.contains(t) for iv in sols)
        assert got == expected

    def test_open_domain_endpoint(self):
        domain = Interval(Surd.sqrt(2), None, lo_closed=False)
        sols = solve_quadratic_ge0(Fraction(1), Fraction(0), Fraction(0), domain)
        assert len(sols) == 1
        assert not sols[0].lo_closed


class TestSimplestRational:
    def test_known_intervals(self):
        assert simplest_rational_in(Surd.sqrt(2), Surd.sqrt(3)) == Fraction(3, 2)
        assert simplest_rational_in(Surd.of(0), Surd.of(1)) == Fraction(1, 2)
        assert simplest_rational_in(Surd.of(3), None) == 4
        assert simplest_rational_in(Surd.of(2), Surd.of(2)) is None

    def test_narrow_interval_minimality(self):
        lo = Surd.of(Fraction(355, 113))
        hi = Surd.of(Fraction(355, 113) + Fraction(1, 10**6))
        m = simplest_rational_in(lo, hi)
        assert lo < Surd.of(m) < hi
        # exhaustive check that no smaller denominator fits
        for den in range(1, m.denominator):
            n0 = int(float(lo) * den)
            assert not any(
                lo < Surd.of(Fraction(n, den)) < hi
                for n in range(n0 - 1, n0 + 3)
            )

    def test_endpoints_are_excluded(self):
        m = simplest_rational_in(Surd.of(1), Surd.of(2))
        assert 1 < m < 2


class TestWrTwist:
    def test_reference_cases(self):
        v = wr_twist(validate_canonical(139, 9, 7, 1))
        assert v.wr_twistable and v.t_star == Fraction(1946, 107)
        assert v.gram.g11 == v.gram.g22 == Fraction(315252, 107)
        assert v.gram.g12 / v.gram.g11 == Fraction(-1, 14)

        v = wr_twist(validate_canonical(141, 5, 4, 1))
        assert v.wr_twistable and v.t_star == Fraction(1269, 61)
        assert v.gram.g11 == v.gram.g22 == Fraction(63450, 61)
        assert v.gram.g12 / v.gram.g11 == Fraction(2, 9)

        v = wr_twist(ring_of_integers(5))
        assert v.wr_twistable and v.t_star == 5
        assert v.gram.entries() == (10, 0, 10)

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
                    G = gram_of_twist(I, QuadElem.of(D, t, 1))
                    basis_wr = G.g11 == G.g22 and is_paper_reduced(G)
                    expected = v.wr_twistable and t == v.t_star
                    assert basis_wr == expected, (D, I, t)


class TestStableTwist:
    def test_reference_cases(self):
        fr = stable_twist(validate_canonical(1327, 39, 38, 1))
        assert fr.feasible_real and fr.contains_t(Fraction(63))
        fr = stable_twist(validate_canonical(125173, 183, 182, 1))
        assert fr.feasible_real and fr.contains_t(Fraction(611))

    def test_single_point_feasibility(self):
        fr = stable_twist(ring_of_integers(5))
        assert fr.feasible_real
        assert fr.witness_t is None  # empty interior
        assert len(fr.intervals) == 1 and fr.intervals[0].is_point()
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
            G = gram_of_twist(I, QuadElem.of(D, t, 1))
            expected = is_paper_reduced(G) and is_stable(G)
            assert raw_stable_polynomials(I, t) == expected, (D, I, t)
            checked += 1

    def test_interval_endpoints_ordered(self):
        for D, a, b, g in [(1327, 39, 38, 1), (139, 10, 3, 1)]:
            fr = stable_twist(validate_canonical(D, a, b, g))
            for iv in fr.intervals:
                if iv.hi is not None:
                    assert surd_compare(iv.lo, iv.hi) <= 0


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


class TestPencilAgainstClosedForms:
    @pytest.fixture(scope="class")
    def sweep(self):
        ideals = _pencil_sweep()
        assert len(ideals) == 21228
        return ideals

    def test_sweep_has_even_g_over_d_1_mod_4(self, sweep):
        even = [I for I in sweep if I.D % 4 == 1 and I.g % 2 == 0]
        assert even and (5, 2, 0, 2) in {(I.D, I.a, I.b, I.g) for I in even}

    def test_stable_constraints_exact(self, sweep):
        for I in sweep:
            assert twist._stable_constraints(I) == _ref_stable_constraints(I), I

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
            P11, P12, P22, Q11, Q12, Q22 = _pencil(I)
            det = (P11 * P22 - P12 * P12,
                   P11 * Q22 + Q11 * P22 - 2 * P12 * Q12,
                   Q11 * Q22 - Q12 * Q12)
            k = I.norm() ** 2 * I.D
            assert det == (k, 0, -k * I.D), I


class TestCertificates:
    """The exact re-checks of a verdict are errors, not asserts."""

    def test_certificate_error_is_not_invalid_input(self):
        assert not issubclass(CertificateError, ValueError)

    def test_wr_twist_rechecks(self, monkeypatch):
        monkeypatch.setattr(twist, "is_wr", lambda G: False)
        with pytest.raises(CertificateError):
            wr_twist(validate_canonical(139, 9, 7, 1))

    def test_stable_twist_rechecks(self, monkeypatch):
        monkeypatch.setattr(twist, "raw_stable_polynomials", lambda I, t: False)
        with pytest.raises(CertificateError):
            stable_twist(validate_canonical(1327, 39, 38, 1))

    def test_stable_twist_rechecks_under_optimize(self):
        script = textwrap.dedent("""
            import sys
            from quadtwist import twist
            from quadtwist.ideals import validate_canonical
            from quadtwist.quadfield import CertificateError
            assert False, "asserts are live"
            twist.is_stable = lambda G: False
            try:
                twist.stable_twist(validate_canonical(1327, 39, 38, 1))
            except CertificateError:
                sys.exit(0)
            sys.exit(1)
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
