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
from quadtwist.lattice2 import gram_of_twist, is_paper_reduced, is_stable, is_wr
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
