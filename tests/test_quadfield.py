import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtwist.quadfield import (
    InvalidFieldError,
    QuadElem,
    Surd,
    check_field,
    delta,
    discriminant,
    fundamental_unit,
    is_squarefree,
    surd_compare,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
# Surd coefficients and radicands: small values plus rationals up to ~10^12.
big_rationals = st.fractions(
    min_value=Fraction(-10**12), max_value=Fraction(10**12),
    max_denominator=10**6,
)
surd_coeffs = st.one_of(rationals, big_rationals)
radicands = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.fractions(min_value=Fraction(0), max_value=Fraction(10**12),
                 max_denominator=10**6),
)
small_D = st.sampled_from([2, 3, 5, 6, 7, 10, 13, 17, 19, 21, 141, 139])


class TestSquarefree:
    def test_small_values(self):
        assert is_squarefree(1)
        assert is_squarefree(2)
        assert is_squarefree(30)
        assert not is_squarefree(4)
        assert not is_squarefree(12)
        assert not is_squarefree(18)
        assert not is_squarefree(0)
        assert not is_squarefree(-5)

    def test_against_sieve(self):
        limit = 2000
        sieve = [True] * (limit + 1)
        for p in range(2, int(limit**0.5) + 1):
            for k in range(p * p, limit + 1, p * p):
                sieve[k] = False
        for n in range(1, limit + 1):
            assert is_squarefree(n) == sieve[n], n

    def test_large_prime_square(self):
        p = 1000003
        assert is_squarefree(p)
        assert not is_squarefree(p * p)
        assert is_squarefree(p * 1000033)

    def test_check_field_rejects(self):
        with pytest.raises(InvalidFieldError):
            check_field(1)
        with pytest.raises(InvalidFieldError):
            check_field(12)
        with pytest.raises(InvalidFieldError):
            check_field(-2)


class TestQuadElem:
    def test_basic_arithmetic(self):
        z = QuadElem.of(2, 1, 1)
        w = QuadElem.of(2, 1, -1)
        assert (z * w).x == -1 and (z * w).y == 0
        assert (z + w) == QuadElem.of(2, 2, 0)
        assert z - w == QuadElem.of(2, 0, 2)
        assert z.norm() == -1
        assert z.trace() == 2
        assert z.conjugate() == w

    def test_inverse_and_division(self):
        z = QuadElem.of(7, 3, 1)
        assert z * z.inverse() == QuadElem.of(7, 1, 0)
        assert (z / z) == QuadElem.of(7, 1, 0)
        with pytest.raises(ZeroDivisionError):
            QuadElem.of(7, 0, 0).inverse()

    def test_pow(self):
        z = QuadElem.of(2, 1, 1)
        assert z**0 == QuadElem.of(2, 1, 0)
        assert z**3 == z * z * z
        assert z**-2 == (z * z).inverse()

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            QuadElem.of(2, 1, 1) * QuadElem.of(3, 1, 1)

    def test_exact_order(self):
        # 1 + sqrt(2) vs 5/2: 2.414... < 2.5
        assert QuadElem.of(2, 1, 1) < Fraction(5, 2)
        assert QuadElem.of(2, 1, 1) > 2
        # tight comparison that float arithmetic would get wrong:
        # (665857/470832)^2 - 2 = 1/470832^2 > 0, so 665857/470832 > sqrt(2)
        assert QuadElem.of(2, 0, 1) < Fraction(665857, 470832)
        assert QuadElem.of(2, 0, 1) > Fraction(470832, 332929)

    def test_total_positivity(self):
        assert QuadElem.of(5, 3, 1).is_totally_positive()
        assert not QuadElem.of(5, 1, 1).is_totally_positive()
        assert not QuadElem.of(5, -3, 1).is_totally_positive()
        assert not QuadElem.of(5, 0, 0).is_totally_positive()

    @given(x=rationals, y=rationals, D=small_D)
    def test_norm_is_multiplicative(self, x, y, D):
        z = QuadElem.of(D, x, y)
        w = QuadElem.of(D, x + 1, y - 1)
        assert (z * w).norm() == z.norm() * w.norm()

    @given(x=rationals, y=rationals, D=small_D)
    def test_order_matches_floats(self, x, y, D):
        z = QuadElem.of(D, x, y)
        f = float(x) + float(y) * math.sqrt(D)
        if abs(f) > 1e-6:
            assert (z > 0) == (f > 0)

    @given(x=rationals, y=rationals, D=small_D)
    def test_trace_and_norm_via_conjugate(self, x, y, D):
        z = QuadElem.of(D, x, y)
        assert (z + z.conjugate()).x == z.trace()
        assert (z * z.conjugate()).x == z.norm()
        assert (z * z.conjugate()).y == 0


class TestFieldConstants:
    def test_delta(self):
        d2 = delta(2)
        assert (d2.x, d2.y) == (0, -1)
        d5 = delta(5)
        assert (d5.x, d5.y) == (Fraction(1, 2), Fraction(-1, 2))
        # delta is an algebraic integer: monic integral minimal polynomial
        assert delta(13).trace().denominator == 1
        assert delta(13).norm().denominator == 1

    def test_discriminant(self):
        assert discriminant(2) == 8
        assert discriminant(3) == 12
        assert discriminant(5) == 5
        assert discriminant(13) == 13
        assert discriminant(139) == 556
        assert discriminant(141) == 141


class TestFundamentalUnit:
    def test_known_units(self):
        cases = {
            2: QuadElem.of(2, 1, 1),
            3: QuadElem.of(3, 2, 1),
            5: QuadElem.of(5, Fraction(1, 2), Fraction(1, 2)),
            13: QuadElem.of(13, Fraction(3, 2), Fraction(1, 2)),
            61: QuadElem.of(61, Fraction(39, 2), Fraction(5, 2)),
        }
        for D, expected in cases.items():
            eps, _ = fundamental_unit(D)
            assert eps == expected, D

    def test_unit_properties_sweep(self):
        for D in range(2, 150):
            if not is_squarefree(D):
                continue
            eps, eps_plus = fundamental_unit(D)
            assert abs(eps.norm()) == 1, D
            assert eps > 1, D
            assert eps_plus.is_totally_positive(), D
            assert eps_plus.norm() == 1, D
            assert eps_plus == eps or eps_plus == eps * eps, D
            # algebraic integer of O_K
            assert eps.trace().denominator == 1
            if D % 4 != 1:
                assert eps.x.denominator == 1 and eps.y.denominator == 1

    def test_minimality_small_fields(self):
        # no unit strictly between 1 and eps, by direct search over O_K
        for D in (2, 3, 5, 13, 17, 21, 29):
            eps, _ = fundamental_unit(D)
            half = D % 4 == 1
            bound = int(float(eps) * 2) + 2
            for p in range(-2 * bound, 2 * bound + 1):
                for qy in range(-2 * bound, 2 * bound + 1):
                    den = 2 if half else 1
                    if half and (p - qy) % 2 != 0:
                        continue
                    z = QuadElem.of(D, Fraction(p, den), Fraction(qy, den))
                    if abs(z.norm()) == 1 and z > 1:
                        assert z >= eps, (D, z)


class TestSurd:
    def test_canonical_form(self):
        s = Surd.of(1, 2, 4)  # 1 + 2*sqrt(4) = 5
        assert s.is_rational() and s.as_rational() == 5
        assert Surd.sqrt(Fraction(9, 4)) == Fraction(3, 2)
        with pytest.raises(ValueError):
            Surd.of(0, 1, -2)

    def test_compare_same_radicand(self):
        assert Surd.sqrt(2) < Surd.of(0, 2, 2)
        assert Surd.of(1, 1, 2) > Surd.of(2)
        assert surd_compare(Surd.sqrt(2), Fraction(3, 2)) < 0

    def test_compare_two_radicands(self):
        # sqrt(2) + 1 vs sqrt(6): 2.4142 < 2.4495
        assert Surd.of(1, 1, 2) < Surd.sqrt(6)
        # sqrt(3) vs sqrt(2): mixed radicands
        assert Surd.sqrt(3) > Surd.sqrt(2)
        # 2*sqrt(3) vs 1 + sqrt(5): 3.4641 > 3.2361
        assert Surd.of(0, 2, 3) > Surd.of(1, 1, 5)
        # equality across radicands: 2*sqrt(2) = sqrt(8)
        assert Surd.of(0, 2, 2) == Surd.sqrt(8)

    @given(
        u1=surd_coeffs, v1=surd_coeffs, u2=surd_coeffs, v2=surd_coeffs,
        m1=radicands, m2=radicands,
    )
    @settings(max_examples=300)
    def test_compare_matches_high_precision(self, u1, v1, u2, v2, m1, m2):
        import mpmath

        s1 = Surd.of(u1, v1, m1)
        s2 = Surd.of(u2, v2, m2)

        def mp(q):
            q = Fraction(q)
            return mpmath.mpf(q.numerator) / q.denominator

        # Values reach ~10^18; 100 digits leave ~80 below the 10^-40 cutoff.
        with mpmath.workdps(100):
            f1 = mp(u1) + mp(v1) * mpmath.sqrt(mp(m1))
            f2 = mp(u2) + mp(v2) * mpmath.sqrt(mp(m2))
            if abs(f1 - f2) > mpmath.mpf(10) ** -40:
                expected = 1 if f1 > f2 else -1
                assert surd_compare(s1, s2) == expected

    def test_arithmetic_with_rationals(self):
        s = Surd.sqrt(2)
        assert (s + 1) - 1 == s
        assert 2 * s == Surd.of(0, 2, 2)
        assert -(-s) == s
