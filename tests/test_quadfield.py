import math
import pickle
import random
import sys
import textwrap
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadtwist import quadfield
from quadtwist.lattice2 import Gram2
from quadtwist.twist import Interval
from quadtwist.quadfield import (
    CertificateError,
    InvalidFieldError,
    QuadElem,
    Surd,
    check_field,
    discriminant,
    fundamental_unit,
    is_squarefree,
    surd_compare,
)
from support import run_python

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
# Element coordinates: small values plus rationals up to ~10^12.
big_rationals = st.fractions(
    min_value=Fraction(-10**12), max_value=Fraction(10**12),
    max_denominator=10**6,
)
# The integers (p, q, n, d) of a Surd (p + q*sqrt(n))/d: small values plus
# numerators up to 10^18, radicands up to 10^12 and denominators up to 10^6.
surd_numerators = st.one_of(st.integers(-50, 50),
                            st.integers(-10**18, 10**18))
surd_ints = st.tuples(
    surd_numerators, surd_numerators,
    st.one_of(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 10**12)),
    st.one_of(st.integers(1, 20), st.integers(1, 10**6)),
)
small_D = st.sampled_from([2, 3, 5, 6, 7, 10, 13, 17, 19, 21, 141, 139])


def _decimal_float(p, q, n, d):
    """float((p + q*sqrt(n))/d), correctly rounded, through Decimal.

    With n not a square, |p + q*sqrt(n)| >= 1/(|p| + |q|*sqrt(n)), as
    p^2 - n*q^2 is a nonzero integer, so cancellation takes fewer than
    2*len(str(|p| + |q|*n)) digits: 60 more are kept."""
    with localcontext() as ctx:
        ctx.prec = 60 + 2 * len(str(abs(p) + abs(q) * n))
        return float((Decimal(p) + Decimal(q) * Decimal(n).sqrt()) / d)


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
        # the limit's cube root is 36.8, so the wheel's divisors 6k +- 1
        # from 5 to 35 are all tried
        limit = 50_000
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

    @pytest.mark.parametrize("p, q", [(1000003, 1000033), (999983, 1000003),
                                      (1000033, 999983)])
    @pytest.mark.parametrize("r", [1, 2, 3, 30, 997, 2 * 3 * 5 * 7 * 11 * 13])
    def test_products_of_large_primes(self, p, q, r):
        # primes above 10^6, so the answer is known from the factors
        assert not is_squarefree(r * p * p)
        assert is_squarefree(r * p * q)

    def test_near_10_to_18(self):
        p, q, s = 1000003, 1000033, 999983
        assert is_squarefree(p * q * s)
        assert not is_squarefree(p * p * q)
        assert not is_squarefree(s * s * s)
        assert not is_squarefree(2 * 3 * q * q * 7)

    def test_check_field_rejects(self):
        with pytest.raises(InvalidFieldError):
            check_field(1)
        with pytest.raises(InvalidFieldError):
            check_field(12)
        with pytest.raises(InvalidFieldError):
            check_field(-2)

    def test_check_field_types_a_d_past_the_digit_limit(self):
        # a negative int D past sys.get_int_max_str_digits() is still a
        # typed refusal, printed in full; any other type keeps its repr
        with pytest.raises(InvalidFieldError) as exc:
            check_field(-10**5000)
        assert str(exc.value).endswith("got -1" + "0" * 5000)
        with pytest.raises(InvalidFieldError, match=r"got 2\.5$"):
            check_field(2.5)
        with pytest.raises(InvalidFieldError, match=r"got '7'$"):
            check_field("7")

    def test_check_field_refuses_huge_d_at_once(self):
        # Trial division would run to the cube root of a 301-digit D; the
        # size bound is checked before any division.
        start = time.perf_counter()
        for D in (10**18 + 3, 10**300 + 1):
            with pytest.raises(InvalidFieldError, match=r"at most 10\*\*18"):
                check_field(D)
        assert time.perf_counter() - start < 1
        # the largest prime below the bound is still a field
        assert check_field(10**18 - 11) == 10**18 - 11


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit")
def test_int_and_rat_print_every_digit_past_the_limit():
    n = 7 * 10**999 + 1  # 1,000 digits
    digits = "7" + "0" * 998 + "1"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            str(n)
        assert quadfield._int(n) == digits
        assert quadfield._int(-n) == "-" + digits
        assert quadfield._int(12345) == "12345"
        assert quadfield._rat(n) == digits
        assert quadfield._rat(Fraction(n, 3)) == digits + "/3"
        assert quadfield._rat(Fraction(-1, n)) == "-1/" + digits
    finally:
        sys.set_int_max_str_digits(limit)


class TestQuadElem:
    def test_basic_arithmetic(self):
        z = QuadElem(2, 1, 1)
        w = QuadElem(2, 1, -1)
        assert (z * w).x == -1 and (z * w).y == 0
        assert (z + w) == QuadElem(2, 2, 0)
        assert z - w == QuadElem(2, 0, 2)
        assert z.norm() == -1
        assert z.conjugate() == w

    def test_inverse_and_division(self):
        z = QuadElem(7, 3, 1)
        assert z * z.inverse() == QuadElem(7, 1, 0)
        assert (z / z) == QuadElem(7, 1, 0)
        with pytest.raises(ZeroDivisionError):
            QuadElem(7, 0, 0).inverse()

    def test_pow(self):
        z = QuadElem(2, 1, 1)
        assert z**0 == QuadElem(2, 1, 0)
        assert z**3 == z * z * z
        assert z**-2 == (z * z).inverse()

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            QuadElem(2, 1, 1) * QuadElem(3, 1, 1)

    def test_exact_order(self):
        # 1 + sqrt(2) vs 5/2: 2.414... < 2.5
        assert QuadElem(2, 1, 1) < Fraction(5, 2)
        assert QuadElem(2, 1, 1) > 2
        # tight comparison that float arithmetic would get wrong:
        # (665857/470832)^2 - 2 = 1/470832^2 > 0, so 665857/470832 > sqrt(2)
        assert QuadElem(2, 0, 1) < Fraction(665857, 470832)
        assert QuadElem(2, 0, 1) > Fraction(470832, 332929)

    def test_total_positivity(self):
        assert QuadElem(5, 3, 1).is_totally_positive()
        assert not QuadElem(5, 1, 1).is_totally_positive()
        assert not QuadElem(5, -3, 1).is_totally_positive()
        assert not QuadElem(5, 0, 0).is_totally_positive()

    @given(x=rationals, y=rationals, D=small_D)
    def test_norm_is_multiplicative(self, x, y, D):
        z = QuadElem(D, x, y)
        w = QuadElem(D, x + 1, y - 1)
        assert (z * w).norm() == z.norm() * w.norm()

    @given(x=rationals, y=rationals, D=small_D)
    def test_order_matches_floats(self, x, y, D):
        z = QuadElem(D, x, y)
        f = float(x) + float(y) * math.sqrt(D)
        if abs(f) > 1e-6:
            assert (z > 0) == (f > 0)

    @pytest.mark.parametrize("D, small", [(139, 6.446351848330234e-09),
                                          (151, 2.893270648271545e-10),
                                          (166, 2.939615768055474e-10)])
    def test_embed_of_a_fundamental_unit(self, D, small):
        # sigma_2(eps) = 1/sigma_1(eps) is what is left after p/d and
        # (q/d)*sqrt(D) cancel to their last digits: in floats, 1.49e-8, 0.0
        # and 0.0
        eps, _ = fundamental_unit(D)
        assert eps.embed(2) == small == _decimal_float(eps.p, -eps.q, D, eps.d)
        assert eps.embed(1) == float(eps) == _decimal_float(eps.p, eps.q, D, eps.d)

    def test_embed_under_heavy_cancellation(self):
        # p is within 2 of |q|*sqrt(D), so one embedding keeps only the
        # last digits of the two terms
        rng = random.Random(29)
        for _ in range(300):
            D = rng.choice([2, 3, 5, 7, 10, 139, 151, 166, 9999991])
            q = rng.randrange(1, 10**rng.randrange(1, 40)) * rng.choice((1, -1))
            p = math.isqrt(D * q * q) + rng.randrange(-2, 3)
            d = rng.randrange(1, 10**6)
            z = QuadElem(D, Fraction(p, d), Fraction(q, d))
            assert float(z) == z.embed(1) == _decimal_float(p, q, D, d), z
            assert z.embed(2) == _decimal_float(p, -q, D, d), z

    def test_embed_beyond_float_range(self):
        # the integers give +-inf, or the finite value when the two terms
        # cancel
        assert float(QuadElem(2, 10**400)) == math.inf
        assert QuadElem(2, 0, 10**400).embed(2) == -math.inf
        assert QuadElem(2, 10**308, 10**308).embed(1) == math.inf
        p = math.isqrt(2 * 10**800)
        z = QuadElem(2, p, -(10**400))
        assert z.embed(2) == math.inf
        with localcontext() as ctx:
            ctx.prec = 1000
            ref = Decimal(p) - Decimal(10**400) * Decimal(2).sqrt()
        assert abs(Decimal(z.embed(1)) - ref) <= Decimal(1e-15) * abs(ref)

    @given(x=rationals, y=rationals, D=small_D)
    def test_trace_and_norm_via_conjugate(self, x, y, D):
        z = QuadElem(D, x, y)
        assert z + z.conjugate() == QuadElem(D, 2 * x, 0)
        assert (z * z.conjugate()).x == z.norm()
        assert (z * z.conjugate()).y == 0


# Independent oracle for QuadElem: x + y*sqrt(D) as a pair of Fractions.

def _o_mul(a, b, D):
    return (a[0] * b[0] + D * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _o_inv(a, D):
    n = a[0] * a[0] - D * a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def _o_sign(a, D):
    """Sign of x + y*sqrt(D): the term of larger absolute value wins."""
    x, y = a
    if x * x == D * y * y:  # only when x = y = 0, D being no square
        return 0
    big = x if x * x > D * y * y else y
    return 1 if big > 0 else -1


class TestQuadElemAgainstPairs:
    coords = st.one_of(rationals, big_rationals)

    @given(x1=coords, y1=coords, x2=coords, y2=coords, c=rationals,
           f=st.fractions(min_value=-1, max_value=1, max_denominator=50),
           k=st.integers(min_value=-4, max_value=4), D=small_D)
    @settings(max_examples=300, derandomize=True)
    def test_matches_fraction_pairs(self, x1, y1, x2, y2, c, f, k, D):
        a, b = (x1, y1), (x2, y2)
        z, w = QuadElem(D, x1, y1), QuadElem(D, x2, y2)

        def pair(e):
            assert e.d > 0 and math.gcd(e.p, e.q, e.d) == 1  # canonical
            return (e.x, e.y)

        assert pair(z) == a
        assert pair(z + w) == (x1 + x2, y1 + y2)
        assert pair(z - w) == (x1 - x2, y1 - y2)
        assert pair(z * w) == _o_mul(a, b, D)
        assert pair(z * c) == pair(c * z) == (x1 * c, y1 * c)
        assert pair(c - z) == (c - x1, -y1)
        assert pair(z.conjugate()) == (x1, -y1)
        assert pair(-z) == (-x1, -y1)
        assert z.norm() == x1 * x1 - D * y1 * y1
        # an element of negative norm: |x| <= |y| < sqrt(D)|y|
        neg = (f * (y2 or 1), y2 or 1)
        m = QuadElem(D, *neg)
        assert m.norm() < 0
        assert pair(m.inverse()) == _o_inv(neg, D)
        assert pair(z / m) == _o_mul(a, _o_inv(neg, D), D)
        if b == (0, 0):
            with pytest.raises(ZeroDivisionError):
                w.inverse()
        else:
            assert pair(w.inverse()) == _o_inv(b, D)
            assert pair(z / w) == _o_mul(a, _o_inv(b, D), D)
            assert pair(c / w) == _o_mul((c, 0), _o_inv(b, D), D)
        power = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            power = _o_mul(power, b, D)
        if k < 0 and b == (0, 0):
            with pytest.raises(ZeroDivisionError):
                w ** k
        else:
            assert pair(w ** k) == (power if k >= 0 else _o_inv(power, D))
        diff = (x1 - x2, y1 - y2)
        assert (z < w) == (_o_sign(diff, D) < 0)
        assert (z <= w) == (_o_sign(diff, D) <= 0)
        assert (z > w) == (_o_sign(diff, D) > 0)
        assert (z >= w) == (_o_sign(diff, D) >= 0)
        assert (z < c) == (_o_sign((x1 - c, y1), D) < 0)
        assert (z == w) == (a == b)
        # equal values built different ways are equal and hash alike
        if b != (0, 0):
            back = (z * w) / w
            assert back == z and hash(back) == hash(z)
        assert pickle.loads(pickle.dumps(z)) == z
        d = math.lcm(x1.denominator, y1.denominator)
        p, q = int(x1 * d), int(y1 * d)
        assert float(z) == z.embed(1) == _decimal_float(p, q, D, d)
        assert z.embed(2) == _decimal_float(p, -q, D, d)
        assert repr(z) == f"QuadElem(D={D!r}, x={x1!r}, y={y1!r})"

    def test_str(self):
        assert str(QuadElem(5, Fraction(1, 2), Fraction(-1, 2))) == \
            "1/2 + -1/2*sqrt(5)"
        assert str(QuadElem(7, 0, 1)) == "sqrt(7)"
        assert str(QuadElem(7, 3, 0)) == "3"

    def test_str_and_repr_beyond_the_int_str_limit(self):
        # The unit of D = 1700113703 has integers of about 6,500 digits;
        # str(int) refuses more than 4,300 (sys.get_int_max_str_digits).
        D = 1700113703
        eps, _ = fundamental_unit(D)
        assert eps.d == 1 and len(str(Decimal(eps.p))) > 4300
        x, y = str(eps).split(" + ")
        assert y.endswith(f"*sqrt({D})")
        y = y[:-len(f"*sqrt({D})")]
        assert (int(Decimal(x)), int(Decimal(y))) == (eps.p, eps.q)
        assert repr(eps) == f"QuadElem(D={D}, x=Fraction({x}, 1), y=Fraction({y}, 1))"
        s = Surd(eps.p, eps.q, D, eps.q)
        assert str(s) == f"{x}/{y} + sqrt({D})"
        assert repr(s) == f"Surd({x}, {y}, {D}, {y})"
        G = Gram2(eps.p, 0, eps.q, eps.q)
        assert str(G) == f"[[{x}/{y}, 0], [0, 1]]"
        assert repr(G) == f"Gram2({x}, 0, {y}, {y})"

    def test_immutable(self):
        z = QuadElem(5, 1, 1)
        for name in ("D", "x", "y", "p", "q", "d"):
            with pytest.raises(AttributeError):
                setattr(z, name, 2)
            with pytest.raises(AttributeError):
                delattr(z, name)
        s = Surd(1, 1, 2)
        for name in ("p", "q", "n", "d", "unknown"):
            with pytest.raises(AttributeError, match="Surd is immutable"):
                setattr(s, name, 2)
            # `del s.p` succeeded and left a Surd without p
            with pytest.raises(AttributeError, match="Surd is immutable"):
                delattr(s, name)
        assert (s.p, s.q, s.n, s.d) == (1, 1, 2, 1)

    def test_equality_only_with_elements(self):
        assert QuadElem(5, 1, 0) != 1
        assert QuadElem(5, 1, 0) != QuadElem(13, 1, 0)


@pytest.mark.parametrize("compare", [
    lambda: QuadElem(5, 1, 1) < 1.5,
    lambda: Surd(0, 1, 2) < 1.5,
    lambda: Interval(Surd(0, 1, 2), None).contains(1.5),
], ids=["QuadElem", "Surd", "Interval.contains"])
def test_ordering_against_a_float_is_a_type_error(compare):
    with pytest.raises(TypeError):
        compare()


class TestFieldConstants:
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
            2: QuadElem(2, 1, 1),
            3: QuadElem(3, 2, 1),
            5: QuadElem(5, Fraction(1, 2), Fraction(1, 2)),
            13: QuadElem(13, Fraction(3, 2), Fraction(1, 2)),
            61: QuadElem(61, Fraction(39, 2), Fraction(5, 2)),
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
            assert (2 * eps.x).denominator == 1  # the trace
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
                    z = QuadElem(D, Fraction(p, den), Fraction(qy, den))
                    if abs(z.norm()) == 1 and z > 1:
                        assert z >= eps, (D, z)


class TestSurd:
    def test_canonical_form(self):
        s = Surd(1, 2, 4)  # 1 + 2*sqrt(4) = 5
        assert (s.p, s.q, s.n, s.d) == (5, 0, 0, 1) and s == 5
        assert Surd(0, 1, 9, 2) == Fraction(3, 2)
        with pytest.raises(ValueError):
            Surd(0, 1, -2)

    def test_rejects_non_ints(self):
        # A float would make the exact sign tests run on float arithmetic.
        for args in ((1.5,), (0, 1.0, 2), (0, 1, 2.0), (1, 0, 0, 2.0),
                     (Fraction(1, 2),)):
            with pytest.raises(TypeError):
                Surd(*args)
        with pytest.raises(TypeError):
            Surd(0, 1, 2) < 1.5

    def test_compare_same_radicand(self):
        assert Surd(0, 1, 2) < Surd(0, 2, 2)
        assert Surd(1, 1, 2) > Surd(2)
        assert surd_compare(Surd(0, 1, 2), Fraction(3, 2)) < 0

    def test_compare_two_radicands(self):
        # sqrt(2) + 1 vs sqrt(6): 2.4142 < 2.4495
        assert Surd(1, 1, 2) < Surd(0, 1, 6)
        # sqrt(3) vs sqrt(2): mixed radicands
        assert Surd(0, 1, 3) > Surd(0, 1, 2)
        # 2*sqrt(3) vs 1 + sqrt(5): 3.4641 > 3.2361
        assert Surd(0, 2, 3) > Surd(1, 1, 5)
        # equality across radicands: 2*sqrt(2) = sqrt(8)
        assert Surd(0, 2, 2) == Surd(0, 1, 8)

    @given(e1=surd_ints, e2=surd_ints)
    @settings(max_examples=300)
    def test_compare_matches_high_precision(self, e1, e2):
        s1 = Surd(*e1)
        s2 = Surd(*e2)

        def dec(e):
            p, q, n, d = map(Decimal, e)
            return (p + q * n.sqrt()) / d

        # Values reach ~10^24; 100 digits leave ~75 below the 10^-40 cutoff.
        with localcontext() as ctx:
            ctx.prec = 100
            f1 = dec(e1)
            f2 = dec(e2)
            if abs(f1 - f2) > Decimal(10) ** -40:
                expected = 1 if f1 > f2 else -1
                assert surd_compare(s1, s2) == expected

    @given(e=st.tuples(st.integers(-10**400, 10**400),
                       st.integers(-10**400, 10**400),
                       st.integers(0, 10**800), st.integers(1, 10**400)))
    @example(e=(0, 1, 10**400, 1))                  # sqrt(n) leaves float range
    @example(e=(-(10**200), 1, 10**400 + 1, 1))     # ... and cancels to 5e-201
    @example(e=(-(10**20), 1, 10**40 + 1, 1))       # cancels to 5e-21
    @example(e=(-(10**308), 2 * 10**154, 10**308 + 1, 1))  # 1e308
    @example(e=(10**20, -(10**180), 10**300 + 7, 10**170))
    @example(e=(10**400, 0, 0, 3))                  # beyond float range
    @example(e=(-(10**400), 0, 0, 3))
    @example(e=(0, -(10**10), 10**700, 1))
    @example(e=(1, 1, 2**2048 + 1, 2**1030))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_float_never_overflows(self, e):
        # float(Surd) is within 1e-15 of the value, or +-inf beyond float
        # range, with no step overflowing or cancelling
        x = float(Surd(*e))
        with localcontext() as ctx:
            ctx.prec = 2500
            p, q, n, d = map(Decimal, e)
            ref = (p + q * n.sqrt()) / d
        if abs(ref) > Decimal(sys.float_info.max):
            assert x == (math.inf if ref > 0 else -math.inf)
        elif abs(ref) >= Decimal(sys.float_info.min):
            assert abs(Decimal(x) - ref) <= Decimal(1e-15) * abs(ref), (x, ref)

    @staticmethod
    def _cancelling(bits, seed):
        """(p, q, n, d) whose p*2^64 + q*isqrt(n*4^64) keeps about `bits`
        bits: p = -q*m and n = m^2 + c, so the value is
        q*(sqrt(m^2 + c) - m)/d, near q*c/(2*m*d)."""
        rng = random.Random(seed)
        m = rng.randrange(2**70, 2**90)
        c = max(1, (2 * m * rng.randrange(2**bits, 2**(bits + 1))) >> 64)
        q = rng.randrange(1, 50) * rng.choice((1, -1))
        return -q * m, q, m * m + c, rng.randrange(1, 10**6)

    def test_float_of_a_partly_cancelled_value(self):
        # sqrt(10^20 + 1) - 10^10 = 5e-11 leaves 30 bits at k = 64
        assert quadfield._float(-10**10, 1, 10**20 + 1, 1) == 5e-11

    @pytest.mark.parametrize("bits", [8, 12, 20, 28, 36, 44, 53])
    def test_float_past_partial_cancellation(self, bits):
        # At k = 64 the cancellation leaves 8 to 53 bits of the numerator,
        # fewer than the 64 `_float` waits for: a weaker stopping test would
        # divide an estimate off by up to |q| in its last bits.
        for seed in range(4):
            p, q, n, d = self._cancelling(bits, 1000 * bits + seed)
            r = math.isqrt(n << 128)
            assert 2**(bits - 2) <= abs((p << 64) + q * r) < 2**(bits + 8)
            x = quadfield._float(p, q, n, d)
            with localcontext() as ctx:
                ctx.prec = 200
                ref = (Decimal(p) + Decimal(q) * Decimal(n).sqrt()) / d
            assert abs(Decimal(x) - ref) <= Decimal(math.ulp(x)), (x, ref)

    @pytest.mark.parametrize("e", [
        (-14964701668033728809500328686114, 7164216435451278475500253942675,
         10, 1),
        (-26176976141320411191751281131782, 2512140400421117248366275603332,
         139, 1),
    ])
    def test_float_next_to_a_rounding_midpoint(self, e):
        # At k = 64 the numerator is within 2^-64 of the value's, and the
        # value lies closer than that to a midpoint between two floats: a
        # stop on accuracy alone rounds to the float on the wrong side.
        assert float(Surd(*e)) == quadfield._float(*e) == _decimal_float(*e)

    def test_hash_agrees_with_eq(self):
        assert len({Surd(0, 2, 2), Surd(0, 1, 8)}) == 1
        assert hash(Surd(3, 0, 0, 2)) == hash(Fraction(3, 2))
        assert hash(Surd(0, 1, 9, 2)) == hash(Fraction(3, 2))
        assert hash(Surd(1, 1, 4)) == hash(3)
        assert len({Surd(0, 1, 2), Surd(0, -1, 2), Surd(0, 1, 3)}) == 3

    @given(p=surd_numerators, q=surd_numerators,
           m=st.integers(min_value=2, max_value=10**6),
           d=st.integers(min_value=1, max_value=10**6),
           k=st.integers(min_value=2, max_value=1000))
    @settings(max_examples=200, derandomize=True)
    def test_equal_irrational_surds_hash_alike(self, p, q, m, d, k):
        # (p + q*k*sqrt(m))/d = (p + q*sqrt(m*k^2))/d
        #                     = (p*k + q*k*sqrt(m*k^2))/(d*k)
        forms = [Surd(p, q * k, m, d), Surd(p, q, m * k * k, d),
                 Surd(p * k, q * k, m * k * k, d * k)]
        for s in forms[1:]:
            assert s == forms[0] and hash(s) == hash(forms[0])


# Ends (p, q, n, d) of (p + q*sqrt(n))/d for `quadfield._surd_sign`, which
# compares them unfolded: radicands are often perfect squares, and every
# equal pair below is written with other integers.
sign_ends = st.tuples(
    st.integers(-10**6, 10**6), st.integers(-1000, 1000),
    st.one_of(st.integers(0, 50), st.integers(0, 1000).map(lambda r: r * r),
              st.integers(0, 10**6)),
    st.integers(1, 1000))


@st.composite
def sign_cases(draw):
    """(s1, s2, equal): s2 is another drawn end (equal is None), or an end
    equal to s1 by construction (equal is True), or that end with its
    numerator moved by 1 (equal is False)."""
    p, q, n, d = draw(sign_ends)
    k = draw(st.integers(2, 30))
    r = draw(st.integers(0, 1000))
    kind = draw(st.sampled_from(
        ["other", "over k^2 n", "k inside", "square", "rational"]))
    if kind == "other":
        return (p, q, n, d), draw(sign_ends), None
    if kind == "over k^2 n":  # the same value over k^2*n and k*d
        s1, s2 = (p, q, n, d), (p * k, q, n * k * k, d * k)
    elif kind == "k inside":  # q*k*sqrt(n) against q*sqrt(k^2*n)
        s1, s2 = (p, q * k, n, d), (p, q, n * k * k, d)
    elif kind == "square":  # a perfect square radicand, folded in s2
        s1, s2 = (p, q, r * r, d), (p + q * r, 0, 0, d)
    else:  # a rational value carrying an unused radicand
        s1, s2 = (p, 0, n, d), (p * k, 0, r, d * k)
    move = draw(st.sampled_from([0, -1, 1]))
    return s1, (s2[0] + move, *s2[1:]), move == 0


def _decimal_sign(s1, s2) -> int:
    """Sign of s1 - s2 at 60 digits, or 0 when the two are within 10^-40."""
    with localcontext() as ctx:
        ctx.prec = 60
        x1, x2 = ((Decimal(p) + Decimal(q) * Decimal(n).sqrt()) / d
                  for p, q, n, d in (s1, s2))
        diff = x1 - x2
        return 0 if abs(diff) <= Decimal(10) ** -40 else (1 if diff > 0 else -1)


class TestSurdSign:
    @given(case=sign_cases())
    @settings(max_examples=600, derandomize=True, deadline=None)
    def test_sign_matches_decimal(self, case):
        s1, s2, equal = case
        if equal:
            expected = 0
        else:
            expected = _decimal_sign(s1, s2)
            assume(expected != 0)
        assert quadfield._surd_sign(s1, s2) == expected
        assert quadfield._surd_sign(s2, s1) == -expected
        assert surd_compare(Surd(*s1), Surd(*s2)) == expected

    def test_known_pairs(self):
        # The values reach ~10^9, so 60 digits leave ~50 below the cutoff.
        assert _decimal_sign((0, 1, 2, 1), (1414213562373, 0, 0, 10**12)) == 1
        assert _decimal_sign((0, 2, 2, 1), (0, 1, 8, 1)) == 0
        assert quadfield._surd_sign((0, 2, 2, 1), (0, 1, 8, 1)) == 0
        assert quadfield._surd_sign((3, 1, 4, 1), (5, 0, 0, 1)) == 0
        assert quadfield._surd_sign((0, 1, 9, 2), (1, 0, 7, 1)) == 1


# The algorithm that the reduced-form cycle walk replaced, kept as the
# reference: the first Pell unit of Z[sqrt(D)] from the continued fraction of
# sqrt(D) and, for D = 1 (mod 4), an integer cube-root descent to the
# half-integral unit whose cube it is.

def _ref_pell_unit(D):
    sq = math.isqrt(D)
    a, P, Q = sq, 0, 1  # complete quotient (P + sqrt(D))/Q with floor a
    h2, h1 = 1, a
    k2, k1 = 0, 1
    while abs(h1 * h1 - D * k1 * k1) != 1:
        P = a * Q - P
        Q = (D - P * P) // Q
        a = (P + sq) // Q
        h2, h1 = h1, a * h1 + h2
        k2, k1 = k1, a * k1 + k2
    return h1, k1


def _ref_icbrt(n):
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _ref_fundamental_unit(D):
    """(p, q, d) of eps = (p + q*sqrt(D))/d and of eps_plus."""
    x, y = _ref_pell_unit(D)
    eta = QuadElem(D, x, y)
    eps = eta
    if D % 4 == 1:
        # eps^3 = eta with eps = (t + u*sqrt(D))/2 gives t^3 - 3*N(eps)*t
        # = 2x, so t is within 1 of the cube root of 2x.
        t0 = _ref_icbrt(2 * x)
        for t in range(max(1, t0 - 2), t0 + 3):
            for s in (4, -4):
                num = t * t - s
                if num <= 0 or num % D != 0:
                    continue
                u = math.isqrt(num // D)
                if u * u != num // D:
                    continue
                cand = QuadElem(D, Fraction(t, 2), Fraction(u, 2))
                if abs(cand.norm()) == 1 and cand ** 3 == eta:
                    eps = cand
                    break
            if eps is not eta:
                break
    eps_plus = eps if eps.norm() == 1 else eps * eps
    return (eps.p, eps.q, eps.d), (eps_plus.p, eps_plus.q, eps_plus.d)


class TestFundamentalUnitAgainstPell:
    @staticmethod
    def _ints(D):
        eps, eps_plus = fundamental_unit(D)
        return (eps.p, eps.q, eps.d), (eps_plus.p, eps_plus.q, eps_plus.d)

    def test_every_small_field(self):
        checked = 0
        for D in range(2, 10**4):
            if is_squarefree(D):
                assert self._ints(D) == _ref_fundamental_unit(D), D
                checked += 1
        assert checked == 6082

    @pytest.mark.parametrize("D", [9999991, 20833961])
    def test_large_fields(self, D):
        # 9999991: a unit of 4153 digits; 20833961: N(eps) = -1 and a
        # principal cycle of more than 10,000 forms.
        assert self._ints(D) == _ref_fundamental_unit(D)

    def test_conjugate_column_is_inverted(self, monkeypatch):
        # The column of the conjugate unit, x + y*b and -y for the principal
        # form (1, b, c), gives +-1/eps: the sign and the inverse still
        # return eps.
        expected = {D: self._ints(D) for D in (2, 3, 5, 13, 139, 141)}
        true_walk = quadfield._rho_walk

        def conjugated(f):
            for g, x, y in true_walk(f):
                yield g, x + f[1] * y, -y

        monkeypatch.setattr(quadfield, "_rho_walk", conjugated)
        for D, ints in expected.items():
            assert self._ints(D) == ints, D

    def test_bad_column_is_caught(self, monkeypatch):
        true_walk = quadfield._rho_walk

        def shifted(f):
            for g, x, y in true_walk(f):
                yield g, x, y + 1

        monkeypatch.setattr(quadfield, "_rho_walk", shifted)
        for D in (2, 5, 13, 139):
            with pytest.raises(CertificateError):
                fundamental_unit(D)


def test_runs_without_sympy_mpmath_and_numpy():
    # None is a runtime dependency: block all three imports in a fresh process.
    script = textwrap.dedent("""
        import sys
        sys.modules["mpmath"] = sys.modules["numpy"] = None
        sys.modules["sympy"] = None
        from quadtwist.applications import tau_min_search
        from quadtwist.cli import main
        from quadtwist.ideals import ring_of_integers
        from quadtwist.quadfield import check_field, fundamental_unit
        D = (10**6 + 3) * 1000033
        assert check_field(D) == D
        eps, eps_plus = fundamental_unit(5)
        assert (eps.p, eps.q, eps.d) == (1, 1, 2) and eps_plus == eps * eps
        tau_min_search(ring_of_integers(5))
        assert main(["survey", "13", "10"]) == 0
    """)
    proc = run_python("-c", script, capture_output=True, text=True,
                      timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestHypothesisProfile:
    def test_loaded_profile_is_derandomized(self):
        # tests/conftest.py loads it; a @settings without derandomize
        # inherits it from the default
        assert settings.default.derandomize
        assert settings(max_examples=300).derandomize
