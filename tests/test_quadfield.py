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
from support import embedding, power, run_python
import oracles

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


def _seeded_primes(seed, k):
    """k distinct primes in (1024, 10^6) drawn from a seeded generator,
    each confirmed by trial division."""
    rng = random.Random(seed)
    primes = set()
    while len(primes) < k:
        n = rng.randrange(1025, 10 ** 6)
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            primes.add(n)
    return sorted(primes)


# pairs of primes above the 1024 that is_squarefree's gcd covers
_SEEDED_PRIME_PAIRS = list(zip(*[iter(_seeded_primes(0, 6))] * 2))


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
        # either side of 1024, where the gcd hands over to trial division
        for p in (1019, 1021, 1031, 1033):
            assert is_squarefree(p)
            assert not is_squarefree(p * p)
        assert is_squarefree(1021 * 1031)
        assert not is_squarefree(2 * 3 * 1021 * 1021)
        # 1021 is left to the gcd alone: no trial division below 1031^3
        assert not is_squarefree(1021 * 1021 * 1033)
        # past 1031^3, so the trial division runs
        assert not is_squarefree(1031 * 1031 * 1033 * 1039)

    @pytest.mark.parametrize("p, q", [(1000003, 1000033), (999983, 1000003),
                                      (1000033, 999983)] + _SEEDED_PRIME_PAIRS)
    @pytest.mark.parametrize("r", [1, 2, 3, 30, 997, 2 * 3 * 5 * 7 * 11 * 13])
    def test_products_of_large_primes(self, p, q, r):
        # distinct primes above 1024, the seeded ones below 10^6, and r
        # squarefree below them, so the answer is known from the factors
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
        assert z + -w == QuadElem(2, 0, 2)
        assert z.norm() == -1
        assert z.conjugate() == w
        # rational coordinates go over one denominator
        z = QuadElem(5, Fraction(1, 2), 3)
        assert (z.p, z.q, z.d) == (1, 6, 2)
        assert QuadElem(5, 1, Fraction(4, 2)) == QuadElem(5, Fraction(1), 2)

    def test_inverse_and_division(self):
        z = QuadElem(7, 3, 1)
        assert z * z.inverse() == QuadElem(7, 1, 0)
        with pytest.raises(ZeroDivisionError):
            QuadElem(7, 0, 0).inverse()

    def test_pow(self):
        # powers of 1 + sqrt(2) spelled as repeated *, on the inverse for
        # k < 0: (1 + sqrt(2))^3 = 7 + 5 sqrt(2), (1 + sqrt(2))^-2 =
        # 3 - 2 sqrt(2) as N(1 + sqrt(2)) = -1; z ** k is gone
        z = QuadElem(2, 1, 1)
        assert power(z, 0) == QuadElem(2, 1, 0)
        assert power(z, 3) == z * z * z == QuadElem(2, 7, 5)
        assert power(z, -2) == (z * z).inverse() == QuadElem(2, 3, -2)
        for k in (0, 3, -2):
            with pytest.raises(TypeError):
                z ** k

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
        assert embedding(eps, 2) == small \
            == _decimal_float(eps.p, -eps.q, D, eps.d)
        assert embedding(eps, 1) == _decimal_float(eps.p, eps.q, D, eps.d)

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
            assert embedding(z, 1) == _decimal_float(p, q, D, d), z
            assert embedding(z, 2) == _decimal_float(p, -q, D, d), z

    def test_embed_beyond_float_range(self):
        # the integers give +-inf, or the finite value when the two terms
        # cancel
        assert embedding(QuadElem(2, 10**400), 1) == math.inf
        assert embedding(QuadElem(2, 0, 10**400), 2) == -math.inf
        assert embedding(QuadElem(2, 10**308, 10**308), 1) == math.inf
        p = math.isqrt(2 * 10**800)
        z = QuadElem(2, p, -(10**400))
        assert embedding(z, 2) == math.inf
        with localcontext() as ctx:
            ctx.prec = 1000
            ref = Decimal(p) - Decimal(10**400) * Decimal(2).sqrt()
        assert abs(Decimal(embedding(z, 1)) - ref) <= Decimal(1e-15) * abs(ref)

    @given(x=rationals, y=rationals, D=small_D)
    def test_trace_and_norm_via_conjugate(self, x, y, D):
        z = QuadElem(D, x, y)
        assert z + z.conjugate() == QuadElem(D, 2 * x, 0)
        assert (z * z.conjugate()).x == z.norm()
        assert (z * z.conjugate()).y == 0


class TestQuadElemAgainstPairs:
    coords = st.one_of(rationals, big_rationals)

    @given(x1=coords, y1=coords, x2=coords, y2=coords, c=rationals,
           f=st.fractions(min_value=-1, max_value=1, max_denominator=50),
           k=st.integers(min_value=-4, max_value=4), D=small_D)
    @settings(max_examples=300)
    def test_matches_fraction_pairs(self, x1, y1, x2, y2, c, f, k, D):
        a, b = (x1, y1), (x2, y2)
        z, w = QuadElem(D, x1, y1), QuadElem(D, x2, y2)

        def pair(e):
            assert e.d > 0 and math.gcd(e.p, e.q, e.d) == 1  # canonical
            return (e.x, e.y)

        assert pair(z) == a
        assert pair(z + w) == (x1 + x2, y1 + y2)
        assert pair(z + -w) == (x1 - x2, y1 - y2)
        assert pair(z * w) == oracles.mul(a, b, D)
        assert pair(z * c) == pair(c * z) == (x1 * c, y1 * c)
        assert pair(c + -z) == (c - x1, -y1)
        assert pair(z.conjugate()) == (x1, -y1)
        assert pair(-z) == (-x1, -y1)
        assert z.norm() == x1 * x1 - D * y1 * y1
        # an element of negative norm: |x| <= |y| < sqrt(D)|y|
        neg = (f * (y2 or 1), y2 or 1)
        m = QuadElem(D, *neg)
        assert m.norm() < 0
        assert pair(m.inverse()) == oracles.inverse(neg, D)
        assert pair(z * m.inverse()) == \
            oracles.mul(a, oracles.inverse(neg, D), D)
        if b == (0, 0):
            with pytest.raises(ZeroDivisionError):
                w.inverse()
        else:
            assert pair(w.inverse()) == oracles.inverse(b, D)
            assert pair(z * w.inverse()) == \
                oracles.mul(a, oracles.inverse(b, D), D)
            assert pair(c * w.inverse()) == \
                oracles.mul((c, 0), oracles.inverse(b, D), D)
        w_k = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            w_k = oracles.mul(w_k, b, D)
        if k < 0 and b == (0, 0):
            with pytest.raises(ZeroDivisionError):
                power(w, k)
        else:
            assert pair(power(w, k)) == \
                (w_k if k >= 0 else oracles.inverse(w_k, D))
        sign = oracles.surd_sign(x1 - x2, y1 - y2, D)
        assert ((z < w), (z <= w), (z > w), (z >= w)) == \
            (sign < 0, sign <= 0, sign > 0, sign >= 0)
        assert (z < c) == (oracles.surd_sign(x1 - c, y1, D) < 0)
        assert (z == w) == (a == b)
        # equal values built different ways are equal and hash alike
        if b != (0, 0):
            back = (z * w) * w.inverse()
            assert back == z and hash(back) == hash(z)
        assert pickle.loads(pickle.dumps(z)) == z
        d = math.lcm(x1.denominator, y1.denominator)
        p, q = int(x1 * d), int(y1 * d)
        assert embedding(z, 1) == _decimal_float(p, q, D, d)
        assert embedding(z, 2) == _decimal_float(p, -q, D, d)
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
    lambda: surd_compare(Surd(0, 1, 2), 1.5),
    lambda: Interval(Surd(0, 1, 2), None).contains(1.5),
], ids=["QuadElem", "Surd", "Interval.contains"])
def test_ordering_against_a_float_is_a_type_error(compare):
    with pytest.raises(TypeError):
        compare()


def _pair(e):
    return (e.x, e.y)


def _pqnd(e):
    """The integers (p, q, n, d) of an element as a Surd."""
    return (e.p, e.q, e.D, e.d)


def _check_sub(z, w):
    assert _pair(z + -w) == (z.x - w.x, z.y - w.y)
    assert _pair(3 + -z) == (3 - z.x, -z.y)


def _check_truediv(z, w):
    assert _pair(z * w.inverse()) == \
        oracles.mul(_pair(z), oracles.inverse(_pair(w), z.D), z.D)
    assert _pair(3 * w.inverse()) == \
        oracles.mul((3, 0), oracles.inverse(_pair(w), z.D), z.D)


def _check_pow(z, w):
    w_k = (Fraction(1), Fraction(0))
    for k in range(4):
        assert _pair(power(w, k)) == w_k
        assert _pair(power(w, -k)) == oracles.inverse(w_k, z.D)
        w_k = oracles.mul(w_k, _pair(w), z.D)


def _check_abs(z, w):
    sign = oracles.surd_cmp(_pqnd(z), (0, 0, 0, 1))
    assert _pair(-z if z < 0 else z) == \
        (_pair(z) if sign >= 0 else (-z.x, -z.y))


def _check_float_embed(z, w):
    assert float(Surd(z.p, z.q, z.D, z.d)) == _decimal_float(*_pqnd(z))
    assert float(Surd(z.p, -z.q, z.D, z.d)) == \
        _decimal_float(z.p, -z.q, z.D, z.d)


def _check_surd_order(z, w):
    s, t = Surd(*_pqnd(z)), Surd(*_pqnd(w))
    sign = oracles.surd_cmp(_pqnd(z), _pqnd(w))
    assert (surd_compare(s, t) < 0, surd_compare(s, t) <= 0,
            surd_compare(s, t) > 0, surd_compare(s, t) >= 0) == \
        (sign < 0, sign <= 0, sign > 0, sign >= 0)
    assert (surd_compare(s, 3) < 0) == \
        (oracles.surd_cmp(_pqnd(z), (3, 0, 0, 1)) < 0)


_EXPONENTS = [2, 0, -2, True, 2.0, -1.0, Fraction(2), "2"]
_EMBEDDING_INDICES = [1, 2, 0, 3, -1, True, 1.0, "1"]

# README's "Removed names" rows for the two exact value types: the spellings
# that are gone, each with the error it raises now, and the check of the
# row's replacement on seeded elements (z, w) of Q(sqrt(D)).
REMOVED_SPELLINGS = {
    "sub": ([(lambda z, w: z - w, TypeError),
             (lambda z, w: z - 1, TypeError),
             (lambda z, w: 1 - z, TypeError),
             (lambda z, w: Fraction(1, 2) - z, TypeError)], _check_sub),
    "truediv": ([(lambda z, w: z / w, TypeError),
                 (lambda z, w: z / 2, TypeError),
                 (lambda z, w: 1 / z, TypeError),
                 (lambda z, w: Fraction(1, 2) / z, TypeError)], _check_truediv),
    "pow": ([(lambda z, w, k=k: z ** k, TypeError) for k in _EXPONENTS]
            + [(lambda z, w: pow(z, 2), TypeError)], _check_pow),
    "abs": ([(lambda z, w: abs(z), TypeError)], _check_abs),
    "float_embed": ([(lambda z, w: float(z), TypeError)]
                    + [(lambda z, w, i=i: z.embed(i), AttributeError)
                       for i in _EMBEDDING_INDICES], _check_float_embed),
    "surd_order": ([(lambda z, w: Surd(1) < Surd(2), TypeError),
                    (lambda z, w: Surd(1) <= Surd(2), TypeError),
                    (lambda z, w: Surd(1) > Surd(2), TypeError),
                    (lambda z, w: Surd(1) >= Surd(2), TypeError),
                    (lambda z, w: Surd(0, 1, 2) < 2, TypeError),
                    (lambda z, w: Fraction(1, 2) >= Surd(0, 1, 2), TypeError)],
                   _check_surd_order),
}


@pytest.mark.parametrize("row", sorted(REMOVED_SPELLINGS))
def test_removed_spelling_and_its_replacement(row):
    removed, check = REMOVED_SPELLINGS[row]
    rng = random.Random(row)
    for _ in range(40):
        D = rng.choice([2, 3, 5, 7, 13, 139, 141, 9999991])
        # nonzero y: w is no zero of the field, so w.inverse() exists
        x1, y1, x2, y2 = (Fraction(rng.randint(-10**9, 10**9) or 1,
                                   rng.randint(1, 10**4)) for _ in range(4))
        z, w = QuadElem(D, x1, y1), QuadElem(D, x2, y2)
        for call, error in removed:
            with pytest.raises(error):
                call(z, w)
        check(z, w)


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


class TestSurd:
    def test_canonical_form(self):
        s = Surd(1, 2, 4)  # 1 + 2*sqrt(4) = 5
        assert (s.p, s.q, s.n, s.d) == (5, 0, 0, 1) and s == 5
        assert Surd(0, 1, 9, 2) == Fraction(3, 2)
        with pytest.raises(ValueError):
            Surd(0, 1, -2)

    def test_rejects_non_ints(self):
        # A float would make the exact sign tests run on float arithmetic;
        # the constructor's refusals are checked in tests/test_type_gate.py.
        with pytest.raises(TypeError):
            surd_compare(Surd(0, 1, 2), 1.5)

    def test_compare_same_radicand(self):
        assert surd_compare(Surd(0, 1, 2), Surd(0, 2, 2)) < 0
        assert surd_compare(Surd(1, 1, 2), Surd(2)) > 0
        assert surd_compare(Surd(0, 1, 2), Fraction(3, 2)) < 0

    def test_compare_two_radicands(self):
        # sqrt(2) + 1 vs sqrt(6): 2.4142 < 2.4495
        assert surd_compare(Surd(1, 1, 2), Surd(0, 1, 6)) < 0
        # sqrt(3) vs sqrt(2): mixed radicands
        assert surd_compare(Surd(0, 1, 3), Surd(0, 1, 2)) > 0
        # 2*sqrt(3) vs 1 + sqrt(5): 3.4641 > 3.2361
        assert surd_compare(Surd(0, 2, 3), Surd(1, 1, 5)) > 0
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
    @settings(max_examples=200, deadline=None)
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
    @settings(max_examples=200)
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
    @settings(max_examples=600, deadline=None)
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


class TestFundamentalUnitAgainstPell:
    @staticmethod
    def _ints(D):
        eps, eps_plus = fundamental_unit(D)
        return (eps.p, eps.q, eps.d), (eps_plus.p, eps_plus.q, eps_plus.d)

    def test_every_small_field(self):
        checked = 0
        for D in range(2, 10**4):
            if is_squarefree(D):
                assert self._ints(D) == oracles.fundamental_unit(D), D
                checked += 1
        assert checked == 6082

    @pytest.mark.parametrize("D", [9999991, 20833961])
    def test_large_fields(self, D):
        # 9999991: a unit of 4153 digits; 20833961: N(eps) = -1 and a
        # principal cycle of more than 10,000 forms.
        assert self._ints(D) == oracles.fundamental_unit(D)

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


@pytest.mark.parametrize("seed", range(6))
def test_frac_is_the_constructor_fraction(seed):
    # _frac writes the two slots of Fraction itself; in type, value, repr,
    # hash and pickle it must be Fraction(n, d)
    rng = random.Random(seed)
    cases = [(0, 1), (-7, 1), (7, 1), (-6, 4), (10 ** 3999, 10 ** 3998)]
    for digits in (1, 20, 4000):
        for _ in range(10):
            # a common factor; repr and pickle print the ints, so every
            # value stays below the 4,300 digits str(int) prints
            g = rng.randint(1, 10 ** rng.randint(1, min(digits, 200)))
            n = rng.randint(-10 ** digits, 10 ** digits) * rng.choice([1, g])
            d = rng.choice([1, rng.randint(1, 10 ** digits) * g])
            cases.append((n, d))
    for n, d in cases:
        f, ref = quadfield._frac(n, d), Fraction(n, d)
        assert type(f) is Fraction and f == ref
        assert (f.numerator, f.denominator) == (ref.numerator, ref.denominator)
        assert repr(f) == repr(ref) and hash(f) == hash(ref)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(f, protocol=protocol)
            assert data == pickle.dumps(ref, protocol=protocol)
            assert pickle.loads(data) == ref
