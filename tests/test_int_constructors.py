"""The constructor contract of `Surd(p, q, n, d)` and
`Gram2(n11, n12, n22, den)`: each is built from the integers it holds.

The references below are test-local copies of the earlier constructors:
the integer `Surd.of_ints` with its square folding, and the rational
`Surd(u, v, m)` and `Gram2(g11, g12, g22)`, which took any value that
`Fraction` accepts.  They return the fields the constructed value held.
"""

import math
import pickle
import random
from fractions import Fraction

import pytest

from quadtwist.lattice2 import Gram2
from quadtwist.quadfield import Surd, surd_compare


def _ref_surd_ints(p, q, n, d):
    """Surd.of_ints(p, q, n, d): a perfect-square radicand folded into p."""
    if q == 0 or n == 0:
        return p, 0, 0, d
    r = math.isqrt(n)
    return (p + q * r, 0, 0, d) if r * r == n else (p, q, n, d)


def _ref_surd_rational(u, v, m):
    """Surd(u, v, m) for u + v*sqrt(m) on rationals: sqrt(a/b) = sqrt(a*b)/b."""
    u, v, m = Fraction(u), Fraction(v), Fraction(m)
    vd = v.denominator * m.denominator
    d = math.lcm(u.denominator, vd)
    return _ref_surd_ints(u.numerator * (d // u.denominator),
                          v.numerator * (d // vd), m.numerator * m.denominator, d)


def _ref_gram_rational(g11, g12, g22):
    """Gram2(g11, g12, g22) on rationals: the numerators over the least
    common denominator, or None when not positive definite."""
    g11, g12, g22 = Fraction(g11), Fraction(g12), Fraction(g22)
    den = math.lcm(g11.denominator, g12.denominator, g22.denominator)
    n11, n12, n22 = (g.numerator * (den // g.denominator)
                     for g in (g11, g12, g22))
    if n11 <= 0 or n11 * n22 - n12 * n12 <= 0:
        return None
    return n11, n12, n22, den


def _seeded_surd_ints(rng):
    p = rng.choice([0, rng.randint(-50, 50), rng.randint(-10**30, 10**30)])
    q = rng.choice([0, rng.randint(-50, 50), rng.randint(-10**30, 10**30)])
    n = rng.choice([0, rng.randint(1, 100), rng.randint(0, 10**6) ** 2,
                    rng.randint(0, 10**20)])
    d = rng.choice([1, rng.randint(1, 100), rng.randint(1, 10**20)])
    return p, q, n, d


def _seeded_gram_ints(rng):
    n11 = rng.choice([rng.randint(-5, 50), rng.randint(1, 10**20)])
    n12 = rng.choice([0, rng.randint(-50, 50), rng.randint(-10**20, 10**20)])
    n22 = rng.randint(-5, 50) + n12 * n12 // max(n11, 1)
    k = rng.choice([1, rng.randint(2, 12)])
    return n11 * k, n12 * k, n22 * k, rng.randint(1, 60) * k


@pytest.mark.parametrize("seed", range(4))
def test_surd_holds_what_the_earlier_constructors_held(seed):
    rng = random.Random(seed)
    for _ in range(500):
        p, q, n, d = _seeded_surd_ints(rng)
        s = Surd(p, q, n, d)
        assert (s.p, s.q, s.n, s.d) == _ref_surd_ints(p, q, n, d)
        # the rational constructor held the same value, in lowest terms
        t = Surd(*_ref_surd_rational(Fraction(p, d), Fraction(q, d), n))
        assert surd_compare(s, t) == 0 and s == t and hash(s) == hash(t)
        assert Surd(p) == p and Surd(p, q) == p and Surd(p, q, n) == \
            Surd(*_ref_surd_ints(p, q, n, 1))


@pytest.mark.parametrize("seed", range(4))
def test_gram2_holds_what_the_earlier_constructor_held(seed):
    rng = random.Random(seed)
    built = 0
    for _ in range(500):
        n11, n12, n22, den = _seeded_gram_ints(rng)
        ref = _ref_gram_rational(Fraction(n11, den), Fraction(n12, den),
                                 Fraction(n22, den))
        if ref is None:
            with pytest.raises(ValueError, match="not positive definite"):
                Gram2(n11, n12, n22, den)
            continue
        G = Gram2(n11, n12, n22, den)
        assert (G._n11, G._n12, G._n22, G._den) == ref
        assert (G.g11, G.g12, G.g22) == \
            (Fraction(n11, den), Fraction(n12, den), Fraction(n22, den))
        assert Gram2(n11, n12, n22) == Gram2(n11, n12, n22, 1)
        built += 1
    assert built > 250


def test_out_of_range_integers_raise_value_error():
    for args in ((0, 1, -2), (1, 0, 0, 0), (1, 1, 2, -3), (0, 0, -1, 1)):
        with pytest.raises(ValueError):
            Surd(*args)
    for args in ((2, 1, 2, 0), (2, 1, 2, -1), (1, 2, 1), (0, 0, 1),
                 (-1, 0, -1), (1, 1, 1, 5)):
        with pytest.raises(ValueError):
            Gram2(*args)


@pytest.mark.parametrize("seed", range(2))
def test_pickle_and_repr_round_trip(seed):
    rng = random.Random(seed)
    values = []
    while len(values) < 400:
        values.append(Surd(*_seeded_surd_ints(rng)))
        ints = _seeded_gram_ints(rng)
        if _ref_gram_rational(*(Fraction(n, ints[3]) for n in ints[:3])):
            values.append(Gram2(*ints))
    for x in values:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            y = pickle.loads(pickle.dumps(x, protocol=protocol))
            assert type(y) is type(x) and y == x and str(y) == str(x)
        y = eval(repr(x))
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
    assert repr(Surd(1, 2, 4, 3)) == "Surd(5, 0, 0, 3)"
    assert repr(Surd(-1, 3, 5, 2)) == "Surd(-1, 3, 5, 2)"
    assert repr(Gram2(4, 2, 6, 2)) == "Gram2(2, 1, 3, 1)"
