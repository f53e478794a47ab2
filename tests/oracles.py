"""Independent oracles, one per exact kernel of quadtwist: each works on
plain ints and Fractions by a method of its own.  This module imports
nothing from quadtwist, nor from `support`, which imports it, and each of
its public defs is read by a test module (`test_source_rules.py`).

A field element x + y*sqrt(D) is a pair (x, y) of ints or Fractions, a
form or a Gram matrix a triple, and [[a, b], [c, d]] the tuple
(a, b, c, d).
"""

import math
from fractions import Fraction


def lagrange(g11, g12, g22):
    """Lagrange-Gauss reduction of [[g11, g12], [g12, g22]], on ints or
    Fractions: the triple with 0 <= 2*r12 <= r11 <= r22, the transform
    whose columns are the reduced basis, and the number of steps
    v2 <- v2 - r*v1.  It runs on the integers over the common denominator,
    with r = floor(g12/g11 + 1/2) less 1 at an odd tie: half to even."""
    den = math.lcm(g11.denominator, g12.denominator, g22.denominator)
    n11, n12, n22 = ((g * den).numerator for g in (g11, g12, g22))
    a, b, c, d, steps = 1, 0, 0, 1, 0
    while True:
        if n11 > n22:
            n11, n22, a, b, c, d = n22, n11, b, a, d, c
        if 2 * abs(n12) <= n11:
            break
        r, twice_rem = divmod(2 * n12 + n11, 2 * n11)
        r -= twice_rem == 0 and r % 2 == 1
        n12, n22 = n12 - r * n11, n22 - 2 * r * n12 + r * r * n11
        b, d, steps = b - r * a, d - r * c, steps + 1
    if n12 < 0:
        n12, b, d = -n12, -b, -d
    reduced = (n11, n12, n22)
    if not isinstance(g11 + g12 + g22, int):  # Fractions in, Fractions out
        reduced = tuple(Fraction(n, den) for n in reduced)
    return reduced, (a, b, c, d), steps


def congruence(g, U):
    """U^t G U: the Gram triple of the basis whose columns U holds."""
    (g11, g12, g22), (a, b, c, d) = g, U
    return (g11 * a * a + 2 * g12 * a * c + g22 * c * c,
            g11 * a * b + g12 * (a * d + b * c) + g22 * c * d,
            g11 * b * b + 2 * g12 * b * d + g22 * d * d)


def rho(f):
    """One rho step of (A, B, C) of non-square discriminant dk > 0, with the
    s of its transform [[0, -1], [1, s]]: (C, r, (r^2 - dk)/(4C)) for
    r = -B (mod 2|C|) in (isqrt(dk) - 2|C|, isqrt(dk)] when C^2 < dk and in
    (-|C|, |C|] otherwise.  It permutes the reduced forms of a class in one
    cycle, which every walk of the class enters."""
    A, B, C = f
    dk = B * B - 4 * A * C
    s, c2 = math.isqrt(dk), 2 * abs(C)
    if C * C < dk:
        r = s - (s + B) % c2
    else:
        r = -B % c2
        r -= c2 if r > abs(C) else 0
    return (C, r, (r * r - dk) // (4 * C)), (B + r) // (2 * C)


def rho_cycle(f):
    """The set of forms of the rho cycle that the walk from f enters."""
    order = {}
    while f not in order:
        order[f], f = len(order), rho(f)[0]
    return set(list(order)[order[f]:])


def fundamental_unit(D):
    """(p, q, d) in lowest terms of the fundamental unit (p + q*sqrt(D))/d
    > 1 of Q(sqrt(D)) and of the least totally positive unit.  The first
    convergent h/k of the continued fraction of w = (P0 + sqrt(D))/Q0, the
    generator of the ring of integers, with |N(h - k*conj(w))| = 1 gives
    the unit h - k*conj(w)."""
    P0, Q0 = (1, 2) if D % 4 == 1 else (0, 1)
    P, Q, r = P0, Q0, math.isqrt(D)
    h, h0, k, k0 = 1, 0, 0, 1
    while True:
        a = (P + r) // Q  # the complete quotient (P + sqrt(D))/Q, floored
        h, h0, k, k0 = a * h + h0, h, a * k + k0, k
        p, q = Q0 * h - k * P0, k
        if abs(p * p - D * q * q) == Q0 * Q0:
            break
        P = a * Q - P
        Q = (D - P * P) // Q
    eps = _lowest(p, q, Q0)
    if p * p - D * q * q == Q0 * Q0:
        return eps, eps
    return eps, _lowest(p * p + D * q * q, 2 * p * q, Q0 * Q0)


def _lowest(p, q, d):
    g = math.gcd(p, q, d)
    return p // g, q // g, d // g


def mul(x, y, D):
    return (x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def inverse(x, D):
    n = x[0] * x[0] - D * x[1] * x[1]
    return (Fraction(x[0], n), Fraction(-x[1], n))


def basis(D, a, b, g):
    """The canonical basis (a, b + g*delta) of (D; a, b, g) as pairs, for
    delta = (1 - sqrt(D))/2 when D = 1 (mod 4) and -sqrt(D) otherwise."""
    if D % 4 == 1:
        return (a, 0), (b + Fraction(g, 2), Fraction(-g, 2))
    return (a, 0), (b, -g)


def twist_gram(D, z, alpha):
    """The Gram triple trace(alpha*z_i*z_j) of the basis z twisted by alpha;
    the trace of x + y*sqrt(D) is 2x."""
    z1, z2 = z
    return tuple(2 * mul(mul(alpha, u, D), v, D)[0]
                 for u, v in ((z1, z1), (z1, z2), (z2, z2)))


def norm_form(x, y, D):
    """(N(x), trace(x*conj(y)), N(y)), the coefficients of N(X*x + Y*y)."""
    return (x[0] * x[0] - D * x[1] * x[1], 2 * (x[0] * y[0] - D * x[1] * y[1]),
            y[0] * y[0] - D * y[1] * y[1])


def F(x, y, D, n):
    """N(x)^2 + N(y)^2 + N(x)N(y) - n^2*Delta/4 for a basis (x, y) of an
    ideal of norm n; ValueError unless (x*conj(y) - conj(x)*y)^2, that is
    4D(x1*y0 - x0*y1)^2, is n^2 times the discriminant Delta.  It runs on
    the integers of e*x and e*y, e the common denominator."""
    e = math.lcm(*(v.denominator for v in (*x, *y)))
    x, y = ([(v * e).numerator for v in z] for z in (x, y))
    dk, e4 = (D if D % 4 == 1 else 4 * D), e ** 4
    if 4 * D * (x[1] * y[0] - x[0] * y[1]) ** 2 != n * n * dk * e4:
        raise ValueError("pair is not a basis of the ideal")
    A, _, C = norm_form(x, y, D)
    return Fraction(4 * (A * A + C * C + A * C) - n * n * dk * e4, 4 * e4)


def surd_sign(x, y=0, m=0, z=0, n=0):
    """The sign of x + y*sqrt(m) + z*sqrt(n), for ints or Fractions x, y, z
    and ints m, n >= 0.  Integer square roots bound 2^k times the value, k
    doubling until the bounds leave out 0.  Where they do not at once, the
    value is tested for 0: with u = x + y*sqrt(m), it is 0 exactly when
    u^2 = z^2*n, a test on one radical, and u has the sign of -z."""
    scale = math.lcm(x.denominator, y.denominator, z.denominator)
    x, y, z = (x * scale).numerator, (y * scale).numerator, (z * scale).numerator
    terms = [(v, r) for v, r in ((y, m), (z, n)) if v and r]
    k = 64
    while True:
        lo = hi = x << k
        for v, r in terms:
            t = v * v * r << 2 * k
            root = math.isqrt(t)
            up = root + (root * root != t)  # root <= |v|*sqrt(r)*2^k <= up
            lo, hi = (lo + root, hi + up) if v >= 0 else (lo - up, hi - root)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        a, b = x * x + y * y * m - z * z * n, 2 * x * y  # u^2 - z^2*n
        if k == 64 and a * a == b * b * m and a * b <= 0 and (
                z * z * n == 0 or surd_sign(x, y, m) != (z > 0) - (z < 0)):
            return 0
        k *= 2


def surd_cmp(s1, s2):
    """The sign of s1 - s2 for s = (p, q, n, d) = (p + q*sqrt(n))/d, d > 0."""
    (p1, q1, n1, d1), (p2, q2, n2, d2) = s1, s2
    return surd_sign(p1 * d2 - p2 * d1, q1 * d2, n1, -q2 * d1, n2)
