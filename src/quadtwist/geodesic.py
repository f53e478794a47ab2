"""Sampling the closed similarity-class orbit of an ideal lattice.

The similarity classes of the twists A(alpha)*L_K(I), alpha totally positive,
trace a closed curve in the fundamental domain; one period is parameterized
by s = sigma_1(alpha)/sigma_2(alpha) in [1, eps_plus^2).  The orbit is
walked in L = log s, which stays a float even when s and eps_plus do not:
`_log_ratio` reads L off the integers of alpha, and `_t_at` maps a target L
to a rational t > sqrt(D) on the grid 2^-k, returned as the ints
(numerator, 2^k) that the probes pass straight to the twist's pencil.  All
region flags are computed exactly from the rational Gram matrix at that t.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ideals import CanonicalIdeal
from .lattice2 import (
    SimilarityPoint,
    _reduce,
    _similarity_reduced,
    _stable_reduced,
    _twist_ints,
    _wr_reduced,
)
from .quadfield import (
    QuadElem,
    _discriminant,
    _is_square,
    _ints,
    _quad,
    _Record,
    check_field,
    fundamental_unit,
)

_LN2 = math.log(2)


class GeodesicSample(_Record):
    """One exactly-evaluated point of the orbit curve.

    s = sigma_1(alpha)/sigma_2(alpha) is a float reporting companion; it is
    math.inf where the ratio is beyond float range.  The exact order of the
    samples is carried by t = alpha.x, which falls as s grows.
    """

    _fields = ("s", "alpha", "tau", "is_wr", "is_stable")

    def __init__(self, s: float, alpha: QuadElem, tau: SimilarityPoint,
                 is_wr: bool, is_stable: bool):
        self.__dict__.update(s=s, alpha=alpha, tau=tau, is_wr=is_wr,
                             is_stable=is_stable)


def _log_ratio(alpha: QuadElem) -> float:
    """log(sigma_1(alpha)/sigma_2(alpha)) of a totally positive alpha.

    For alpha = (p + q*sqrt(D))/d and r = |q|*sqrt(D)/p < 1 the ratio is
    (1 + r)/(1 - r) = (p + |q|*sqrt(D))^2 / (p^2 - D*q^2), with the sign of
    q on the log.  Up to ratio 3 (r <= 1/2) that is 2*atanh(r); beyond, the
    log of the exact integer norm is taken (math.log never overflows on an
    int), so L is a float even where the ratio is not.
    """
    p, q, D = alpha.p, abs(alpha.q), alpha.D
    r = q / p * math.sqrt(D)
    if r <= 0.5:
        L = 2 * math.atanh(r)
    else:
        L = 2 * math.log1p(r) + math.log(p * p) - math.log(p * p - D * q * q)
    return L if alpha.q >= 0 else -L


def _t_at(D: int, L: float) -> tuple[int, int]:
    """Rational t > sqrt(D) whose t + sqrt(D) has log ratio L > 0, to float
    accuracy, as the ints (numerator, 2^k), not in lowest terms.

    The ratio is e^L at t = sqrt(D) + 2*sqrt(D)/(e^L - 1).  On the grid 2^-k
    with k = floor(L/log 2) + 64 the offset term is a float near 2^64 times
    2*sqrt(D)/(1 - e^-L), so its rounding costs no accuracy, and
    isqrt(D*4^k) + 1 > sqrt(D)*2^k keeps t above sqrt(D) exactly.
    """
    k = int(L / _LN2) + 64
    off = round(2 * math.sqrt(D) * math.exp(k * _LN2 - L) / -math.expm1(-L))
    return math.isqrt(D << 2 * k) + 1 + off, 1 << k


def _sample_at(I: CanonicalIdeal, alpha: QuadElem) -> GeodesicSample:
    """Exact orbit sample at a given totally positive alpha, from the reduced
    pencil integers of its twist: tau and both flags are ratios of them."""
    R = _reduce(*_twist_ints(I, alpha.p, alpha.q))[:3]
    try:
        s = math.exp(_log_ratio(alpha))
    except OverflowError:
        s = math.inf
    return GeodesicSample(s, alpha, _similarity_reduced(*R), _wr_reduced(*R),
                          _stable_reduced(*R))


def sample_orbit(I: CanonicalIdeal, n: int) -> list[GeodesicSample]:
    """n samples covering one unit period of the orbit.

    The target log ratios L = (k + 1/2)/n * log(eps_plus^2), k < n, are
    uniform in arclength; each is realized at the rational t = _t_at(D, L),
    where the Gram and all flags are exact.  t strictly decreases and every
    sample lies inside the period 1 < s < eps_plus^2.  alpha = t + sqrt(D)
    is built from the ints of t, and a sample runs on the pencil integers
    and builds only the Fractions it returns (`_sample_at`).  n must be an
    int (not a bool), else TypeError.
    """
    if not _ints(n):
        raise TypeError("n must be an int")
    if n < 1:
        raise ValueError("need n >= 1")
    D = I.D
    _, eps_plus = fundamental_unit(D)
    log_period = _log_ratio(eps_plus)
    samples = []
    for k in range(n):
        num, den = _t_at(D, log_period * (k + 0.5) / n)
        samples.append(_sample_at(I, _quad(D, num, den, den)))
    return samples


def F_invariant(x: QuadElem, y: QuadElem, I: CanonicalIdeal) -> Fraction:
    """Basis invariant N(x)^2 + N(y)^2 + N(x)N(y) - N(I)^2 * Delta_K / 4.

    (x, y) must be a basis of I, verified exactly by the determinant identity
    (sigma_1(x)sigma_2(y) - sigma_2(x)sigma_1(y))^2 = N(I)^2 * Delta_K.  With
    x = (p1 + q1*sqrt(D))/d1 and y = (p2 + q2*sqrt(D))/d2 the left side is
    4*D*(q1*p2 - p1*q2)^2 / (d1*d2)^2.
    """
    D = I.D
    if x.D != D or y.D != D:
        raise ValueError("mixed fields")
    target = I.norm() ** 2 * _discriminant(D)
    c = x.q * y.p - x.p * y.q
    dd = x.d * y.d
    if 4 * D * c * c != target * dd * dd:
        raise ValueError("pair is not a basis of the ideal")
    # N(x) = a1/b1 and N(y) = a2/b2 over b = b1*b2
    a1, b1 = x.p * x.p - D * x.q * x.q, x.d * x.d
    a2, b2 = y.p * y.p - D * y.q * y.q, y.d * y.d
    b = b1 * b2
    return Fraction(4 * (a1 * a1 * b2 * b2 + a2 * a2 * b1 * b1 + a1 * a2 * b)
                    - target * b * b, 4 * b * b)


def _in_cone_ints(P: int, Q: int, D: int, s: int, t: int) -> bool:
    """Exact membership of z = (P + Q*sqrt(D))/e, e > 0, in the cone
    1 <= |sigma_1(z)/sigma_2(z)| < eps_plus^2, for eps_plus = (s + t*sqrt(D))/f.

    The lower end is sigma_1(z)^2 >= sigma_2(z)^2, i.e. P*Q >= 0, since
    sigma_1(z)^2 - sigma_2(z)^2 = 4*P*Q*sqrt(D)/e^2.  As N(eps_plus) = 1,
    w = z*conj(eps_plus) = (p' + q'*sqrt(D))/(e*f) has ratio
    sigma_1(z)/sigma_2(z) / eps_plus^2, so the upper end is
    sigma_1(w)^2 < sigma_2(w)^2, i.e. p'*q' < 0: one multiply by the unit.
    """
    return P * Q >= 0 and (P * s - D * Q * t) * (Q * s - P * t) < 0


def _ideal_elements_in_cone(I: CanonicalIdeal, target: int,
                            eps_plus: QuadElem) -> list[tuple[int, int, int, int]]:
    """Nonzero z in I with 3*N(z)^2 <= target, one per unit orbit, as
    (P, Q, e, N(z)) with z = (P + Q*sqrt(D))/e, not in lowest terms.

    Representatives are taken in the cone 1 <= |sigma_1(z)/sigma_2(z)| <
    eps_plus^2.  A single rectangular coordinate box over the whole cone is
    infeasible for large units, so the cone is cut into ratio bands
    [lam^k, lam^(k+1)); each band fits in a small box that is scanned with a
    float prefilter, and every survivor is checked exactly.  The prefilter
    embeds the basis (a, z2) as float(a) and u/e +- (v/e)*sqrt(D), the one
    float expression of an element left, which the recorded answers rest
    on; M leaves float range before it does.  Bands overlap,
    so coefficient pairs already seen are skipped: (a, z2) is a basis, so
    the pair determines z, whose integers are read off
    z = cx*a + cy*(u + v*sqrt(D))/e without a gcd.
    """
    D, a = I.D, I.a
    u, v, e = I._uve
    ae, ee = a * e, e * e
    s, t = eps_plus.p, eps_plus.q
    M = math.sqrt(target / 3)  # bound on |N(z)|
    r, x, y = math.sqrt(D), u / e, v / e
    s1 = (float(a), x + y * r)
    s2 = (float(a), x - y * r)
    lam = 4.0
    n_bands = max(1, math.ceil(_log_ratio(eps_plus) / math.log(lam)))
    slack = 1.02
    seen: set[tuple[int, int]] = set()
    out = []
    for k in range(n_bands):
        # band: ratio in [lam^k, lam^(k+1)] => |sigma_1| <= B1, |sigma_2| <= B2
        B1 = math.sqrt(M) * lam ** ((k + 1) / 2) * slack
        B2 = math.sqrt(M) * lam ** (-k / 2) * slack
        for cxy in _points_in_embedding_box(s1, s2, B1, B2):
            if cxy in seen:
                continue
            seen.add(cxy)
            cx, cy = cxy
            P, Q = cx * ae + cy * u, cy * v
            n = (P * P - D * Q * Q) // ee
            if n != 0 and 3 * n * n <= target and _in_cone_ints(P, Q, D, s, t):
                out.append((P, Q, e, n))
    return out


def _points_in_embedding_box(s1, s2, B1: float, B2: float) -> list[tuple[int, int]]:
    """Integer (cx, cy) with |cx*s1[0] + cy*s1[1]| <= B1 and
    |cx*s2[0] + cy*s2[1]| <= B2.

    The box may be extremely anisotropic, so the embedding is rescaled to make
    it a unit square and the coefficients are enumerated against a
    float-reduced basis of the rescaled lattice (norm bound 2 covers the box).
    """
    # rescaled Gram: q(v) = (v.s1 / B1)^2 + (v.s2 / B2)^2
    def q(cx, cy):
        e1 = (cx * s1[0] + cy * s1[1]) / B1
        e2 = (cx * s2[0] + cy * s2[1]) / B2
        return e1 * e1 + e2 * e2

    q11, q22 = q(1, 0), q(0, 1)
    q12 = (s1[0] * s1[1] / (B1 * B1) + s2[0] * s2[1] / (B2 * B2))
    # float Lagrange reduction with integer transform u
    u = [[1, 0], [0, 1]]
    for _ in range(256):
        if q11 > q22:
            q11, q22 = q22, q11
            u[0][0], u[0][1] = u[0][1], u[0][0]
            u[1][0], u[1][1] = u[1][1], u[1][0]
        r = round(q12 / q11)
        if r == 0:
            break
        q22 = q22 - 2 * r * q12 + r * r * q11
        q12 = q12 - r * q11
        u[0][1] -= r * u[0][0]
        u[1][1] -= r * u[1][0]
    out = []
    # coefficient bound for q(v) <= 2 against a reduced basis: the basis
    # angle sine squared is >= 3/4, so |ci| <= sqrt(8 / (3 * qii))
    m1 = int(math.sqrt(8.0 / (3.0 * q11))) + 1 if q11 > 0 else 1
    m2 = int(math.sqrt(8.0 / (3.0 * q22))) + 1 if q22 > 0 else 1
    (u00, u01), (u10, u11) = u
    (s10, s11), (s20, s21) = s1, s2
    for c1 in range(-m1, m1 + 1):
        x0, y0 = c1 * u00, c1 * u10
        for c2 in range(-m2, m2 + 1):
            cx, cy = x0 + c2 * u01, y0 + c2 * u11
            e1 = cx * s10 + cy * s11
            if -B1 <= e1 <= B1:
                e2 = cx * s20 + cy * s21
                if -B2 <= e2 <= B2:
                    out.append((cx, cy))
    return out


def _first_basis(xs, ys, D: int, target: int):
    """The first (x, y) of xs times ys, each (p, q, d) for (p + q*sqrt(D))/d,
    that is a basis of an ideal with N(I)^2 * Delta_K = target, or None.

    The basis test of F_invariant on integers:
    4*D*(q1*p2 - p1*q2)^2 == target * (d1*d2)^2.
    """
    four_d = 4 * D
    for x in xs:
        p1, q1, d1 = x
        rhs = target * d1 * d1
        for y in ys:
            p2, q2, d2 = y
            c = q1 * p2 - p1 * q2
            if four_d * c * c == rhs * d2 * d2:
                return x, y
    return None


def wr_intersection_classes(I: CanonicalIdeal) -> tuple[int, set[Fraction]]:
    """Count and F-values of the basis classes with F(B) < 0 that a float
    band search finds.

    Every value reported is certified: `F_invariant` re-checks a basis of I
    that has it.  The set can miss classes (ROADMAP item 4).  On O_K(151)
    it is {-72, -88, -108, -120}, yet `F_invariant` certifies -48 on the
    basis (-41571 + 3383*sqrt(151), -525628 + 42775*sqrt(151)); the strict
    xfail `TestMissedCrossingClasses` in tests/test_geodesic.py holds that
    case.

    F < 0 forces |N| of both basis members below N(I)*sqrt(Delta_K/3), so
    the enumeration is finite.  It runs in float boxes, and raises
    ValueError where a bound leaves float range; the elements it keeps are
    checked on integers.

    F of a basis (x, y) depends on (N(x), N(y)) alone, so the elements are
    grouped by norm and a pair of groups is searched for a basis only where
    its norms allow one: F < 0, a value not found yet, N(I) dividing both,
    and Delta_K + 4*N(x)*N(y)/N(I)^2 a perfect square, since a basis gives
    the norm form (N(x), B, N(y))/N(I) of discriminant Delta_K.  The search
    pairs an element of the one group with the unit shifts eps_plus^j,
    |j| <= 2, of the other, so that partners outside the representative
    cone are still seen, and stops at the first basis; F_invariant re-checks
    it and gives the value.
    """
    D = I.D
    N = I.norm()
    dk = _discriminant(D)
    target = N * N * dk
    _, eps_plus = fundamental_unit(D)
    try:
        elems = _ideal_elements_in_cone(I, target, eps_plus)
    except OverflowError:
        # The band search sizes its boxes in floats: a large N(I) or unit
        # takes a bound past float range.
        raise ValueError(
            f"wr_intersection_classes of {I}: the search bounds exceed the "
            "float range (about 1.8e308)") from None
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for P, Q, e, n in elems:
        groups.setdefault(n, []).append((P, Q, e))
    # eps_plus^j for j = 0, 1, 2, -1, -2 as (p, q, d); N(eps_plus) = 1, so
    # conj(eps_plus) is its inverse and a shift keeps the norm
    s, t, f = eps_plus.p, eps_plus.q, eps_plus.d
    s2, t2 = s * s + D * t * t, 2 * s * t
    units = ((1, 0, 1), (s, t, f), (s2, t2, f * f), (s, -t, f),
             (s2, -t2, f * f))
    shifted: dict[int, list[tuple[int, int, int]]] = {}
    # (x, y*eps^j) is a basis exactly when (y, x*eps^-j) is, so each
    # unordered pair of norms is searched once.
    norms = sorted(n for n in groups if n % N == 0)
    values: set[Fraction] = set()
    for i, nx in enumerate(norms):
        for ny in norms[i:]:
            f4 = 4 * (nx * nx + nx * ny + ny * ny) - target
            if (f4 >= 0 or not _is_square(dk + 4 * (nx // N) * (ny // N))
                    or Fraction(f4, 4) in values):
                continue
            if ny not in shifted:
                shifted[ny] = [(P * us + D * Q * ut, P * ut + Q * us, e * ud)
                               for P, Q, e in groups[ny]
                               for us, ut, ud in units]
            pair = _first_basis(groups[nx], shifted[ny], D, target)
            if pair is not None:
                values.add(F_invariant(_quad(D, *pair[0]), _quad(D, *pair[1]), I))
    return len(values), values


def orthogonal_only(D: int) -> bool:
    """Whether the orbit of O_K meets the WR locus only at the square class.

    Exact integer test: D - 1 or D - 4 is a perfect square.
    """
    check_field(D)
    return _is_square(D - 1) or _is_square(D - 4)
