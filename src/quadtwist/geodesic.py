"""Sampling the closed similarity-class orbit of an ideal lattice.

The similarity classes of the twists A(alpha)*L_K(I), alpha totally positive,
trace a closed curve in the fundamental domain; one period is parameterized
by s = sigma_1(alpha)/sigma_2(alpha) in [1, eps_plus^2).  The orbit is
walked in L = log s, which stays a float even when s and eps_plus do not:
`_log_ratio` reads L off the integers of alpha, and `_t_at` maps a target L
to a rational t > sqrt(D) on the grid 2^-k.  All region flags are computed
exactly from the rational Gram matrix at that t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    _t_plus_sqrt,
    check_field,
    fundamental_unit,
)

_LN2 = math.log(2)
_LOG_FLOAT_MAX = 709.78  # exp overflows a float beyond log(2^1024) = 709.78...


@dataclass(frozen=True)
class GeodesicSample:
    """One exactly-evaluated point of the orbit curve.

    s = sigma_1(alpha)/sigma_2(alpha) is a float reporting companion; it is
    math.inf where the ratio is beyond float range.  The exact order of the
    samples is carried by t = alpha.x, which falls as s grows.
    """

    s: float
    alpha: QuadElem
    tau: SimilarityPoint
    is_wr: bool
    is_stable: bool


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


def _t_at(D: int, L: float) -> Fraction:
    """Rational t > sqrt(D) whose t + sqrt(D) has log ratio L > 0, to float
    accuracy.

    The ratio is e^L at t = sqrt(D) + 2*sqrt(D)/(e^L - 1).  On the grid 2^-k
    with k = floor(L/log 2) + 64 the offset term is a float near 2^64 times
    2*sqrt(D)/(1 - e^-L), so its rounding costs no accuracy, and
    isqrt(D*4^k) + 1 > sqrt(D)*2^k keeps t above sqrt(D) exactly.
    """
    k = int(L / _LN2) + 64
    off = round(2 * math.sqrt(D) * math.exp(k * _LN2 - L) / -math.expm1(-L))
    return Fraction(math.isqrt(D << 2 * k) + 1 + off, 1 << k)


def _sample_at(I: CanonicalIdeal, alpha: QuadElem) -> GeodesicSample:
    """Exact orbit sample at a given totally positive alpha, from the reduced
    pencil integers of its twist: tau and both flags are ratios of them."""
    R = _reduce(*_twist_ints(I, alpha.p, alpha.q))[:3]
    L = _log_ratio(alpha)
    s = math.exp(L) if L < _LOG_FLOAT_MAX else math.inf
    return GeodesicSample(s, alpha, _similarity_reduced(*R), _wr_reduced(*R),
                          _stable_reduced(*R))


def sample_orbit(I: CanonicalIdeal, n: int) -> list[GeodesicSample]:
    """n samples covering one unit period of the orbit.

    The target log ratios L = (k + 1/2)/n * log(eps_plus^2), k < n, are
    uniform in arclength; each is realized at the rational t = _t_at(D, L),
    where the Gram and all flags are exact.  t strictly decreases and every
    sample lies inside the period 1 < s < eps_plus^2.  A sample runs on the
    pencil integers and builds only the Fractions it returns (`_sample_at`).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _, eps_plus = fundamental_unit(I.D)
    log_period = _log_ratio(eps_plus)
    return [_sample_at(I, _t_plus_sqrt(I.D, _t_at(I.D, log_period * (k + 0.5) / n)))
            for k in range(n)]


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


def _in_cone(z: QuadElem, eps4: QuadElem) -> bool:
    """Exact membership in the cone 1 <= |sigma_1(z)/sigma_2(z)| < eps_plus^2,
    given eps4 = eps_plus^4.

    Squared form: sigma_1(z)^2 >= sigma_2(z)^2, i.e. p*q >= 0 for
    z = (p + q*sqrt(D))/d since sigma_1(z)^2 - sigma_2(z)^2 = 4pq*sqrt(D)/d^2,
    and sigma_1(z)^2 < eps_plus^4 * sigma_2(z)^2, decided as a QuadElem
    comparison (sigma_1 of z^2 against sigma_1 of conj(z)^2 * eps4).
    """
    if z.p * z.q < 0:
        return False
    zc = z.conjugate()
    return z * z < zc * zc * eps4


def _ideal_elements_in_cone(I: CanonicalIdeal, norm_bound_sq: Fraction,
                            eps_plus: QuadElem) -> list[QuadElem]:
    """Nonzero z in I with N(z)^2 <= norm_bound_sq, one per unit orbit.

    Representatives are taken in the cone 1 <= |sigma_1(z)/sigma_2(z)| <
    eps_plus^2.  A single rectangular coordinate box over the whole cone is
    infeasible for large units, so the cone is cut into ratio bands
    [lam^k, lam^(k+1)); each band fits in a small box that is scanned with a
    float prefilter, and every survivor is checked exactly.  Bands overlap,
    so coefficient pairs already seen are skipped: (z1, z2) is a basis, so
    the pair determines z.
    """
    z1, z2 = I.basis_elements()
    eps4 = eps_plus ** 4
    M = math.sqrt(float(norm_bound_sq))  # bound on |N(z)|
    s1 = (z1.embed(1), z2.embed(1))
    s2 = (z1.embed(2), z2.embed(2))
    lam = 4.0
    n_bands = max(1, math.ceil(_log_ratio(eps_plus) / math.log(lam)))
    slack = 1.02
    seen: set[tuple[int, int]] = set()
    out: list[QuadElem] = []
    for k in range(n_bands):
        # band: ratio in [lam^k, lam^(k+1)] => |sigma_1| <= B1, |sigma_2| <= B2
        B1 = math.sqrt(M) * lam ** ((k + 1) / 2) * slack
        B2 = math.sqrt(M) * lam ** (-k / 2) * slack
        for cxy in _points_in_embedding_box(s1, s2, B1, B2):
            if cxy in seen:
                continue
            seen.add(cxy)
            z = cxy[0] * z1 + cxy[1] * z2
            n = z.norm()
            if n != 0 and n * n <= norm_bound_sq and _in_cone(z, eps4):
                out.append(z)
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
    for c1 in range(-m1, m1 + 1):
        for c2 in range(-m2, m2 + 1):
            cx = c1 * u[0][0] + c2 * u[0][1]
            cy = c1 * u[1][0] + c2 * u[1][1]
            e1 = cx * s1[0] + cy * s1[1]
            e2 = cx * s2[0] + cy * s2[1]
            if abs(e1) <= B1 and abs(e2) <= B2:
                out.append((cx, cy))
    return out


def wr_intersection_classes(I: CanonicalIdeal) -> tuple[int, set[Fraction]]:
    """Count and F-values of the basis classes with F(B) < 0.

    These classes are in bijection with the crossings of the orbit curve and
    the WR locus.  F < 0 forces |N| of both basis members below
    N(I)*sqrt(Delta_K/3), so the enumeration is finite.  It runs in float
    boxes, and raises ValueError where a bound leaves float range.
    """
    D = I.D
    target = I.norm() ** 2 * _discriminant(D)
    _, eps_plus = fundamental_unit(D)
    try:
        elems = _ideal_elements_in_cone(I, Fraction(target, 3), eps_plus)
    except OverflowError:
        # The band search sizes its boxes in floats: a large N(I) or unit
        # takes a bound past float range.
        raise ValueError(
            f"wr_intersection_classes of {I}: the search bounds exceed the "
            "float range (about 1.8e308)") from None
    # unit shifts so that basis partners outside the representative cone are
    # still seen
    partners = []
    for j in (-2, -1, 0, 1, 2):
        u = eps_plus ** j
        for z in elems:
            y = z * u
            partners.append((y, y.p, y.q, y.d * y.d))
    values: set[Fraction] = set()
    # The basis test of F_invariant on integers:
    # 4*D*(q1*p2 - p1*q2)^2 == N(I)^2 * Delta_K * (d1*d2)^2.
    four_d = 4 * D
    for x in elems:
        p1, q1, d1 = x.p, x.q, x.d
        rhs = target * d1 * d1
        for y, p2, q2, d2_sq in partners:
            c = q1 * p2 - p1 * q2
            if four_d * c * c != rhs * d2_sq:
                continue
            f = F_invariant(x, y, I)
            if f < 0:
                values.add(f)
    return len(values), values


def orthogonal_only(D: int) -> bool:
    """Whether the orbit of O_K meets the WR locus only at the square class.

    Exact integer test: D - 1 or D - 4 is a perfect square.
    """
    check_field(D)
    return _is_square(D - 1) or _is_square(D - 4)
