"""Decision procedures for WR and stable twists of canonical ideal bases.

A twist by a totally positive alpha = p + q*sqrt(D) is normalized to q = 1
(the criteria are homogeneous of degree 2 in (p, q), and scaling alpha by a
positive rational produces a similar lattice).  The single remaining variable
is t = p/q ranging over (sqrt(D), oo); the q < 0 branch is omitted because
swapping the two embeddings is an isometry of the twisted lattice.

Along alpha = t + sqrt(D) the twisted Gram matrix of the canonical basis is
the integer pencil t*P + Q of `lattice2._pencil`, and every formula here is
read off (P, Q).  WR twistability: the equal-norm equation g11(t) = g22(t) is
linear and forces the ratio t*, and the reduction inequality at t* decides.
Stable twistability: reducedness and the stability conditions are quadratic
in t, and their exact solution sets with surd endpoints are intersected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

from .ideals import CanonicalIdeal
from .lattice2 import (
    Gram2,
    _pencil,
    gram_of_twist,
    is_paper_reduced,
    is_stable,
    is_wr,
)
from .quadfield import (
    CertificateError,
    QuadElem,
    Rational,
    Surd,
    _t_plus_sqrt,
    surd_compare,
)


# ---------------------------------------------------------------------------
# Exact intervals with surd endpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """[lo, hi] with surd endpoints; hi = None means +oo; flags mark closure."""

    lo: Surd
    hi: Optional[Surd]
    lo_closed: bool = True
    hi_closed: bool = True

    def is_empty(self) -> bool:
        if self.hi is None:
            return False
        c = surd_compare(self.lo, self.hi)
        return c > 0 or (c == 0 and not (self.lo_closed and self.hi_closed))

    def is_point(self) -> bool:
        return self.hi is not None and surd_compare(self.lo, self.hi) == 0

    def __str__(self):
        left = "[" if self.lo_closed else "("
        if self.hi is None:
            return f"{left}{self.lo}, oo)"
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"

    def contains(self, t, strict: bool = False) -> bool:
        cl = surd_compare(t, self.lo)
        if cl < 0 or (cl == 0 and (strict or not self.lo_closed)):
            return False
        if self.hi is None:
            return True
        ch = surd_compare(t, self.hi)
        return ch < 0 or (ch == 0 and not strict and self.hi_closed)


def _intersect_pair(a: Interval, b: Interval) -> Optional[Interval]:
    cl = surd_compare(a.lo, b.lo)
    if cl > 0 or (cl == 0 and not a.lo_closed):
        lo, lo_closed = a.lo, a.lo_closed
    else:
        lo, lo_closed = b.lo, b.lo_closed
    if a.hi is None:
        hi, hi_closed = b.hi, b.hi_closed
    elif b.hi is None:
        hi, hi_closed = a.hi, a.hi_closed
    else:
        ch = surd_compare(a.hi, b.hi)
        if ch < 0 or (ch == 0 and not a.hi_closed):
            hi, hi_closed = a.hi, a.hi_closed
        else:
            hi, hi_closed = b.hi, b.hi_closed
    out = Interval(lo, hi, lo_closed, hi_closed)
    return None if out.is_empty() else out


def intersect_interval_lists(xs: list[Interval], ys: list[Interval]) -> list[Interval]:
    out = []
    for a in xs:
        for b in ys:
            c = _intersect_pair(a, b)
            if c is not None:
                out.append(c)
    return out


def solve_quadratic_ge0(A: Rational, B: Rational, C: Rational,
                        domain: Interval) -> list[Interval]:
    """Exact solution set of A*t^2 + B*t + C >= 0 intersected with domain.

    Rational coefficients are scaled to integers once, on entry; the roots
    (-B -+ sqrt(B^2 - 4AC))/(2A) are then integer surds.
    """
    scale = math.lcm(A.denominator, B.denominator, C.denominator)
    A, B, C = (c.numerator * (scale // c.denominator) for c in (A, B, C))
    if A == 0:
        if B == 0:
            return [domain] if C >= 0 else []
        if B > 0:
            sol = Interval(Surd.of_ints(-C, d=B), None, True, True)
        else:
            sol = Interval(domain.lo, Surd.of_ints(C, d=-B),
                           domain.lo_closed, True)
        return intersect_interval_lists([domain], [sol])
    disc = B * B - 4 * A * C
    if A > 0:
        if disc <= 0:
            return [domain]
        r1 = Surd.of_ints(-B, -1, disc, 2 * A)
        r2 = Surd.of_ints(-B, 1, disc, 2 * A)
        sols = [
            Interval(domain.lo, r1, domain.lo_closed, True),
            Interval(r2, None, True, True),
        ]
    else:
        if disc < 0:
            return []
        # A < 0: with the positive denominator -2A the smaller root is
        # (B - sqrt(disc))/(-2A).
        r1 = Surd.of_ints(B, -1, disc, -2 * A)
        r2 = Surd.of_ints(B, 1, disc, -2 * A)
        sols = [Interval(r1, r2, True, True)]
    return intersect_interval_lists([domain], sols)


def _max_stride(check) -> int:
    """Largest k >= 1 with check(k) true, given check(1) is true and check is
    monotone (true up to some point, false after)."""
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


def simplest_rational_in(lo: Surd, hi: Optional[Surd]) -> Optional[Fraction]:
    """Smallest-denominator rational strictly inside (lo, hi), by the
    Stern-Brocot walk with exponential stride acceleration.

    Each probe n/d is compared as the integer surd n/d; only the returned
    witness is built as a Fraction."""
    if hi is not None and surd_compare(lo, hi) >= 0:
        return None
    ln, ld = 0, 1  # left endpoint of the walk
    rn, rd = 1, 0  # right endpoint, starts at +oo
    while True:
        mn, md = ln + rn, ld + rd
        if surd_compare(Surd.of_ints(mn, 0, 0, md), lo) <= 0:
            k = _max_stride(
                lambda k: surd_compare(
                    Surd.of_ints(ln + k * rn, 0, 0, ld + k * rd), lo) <= 0
            )
            ln, ld = ln + k * rn, ld + k * rd
        elif hi is not None and surd_compare(Surd.of_ints(mn, 0, 0, md), hi) >= 0:
            k = _max_stride(
                lambda k: surd_compare(
                    Surd.of_ints(k * ln + rn, 0, 0, k * ld + rd), hi) >= 0
            )
            rn, rd = k * ln + rn, k * ld + rd
        else:
            return Fraction(mn, md)


# ---------------------------------------------------------------------------
# Twist verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistVerdict:
    """Outcome of the closed-form WR twist construction."""

    wr_twistable: bool
    reason: Optional[str] = None
    t_star: Optional[Fraction] = None
    alpha: Optional[QuadElem] = None
    gram: Optional[Gram2] = None


@dataclass(frozen=True)
class FeasibilityReport:
    """Exact stable-twist feasibility set over t in (sqrt(D), oo)."""

    feasible_real: bool
    intervals: tuple[Interval, ...]
    witness_t: Optional[Fraction] = None
    witness_alpha: Optional[QuadElem] = None

    def contains_t(self, t) -> bool:
        return any(iv.contains(t) for iv in self.intervals)


def wr_bound_filter(I: CanonicalIdeal) -> bool:
    """Necessary condition for WR twistability: u^2 < D*v^2 for
    z2 = (u + v*sqrt(D))/e."""
    u, v, _ = I._z2_ints()
    return u * u < I.D * v * v


def stable_bound_filter(I: CanonicalIdeal) -> bool:
    """Necessary condition for stable twistability: 3*u^2 < 4*D*v^2 for
    z2 = (u + v*sqrt(D))/e."""
    u, v, _ = I._z2_ints()
    return 3 * u * u < 4 * I.D * v * v


def _wr_ratio(I: CanonicalIdeal) -> tuple[int, int, bool]:
    """(numerator, denominator) of the forced ratio t*, and whether the
    reduction inequality holds.

    g11(t) = g22(t) on the pencil t*P + Q forces t* = num/den; at t* (with
    den > 0) the reduction inequality 2|g12| <= g11 reads, times den,
    2|P12*num + Q12*den| <= P11*num + Q11*den.
    """
    P11, P12, P22, Q11, Q12, Q22 = _pencil(I)
    num, den = Q11 - Q22, P22 - P11
    reduced_ok = 2 * abs(P12 * num + Q12 * den) <= P11 * num + Q11 * den
    return num, den, reduced_ok


def wr_twist(I: CanonicalIdeal) -> TwistVerdict:
    """Closed-form WR twist of the canonical basis of I, if one exists.

    The equal-norm equation forces t* = p/q; the twist exists iff the forced
    ratio is positive, alpha = t* + sqrt(D) is totally positive, and the
    reduction inequality holds.
    """
    num, den, reduced_ok = _wr_ratio(I)
    if den <= 0 or num <= 0:
        return TwistVerdict(False, reason="forced ratio not positive")
    t_star = Fraction(num, den)
    if not num * num > I.D * den * den:
        return TwistVerdict(False, reason="alpha not totally positive",
                            t_star=t_star)
    if not reduced_ok:
        return TwistVerdict(False, reason="reduction inequality fails",
                            t_star=t_star)
    alpha = _t_plus_sqrt(I.D, t_star)
    gram = gram_of_twist(I, alpha)
    if not (is_wr(gram) and is_paper_reduced(gram)):
        raise CertificateError(
            f"WR twist t* = {t_star} of {I} fails the exact WR/reduced re-check")
    return TwistVerdict(True, t_star=t_star, alpha=alpha, gram=gram)


def _stable_constraints(I: CanonicalIdeal) -> list[tuple[int, int, int]]:
    """Integer quadratic constraints A*t^2 + B*t + C >= 0 for stable
    twistability, read off the pencil g(t) = t*P + Q with
    det g(t) = N(I)^2 * D * (t^2 - D).

    Weak reducedness g11*g22 - 4*g12^2 >= 0, the two squared stability
    conditions g11^2 - det >= 0 and g22^2 - det >= 0, and the linear guard
    g22 >= 0 for the squaring (g11 = P11*t needs none on t > sqrt(D)).  The
    first two carry the factor a^2 of z1 = a, which is divided out: the
    roots are printed with unreduced radicands, so the triples are kept this
    small.
    """
    P11, P12, P22, Q11, Q12, Q22 = _pencil(I)
    D, a2 = I.D, I.a * I.a
    k = I.norm() ** 2 * D  # det g(t) = k*t^2 - k*D
    return [((P11 * P22 - 4 * P12 * P12) // a2,
             (P11 * Q22 + Q11 * P22 - 8 * P12 * Q12) // a2,
             (Q11 * Q22 - 4 * Q12 * Q12) // a2),
            ((P11 * P11 - k) // a2, 2 * P11 * Q11 // a2,
             (Q11 * Q11 + k * D) // a2),
            (P22 * P22 - k, 2 * P22 * Q22, Q22 * Q22 + k * D),
            (0, P22, Q22)]


def raw_stable_polynomials(I: CanonicalIdeal, t: Fraction) -> bool:
    """The stable-twistability criterion evaluated directly at (p, q) = (t, 1):
    t > sqrt(D) and every constraint of `_stable_constraints` holds at t."""
    n, d = t.numerator, t.denominator
    return n > 0 and n * n > I.D * d * d and all(
        A * n * n + B * n * d + C * d * d >= 0
        for A, B, C in _stable_constraints(I))


_BY_LO = cmp_to_key(lambda x, y: surd_compare(x.lo, y.lo))


def stable_twist(I: CanonicalIdeal) -> FeasibilityReport:
    """Exact stable-twist feasibility over t in (sqrt(D), oo).

    Solves each quadratic constraint with surd endpoints, intersects, and
    picks the smallest-denominator rational witness in the interior of the
    leftmost nondegenerate interval (absent when the set has empty interior).
    """
    D = I.D
    domain = Interval(Surd.of_ints(0, 1, D), None, lo_closed=False)
    feas = [domain]
    for (A, B, C) in _stable_constraints(I):
        feas = intersect_interval_lists(feas, solve_quadratic_ge0(A, B, C, domain))
        if not feas:
            break
    feas.sort(key=_BY_LO)
    if not feas:
        return FeasibilityReport(False, ())
    witness_t = None
    witness_alpha = None
    for iv in feas:
        if iv.is_point():
            continue
        witness_t = simplest_rational_in(iv.lo, iv.hi)
        if witness_t is not None:
            break
    if witness_t is not None:
        witness_alpha = _t_plus_sqrt(D, witness_t)
        gram = gram_of_twist(I, witness_alpha)
        if not (is_paper_reduced(gram) and is_stable(gram)
                and raw_stable_polynomials(I, witness_t)):
            raise CertificateError(
                f"stable witness t = {witness_t} of {I} fails the exact "
                f"stability re-check")
    return FeasibilityReport(True, tuple(feas), witness_t, witness_alpha)
