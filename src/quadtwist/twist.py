"""Decision procedures for WR and stable twists of canonical ideal bases.

A twist by a totally positive alpha = p + q*sqrt(D) is normalized to q = 1
(the criteria are homogeneous of degree 2 in (p, q), and scaling alpha by a
positive rational produces a similar lattice).  The single remaining variable
is t = p/q ranging over (sqrt(D), oo): the module decides only
alpha = t + sqrt(D) with t > sqrt(D), half of the diagonal twists (ROADMAP
item 26).  The other half can answer differently: alpha = 14 - sqrt(7)
twists the canonical basis of (7; 3, 1, 1) to the Gram [[252, 126],
[126, 252]], which is WR and reduced, yet `wr_twist` of that ideal reports
"forced ratio not positive".

Along alpha = t + sqrt(D) the twisted Gram matrix of the canonical basis is
the integer pencil t*P + Q that `CanonicalIdeal` derives, and every formula
here is read off (P, Q).  WR twistability: the equal-norm equation
g11(t) = g22(t) is linear and forces the ratio t*, and the reduction
inequality at t* decides.  Stable twistability: reducedness and the
stability conditions are quadratic in t, and the domain is clipped by each
one in turn at its finite roots.  Two integer tests answer "empty" first:
the cone test `stable_bound_filter`, true exactly when weak reducedness
leaves something, and a height test on a/g.  The clipping keeps every end
as the integers (p, q, n, d) of (p + q*sqrt(n))/d and compares ends by one
exact sign test, `quadfield._surd_sign`; only a nonempty feasibility set is
built, once, as a sorted tuple of `Interval`s with `Surd` endpoints.  The
witness is the simplest rational inside, found by continued fractions on
the clipped pieces' integer ends (`_simplest_between`, the core of
`simplest_rational_in`).  Both certificates re-check the twist on the
pencil integers `lattice2._twist_ints` gives, with one `_reduce`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ideals import CanonicalIdeal
from .lattice2 import (
    Gram2,
    _paper_reduced,
    _reduce,
    _stable_reduced,
    _twist_gram,
    _twist_ints,
    _wr_reduced,
)
from .quadfield import (
    CertificateError,
    QuadElem,
    Surd,
    _discriminant,
    _frac,
    _quad,
    _rat,
    _rationals,
    _Record,
    _sign_x_plus_y_sqrt,
    _surd_sign,
    _totally_positive,
    surd_compare,
)


# ---------------------------------------------------------------------------
# Exact intervals with surd endpoints
# ---------------------------------------------------------------------------

class Interval(_Record):
    """[lo, hi] with surd endpoints; hi = None means +oo; flags mark closure.
    lo must be a Surd, hi a Surd or None and both flags bools, else
    TypeError."""

    _fields = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: Surd, hi: Surd | None, lo_closed: bool = True,
                 hi_closed: bool = True):
        if not (isinstance(lo, Surd) and (hi is None or isinstance(hi, Surd))
                and type(lo_closed) is bool and type(hi_closed) is bool):
            raise TypeError("need Surd ends (hi may be None) and bool flags")
        self.__dict__.update(lo=lo, hi=hi, lo_closed=lo_closed,
                             hi_closed=hi_closed)

    def __str__(self):
        left = "[" if self.lo_closed else "("
        if self.hi is None:
            return f"{left}{self.lo}, oo)"
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"

    def contains(self, t) -> bool:
        cl = surd_compare(t, self.lo)
        if cl < 0 or (cl == 0 and not self.lo_closed):
            return False
        if self.hi is None:
            return True
        ch = surd_compare(t, self.hi)
        return ch < 0 or (ch == 0 and self.hi_closed)


# The clipping works on pieces (lo, hi, lo_closed, hi_closed) whose ends are
# the integers (p, q, n, d) of (p + q*sqrt(n))/d, hi = None for +oo, compared
# by `_surd_sign`; a Surd is built only for an end of the answer.

def _empty(lo, hi, lo_closed: bool, hi_closed: bool) -> bool:
    if hi is None:
        return False
    c = _surd_sign(lo, hi)
    return c > 0 or (c == 0 and not (lo_closed and hi_closed))


def _above(iv: tuple, r: tuple, closed: bool) -> tuple | None:
    """The piece iv intersected with [r, oo) (closed) or (r, oo), or None
    when that is empty.  On a tie of iv's lower end with r the open end
    wins: an open lower end of iv is kept, otherwise r with its flag."""
    lo, hi, lo_closed, hi_closed = iv
    c = _surd_sign(lo, r)
    if c > 0 or (c == 0 and not lo_closed):
        return iv
    out = (r, hi, closed, hi_closed)
    return None if _empty(*out) else out


def _below(iv: tuple, r: tuple, closed: bool) -> tuple | None:
    """The piece iv intersected with (-oo, r] (closed) or (-oo, r), or None
    when that is empty; a tie of iv's upper end with r follows the rule of
    `_above`."""
    lo, hi, lo_closed, hi_closed = iv
    if hi is not None:
        c = _surd_sign(hi, r)
        if c < 0 or (c == 0 and not hi_closed):
            return iv
    out = (lo, r, lo_closed, closed)
    return None if _empty(*out) else out


def _piece(iv: Interval) -> tuple:
    lo, hi = iv.lo, iv.hi
    return ((lo.p, lo.q, lo.n, lo.d),
            None if hi is None else (hi.p, hi.q, hi.n, hi.d),
            iv.lo_closed, iv.hi_closed)


def _interval(piece: tuple) -> Interval:
    lo, hi, lo_closed, hi_closed = piece
    return Interval(Surd(*lo), None if hi is None else Surd(*hi),
                    lo_closed, hi_closed)


def intersect_interval_lists(xs: list[Interval], ys: list[Interval]) -> list[Interval]:
    """The nonempty intersections a & b for a in xs and b in ys, in order.

    Kept as a public name because the benchmark harness in perfbench/ traces
    it."""
    ys = [_piece(b) for b in ys]
    out = []
    for a in map(_piece, xs):
        for b_lo, b_hi, b_lo_closed, b_hi_closed in ys:
            c = _above(a, b_lo, b_lo_closed)
            if c is not None and b_hi is not None:
                c = _below(c, b_hi, b_hi_closed)
            if c is not None and not _empty(*c):
                out.append(_interval(c))
    return out


def _clip(feas: list[tuple], A: int, B: int, C: int) -> list[tuple]:
    """The sorted disjoint pieces feas, each intersected with the solution
    set of A*t^2 + B*t + C >= 0 (integer coefficients), in order.

    Only the finite roots (-B -+ sqrt(B^2 - 4AC))/(2A) are compared with the
    ends of feas: an unbounded side of the solution set cuts nothing.
    """
    if A == 0:
        if B == 0:
            return feas if C >= 0 else []
        if B > 0:
            r = (-C, 0, 0, B)
            return [p for iv in feas if (p := _above(iv, r, True)) is not None]
        r = (C, 0, 0, -B)
        return [p for iv in feas if (p := _below(iv, r, True)) is not None]
    disc = B * B - 4 * A * C
    if A > 0:
        if disc <= 0:
            return feas
        r1 = (-B, -1, disc, 2 * A)
        r2 = (-B, 1, disc, 2 * A)
        return [p for iv in feas
                for p in (_below(iv, r1, True), _above(iv, r2, True))
                if p is not None]
    if disc < 0:
        return []
    # A < 0: with the positive denominator -2A the smaller root is
    # (B - sqrt(disc))/(-2A).
    r1 = (B, -1, disc, -2 * A)
    r2 = (B, 1, disc, -2 * A)
    return [p for iv in feas
            if (q := _above(iv, r1, True)) is not None
            and (p := _below(q, r2, True)) is not None]


def _recip_minus(p: int, q: int, n: int, d: int, k: int):
    """1/((p + q*sqrt(n))/d - k) as the integers (p', q', n, d') of the same
    form in lowest terms, d' > 0, or None for 1/0 = +oo."""
    p -= k * d
    den = p * p - q * q * n
    if den == 0:
        return None
    if den < 0:
        p, q, den = -p, -q, -den
    p, q = d * p, -d * q
    g = math.gcd(p, q, den)
    return p // g, q // g, n, den // g


def simplest_rational_in(lo: Surd, hi: Surd | None) -> Fraction | None:
    """The simplest rational strictly inside (lo, hi), hi = None for +oo:
    the smallest denominator, and the smallest numerator among those.  None
    when lo >= hi; the domain is lo >= 0, and lo < 0 raises ValueError.

    The continued-fraction construction: with k = floor(lo), k + 1 is the
    answer when it lies below hi; otherwise every rational inside is
    k + 1/x with x in (1/(hi - k), 1/(lo - k)), and the walk goes on there.
    Each end stays (p + q*sqrt(n))/d on integers over its own radicand n,
    floored as (p + floor(q*sqrt(n)))//d, and the Moebius map
    x -> (a*x + b)/(c*x + e) carries x back; only the witness is built as a
    Fraction."""
    if not (isinstance(lo, Surd) and (hi is None or isinstance(hi, Surd))):
        raise TypeError("lo and hi must be Surds")
    if _sign_x_plus_y_sqrt(lo.p, lo.q, lo.n) < 0:
        raise ValueError(f"need lo >= 0, got {lo}")
    return _simplest_between((lo.p, lo.q, lo.n, lo.d),
                             None if hi is None else (hi.p, hi.q, hi.n, hi.d))


def _simplest_between(x: tuple, y: tuple | None) -> Fraction | None:
    """`simplest_rational_in` on the integers (p, q, n, d) of its ends,
    y = None for +oo, with x >= 0 unchecked."""
    if y is not None and _surd_sign(x, y) >= 0:
        return None
    a, b, c, e = 1, 0, 0, 1
    while True:
        p, q, n, d = x
        s = math.isqrt(q * q * n)
        k = (p + (s if q >= 0 else -s - 1)) // d
        if y is None or _sign_x_plus_y_sqrt(y[0] - (k + 1) * y[3], y[1], y[2]) > 0:
            # c*(k + 1) + e > 0: [[a, b], [c, e]] has entries >= 0, det +-1
            return _frac(a * (k + 1) + b, c * (k + 1) + e)
        x, y = _recip_minus(*y, k), _recip_minus(*x, k)
        a, b, c, e = a * k + b, a, c * k + e, c


# ---------------------------------------------------------------------------
# Twist verdicts
# ---------------------------------------------------------------------------

class TwistVerdict(_Record):
    """Outcome of the closed-form WR twist construction."""

    _fields = ("wr_twistable", "reason", "t_star", "alpha", "gram")

    def __init__(self, wr_twistable: bool, reason: str | None = None,
                 t_star: Fraction | None = None, alpha: QuadElem | None = None,
                 gram: Gram2 | None = None):
        self.__dict__.update(wr_twistable=wr_twistable, reason=reason,
                             t_star=t_star, alpha=alpha, gram=gram)


class FeasibilityReport(_Record):
    """Exact stable-twist feasibility set over t in (sqrt(D), oo)."""

    _fields = ("feasible_real", "intervals", "witness_t", "witness_alpha",
               "emptied_by")

    def __init__(self, feasible_real: bool, intervals: tuple[Interval, ...],
                 witness_t: Fraction | None = None,
                 witness_alpha: QuadElem | None = None,
                 emptied_by: int | None = None):
        # emptied_by indexes `_stable_constraints` (see
        # STABLE_CONSTRAINT_NAMES) at the constraint that left the set
        # empty; None when it is nonempty
        self.__dict__.update(feasible_real=feasible_real, intervals=intervals,
                             witness_t=witness_t, witness_alpha=witness_alpha,
                             emptied_by=emptied_by)

    def contains_t(self, t) -> bool:
        return any(iv.contains(t) for iv in self.intervals)


def _wr_cone(u: int, v: int, D: int) -> bool:
    """u^2 < D*v^2, the test of `wr_bound_filter` on z2 = (u + v*sqrt(D))/e."""
    return u * u < D * v * v


def _stable_cone(u: int, v: int, D: int) -> bool:
    """3*u^2 < 4*D*v^2, the test of `stable_bound_filter` on
    z2 = (u + v*sqrt(D))/e."""
    return 3 * u * u < 4 * D * v * v


def wr_bound_filter(I: CanonicalIdeal) -> bool:
    """Necessary condition for WR twistability: u^2 < D*v^2 for
    z2 = (u + v*sqrt(D))/e."""
    if not isinstance(I, CanonicalIdeal):
        raise TypeError("I must be a CanonicalIdeal")
    u, v, _ = I._uve
    return _wr_cone(u, v, I.D)


def stable_bound_filter(I: CanonicalIdeal) -> bool:
    """Necessary condition for stable twistability: 3*u^2 < 4*D*v^2 for
    z2 = (u + v*sqrt(D))/e, which holds exactly when weak reducedness
    leaves some t > sqrt(D) (proof in `stable_twist`)."""
    if not isinstance(I, CanonicalIdeal):
        raise TypeError("I must be a CanonicalIdeal")
    u, v, _ = I._uve
    return _stable_cone(u, v, I.D)


def _past_height(a: int, g: int, disc: int) -> bool:
    """9a^2 >= 4*disc*g^2: the canonical basis of an ideal (a, b, g) over a
    field of discriminant disc twists into no stable and no WR lattice.

    With A = a/g, the first coefficient of the basis's norm form
    (A, B, C) = (N(a), tr(a*conj(z2)), N(z2))/N(I), N(I) = a*g:
    - Stable: the arc that tau runs on has height sqrt(disc)/(2A), and a
      stable twist needs it above 3/4, so 9A^2 < 4*disc (proof in
      `stable_twist`, its height test).
    - WR: a WR twist needs F = N(I)^2 * (A^2 + AC + C^2 - disc/4) <= 0
      (`wr_twist`), and A^2 + AC + C^2 = (C + A/2)^2 + 3A^2/4 >= 3A^2/4,
      so it needs 3A^2 <= disc.  Past this bound 3A^2 >= 4*disc/3 > disc.
    So the paper's finiteness is explicit: over a fixed field every
    twistable canonical basis has a/g < (2/3)*sqrt(disc).
    """
    return 9 * a * a >= 4 * disc * g * g


def _wr_ratio(I: CanonicalIdeal) -> tuple[int, int, bool]:
    """(numerator, denominator) of the forced ratio t*, and whether the
    reduction inequality holds.

    g11(t) = g22(t) on the pencil t*P + Q forces t* = num/den; at t* (with
    den > 0) the reduction inequality 2|g12| <= g11 reads, times den,
    2|P12*num + Q12*den| <= P11*num + Q11*den.
    """
    P11, P12, P22, Q11, Q12, Q22 = I._pencil
    num, den = Q11 - Q22, P22 - P11
    reduced_ok = 2 * abs(P12 * num + Q12 * den) <= P11 * num + Q11 * den
    return num, den, reduced_ok


def wr_twist(I: CanonicalIdeal) -> TwistVerdict:
    """Closed-form WR twist of the canonical basis of I, if one exists.

    The equal-norm equation forces t* = p/q; the twist exists iff the forced
    ratio is positive, alpha = t* + sqrt(D) is totally positive, and the
    reduction inequality holds.

    Where that happens: let (A, B, C) = (N(z1), tr(z1*conj(z2)), N(z2))/N(I)
    be the norm form of the basis (z1, z2) = (a, b + g*delta).  Twisted by
    any totally positive alpha, the basis has its similarity point tau on
    the geodesic A|tau|^2 - B*Re(tau) + C = 0, whose ends are
    u1 = sigma_1(z2/z1) and u2 = sigma_2(z2/z1).  It meets |tau| = 1 at
    x* = (A + C)/B, where |x*| <= 1/2 iff 4(A + C)^2 <= B^2 = Delta + 4AC,
    i.e. iff F = N(I)^2 * (A^2 + AC + C^2 - Delta/4) <= 0 (`F_invariant`);
    equality is the hexagonal point.  Along t > sqrt(D), alpha = t + sqrt(D)
    moves tau from u1 (t -> sqrt(D)) to the apex B/(2A) (t -> oo), so the
    verdict is true exactly when F <= 0 and, in addition, x* lies strictly
    between u1 and B/(2A).
    """
    if not isinstance(I, CanonicalIdeal):
        raise TypeError("I must be a CanonicalIdeal")
    num, den, reduced_ok = _wr_ratio(I)
    if den <= 0 or num <= 0:
        return TwistVerdict(False, reason="forced ratio not positive")
    t_star = _frac(num, den)
    if not _totally_positive(num, den, I.D):
        return TwistVerdict(False, reason="alpha not totally positive",
                            t_star=t_star)
    if not reduced_ok:
        return TwistVerdict(False, reason="reduction inequality fails",
                            t_star=t_star)
    alpha = _quad(I.D, num, den, den)
    return TwistVerdict(True, t_star=t_star, alpha=alpha,
                        gram=_certify_wr(I, t_star, alpha))


def _certify_wr(I: CanonicalIdeal, t_star: Fraction, alpha: QuadElem) -> Gram2:
    """The Gram of I twisted by alpha = t* + sqrt(D), once it is re-checked
    WR and reduced on its pencil integers; CertificateError otherwise."""
    n = _twist_ints(I, alpha._p, alpha._q)
    if not (_wr_reduced(*_reduce(*n)[:3]) and _paper_reduced(*n)):
        raise CertificateError(
            f"WR twist t* = {_rat(t_star)} of {I} fails the exact WR/reduced "
            f"re-check")
    return _twist_gram(I, *n, alpha._d)


def _stable_constraints(I: CanonicalIdeal) -> list[tuple[int, int, int]]:
    """Integer quadratic constraints A*t^2 + B*t + C >= 0 for stable
    twistability, read off the pencil g(t) = t*P + Q with
    det g(t) = N(I)^2 * D * (t^2 - D).

    Weak reducedness g11*g22 - 4*g12^2 >= 0 and the two squared stability
    conditions g11^2 - det >= 0 and g22^2 - det >= 0.  The squaring needs no
    sign guard: for t > sqrt(D), alpha = t + sqrt(D) is totally positive, so
    g(t) is positive definite and g11, g22 > 0.  (A guard g22 = P22*t + Q22
    >= 0 would have its rational root -Q22/P22 below the irrational sqrt(D)
    and cut nothing from the domain.)  The first two triples carry the
    factor a^2 of z1 = a, which is divided out: the roots are printed with
    unreduced radicands, so the triples are kept this small.
    """
    P11, P12, P22, Q11, Q12, Q22 = I._pencil
    D, a2 = I.D, I.a * I.a
    k = I.norm() ** 2 * D  # det g(t) = k*t^2 - k*D
    return [((P11 * P22 - 4 * P12 * P12) // a2,
             (P11 * Q22 + Q11 * P22 - 8 * P12 * Q12) // a2,
             (Q11 * Q22 - 4 * Q12 * Q12) // a2),
            ((P11 * P11 - k) // a2, 2 * P11 * Q11 // a2,
             (Q11 * Q11 + k * D) // a2),
            (P22 * P22 - k, 2 * P22 * Q22, Q22 * Q22 + k * D)]


# What each triple of `_stable_constraints` asks, by index.
STABLE_CONSTRAINT_NAMES = ("weak reducedness", "g11^2 >= det",
                           "g22^2 >= det")


def raw_stable_polynomials(I: CanonicalIdeal, t: Fraction) -> bool:
    """The stable-twistability criterion evaluated directly at (p, q) = (t, 1):
    t > sqrt(D) and every constraint of `_stable_constraints` holds at t.
    t must be an int or a Fraction (not a bool), else TypeError."""
    if not isinstance(I, CanonicalIdeal):
        raise TypeError("I must be a CanonicalIdeal")
    if not _rationals(t):
        raise TypeError("t must be an int or a Fraction")
    n, d = t.numerator, t.denominator
    return _totally_positive(n, d, I.D) and all(
        A * n * n + B * n * d + C * d * d >= 0
        for A, B, C in _stable_constraints(I))


def stable_twist(I: CanonicalIdeal) -> FeasibilityReport:
    """Exact stable-twist feasibility over t in (sqrt(D), oo).

    Clips the domain by each quadratic constraint at its finite surd roots,
    in the order of `_stable_constraints` (the pieces stay sorted), and
    picks the smallest-denominator rational witness in the interior of the
    leftmost nondegenerate interval (absent when the set has empty interior).

    Two integer tests return the clipping's empty report before it.  With
    z2 = (u + v*sqrt(D))/e (v = -g) and s = sqrt(D)/t in (0, 1),
    tau = (g12 + i*sqrt(det))/g11 = (c - R*s) + i*R*sqrt(1 - s^2) runs over
    the left quarter of the circle with centre c = u/(a*e) >= 0 and radius
    R = sqrt(Delta)/(2a/g), below height R; the constraints read
    y^2 >= 3x^2, y <= 1 and |tau|^2 >= y.
    - Cone, index 0: y^2 - 3x^2 = R^2 - 3c^2 + 6cRs - 4R^2*s^2 peaks at
      s = 3c/(4R), below 1 when the peak R^2 - 3c^2/4 is positive, so the
      arc meets the cone iff 3u^2 < 4Dv^2 (`stable_bound_filter`) or, at a
      tangent point, 3u^2 = 4Dv^2; that makes 3D a square, so D = 3 and
      b = 2g, and a*g | N(z2) = g^2 contradicts b < a.
    - Height, index 2: constraints 0 and 2 give y <= |tau|^2 <= 4y^2/3, so
      y >= 3/4 needs R > 3/4: 9(a/g)^2 < 4*Delta (`_past_height` is its
      failure).  If R <= 3/4 and the cone test passes, y < 1 everywhere:
      index 1 cuts nothing, index 2 empties.
    """
    if not isinstance(I, CanonicalIdeal):
        raise TypeError("I must be a CanonicalIdeal")
    D = I.D
    u, v, _ = I._uve
    if not _stable_cone(u, v, D):
        return FeasibilityReport(False, (), emptied_by=0)
    if _past_height(I.a, I.g, _discriminant(D)):
        return FeasibilityReport(False, (), emptied_by=2)
    feas = [((0, 1, D, 1), None, False, True)]
    for k, (A, B, C) in enumerate(_stable_constraints(I)):
        feas = _clip(feas, A, B, C)
        if not feas:
            return FeasibilityReport(False, (), emptied_by=k)
    witness_t = witness_alpha = None
    for lo, hi, _, _ in feas:
        # every piece lies in (sqrt(D), oo), so lo > 0
        witness_t = _simplest_between(lo, hi)
        if witness_t is not None:
            n, d = witness_t.numerator, witness_t.denominator
            witness_alpha = _quad(D, n, d, d)
            _certify_stable(I, witness_t, witness_alpha)
            break
    return FeasibilityReport(True, tuple(map(_interval, feas)), witness_t,
                             witness_alpha)


def _certify_stable(I: CanonicalIdeal, t: Fraction, alpha: QuadElem) -> None:
    """CertificateError unless the twist of I by alpha = t + sqrt(D) is
    reduced and stable, on its pencil integers, and every stable constraint
    holds at t."""
    n = _twist_ints(I, alpha._p, alpha._q)
    if not (_paper_reduced(*n) and _stable_reduced(*_reduce(*n)[:3])
            and raw_stable_polynomials(I, t)):
        raise CertificateError(
            f"stable witness t = {_rat(t)} of {I} fails the exact "
            f"stability re-check")
