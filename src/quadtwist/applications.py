"""Diversity and Euclidean-minimum instrumentation for twisted ideal lattices.

d_min of a twisted ideal lattice factors exactly: the product of the embedded
coordinates of z under A(alpha) is sqrt(N(alpha)) * N(z), so
d_min^2 = N(alpha) * (min |N(z)|)^2.  The minimal |N(z)| over an ideal is the
minimum of an integral indefinite binary quadratic form, computed exactly by
traversing its cycle of reduced forms with `quadfield._rho_walk`, the walk
that also yields the fundamental unit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .geodesic import _log_ratio, _t_at
from .ideals import CanonicalIdeal, _z2
from .lattice2 import _IDENTITY, _reduce, _thickness, _twist_ints
from .quadfield import (
    CertificateError,
    Form,
    QuadElem,
    _float,
    _int,
    _ints,
    _is_square,
    _quad,
    _rat,
    _rationals,
    _Record,
    _rho_walk,
    discriminant,
    fundamental_unit,
)
from .twist import wr_twist


def _form_value(f: Form, x: int, y: int) -> int:
    A, B, C = f
    return A * x * x + B * x * y + C * y * y


def form_minimum(f: Form) -> tuple[int, tuple[int, int]]:
    """Exact minimum of |f| over nonzero integer vectors, with a witness.

    The minimum of an integral indefinite form of non-square discriminant is
    attained among the leading coefficients of its cycle of reduced forms.
    `quadfield._rho_walk` runs into that cycle and round it, up to the first
    repeated form, keeping the least |leading coefficient| and its transform
    column.  That column, the witness, is re-checked once: |f| at it must be
    the minimum.  f must be a tuple of three ints (not bools), else
    TypeError.
    """
    if type(f) is not tuple or len(f) != 3 or not _ints(*f):
        raise TypeError("the form must be a tuple of three ints")
    disc = f[1] * f[1] - 4 * f[0] * f[2]
    if disc <= 0 or _is_square(disc):
        raise ValueError("need an indefinite form of non-square discriminant")
    best = abs(f[0])
    best_vec = (1, 0)
    seen = {f}
    for cur, x, y in _rho_walk(f):
        if abs(cur[0]) < best:
            best = abs(cur[0])
            best_vec = (x, y)
        if cur in seen:
            break
        seen.add(cur)
    x, y = best_vec
    if abs(_form_value(f, x, y)) != best:
        raise CertificateError(
            f"form cycle of ({_int(f[0])}, {_int(f[1])}, {_int(f[2])}): "
            f"transform column ({_int(x)}, {_int(y)}) does not represent the "
            f"minimum {_int(best)}")
    return best, best_vec


class NormSearchResult(_Record):
    """Minimum |N(z)| over nonzero z in I, with a witness element."""

    _fields = ("m", "witness", "coeffs", "attains_ideal_norm")

    def __init__(self, m: int, witness: QuadElem, coeffs: tuple[int, int],
                 attains_ideal_norm: bool):
        self.__dict__.update(m=m, witness=witness, coeffs=coeffs,
                             attains_ideal_norm=attains_ideal_norm)  # m == N(I)


def _norm_form(I: CanonicalIdeal) -> Form:
    """(N(z1), trace(z1*z2), N(z2)) of the basis z1 = a,
    z2 = (u + v*sqrt(D))/e: N(x*z1 + y*z2) is this form at (x, y)."""
    u, _, e, n = _z2(I.D, I.b, I.g)
    return (I.a * I.a, 2 * I.a * u // e, n)


def _normalize_coeffs(v: tuple[int, int]) -> tuple[int, int]:
    """Make the first nonzero coordinate positive."""
    x, y = v
    if x < 0 or (x == 0 and y < 0):
        return (-x, -y)
    return (x, y)


# The box 0 <= x <= _SCAN_BOX, |y| <= _SCAN_BOX of min_abs_norm's witness.
_SCAN_BOX = 40


def min_abs_norm(I: CanonicalIdeal) -> NormSearchResult:
    """Exact minimum m of |N(z)| over nonzero z in I, with a witness.

    The value comes from the form cycle.  The witness coefficients (x, y)
    are the least by (|x| + |y|, (x, y)) among the cycle witness (its first
    nonzero coordinate made positive) and the pairs of the fixed box
    0 <= x <= 40, |y| <= 40 with |N| = m, found by solving f(x, y) = +-m
    for y at each x; for skewed bases no box pair attains m and the cycle
    witness stands.  |N| of the witness is re-checked exactly.
    """
    if not isinstance(I, CanonicalIdeal):
        raise TypeError("I must be a CanonicalIdeal")
    f = _norm_form(I)
    A, B, C = f  # C = N(z2) != 0
    m, vec = form_minimum(f)
    candidates = [_normalize_coeffs(vec)]
    for x in range(0, _SCAN_BOX + 1):
        for target in (m, -m):
            disc = (B * x) ** 2 - 4 * C * (A * x * x - target)
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            for y_num in (-B * x - r, -B * x + r):
                y, rem = divmod(y_num, 2 * C)
                if rem == 0 and abs(y) <= _SCAN_BOX and (x, y) > (0, 0):
                    candidates.append((x, y))
    coeffs = min(candidates, key=lambda v: (abs(v[0]) + abs(v[1]), v))
    z1, z2 = I.basis_elements()
    witness = coeffs[0] * z1 + coeffs[1] * z2
    if abs(witness.norm()) != m:
        raise CertificateError(
            f"witness {witness} of {I} has |N| = {_rat(abs(witness.norm()))}, "
            f"not {_int(m)}")
    return NormSearchResult(m, witness, coeffs, m == I.norm())


def d_min_sq_twist(I: CanonicalIdeal, alpha: QuadElem) -> Fraction:
    """Exact squared minimum product distance of A(alpha) * L_K(I)."""
    if not isinstance(I, CanonicalIdeal):
        raise TypeError("I must be a CanonicalIdeal")
    if not isinstance(alpha, QuadElem):
        raise TypeError("alpha must be a QuadElem")
    if alpha.D != I.D:
        raise ValueError("mixed fields")
    if not alpha.is_totally_positive():
        raise ValueError("alpha must be totally positive")
    m = form_minimum(_norm_form(I))[0]
    return alpha.norm() * Fraction(m * m)


HEXAGONAL_THICKNESS_SQ = Fraction(4, 27)  # tau = 2/(3*sqrt(3)), global floor


class ThicknessSearchResult(_Record):
    _fields = ("tau_min_estimate", "argmin_t", "exact_tau_sq_at_argmin",
               "lower_bound")

    def __init__(self, tau_min_estimate: float, argmin_t: Fraction,
                 exact_tau_sq_at_argmin: Fraction, lower_bound: float):
        # tau_min_estimate is the sqrt of the exact thickness^2 at the best
        # t; lower_bound is the hexagonal thickness, a global lower bound
        self.__dict__.update(tau_min_estimate=tau_min_estimate,
                             argmin_t=argmin_t,
                             exact_tau_sq_at_argmin=exact_tau_sq_at_argmin,
                             lower_bound=lower_bound)


def _thickness_at(I: CanonicalIdeal, num: int, den: int,
                  U: tuple[int, int, int, int] = _IDENTITY
                  ) -> tuple[tuple[int, int], tuple[int, int, int, int]]:
    """hermite_thickness_sq at t + sqrt(D) for t = num/den as the integer
    pair `lattice2._thickness` gives on the pencil twist reduced from the
    basis U (`lattice2._reduce`), and the reduced basis."""
    R = _reduce(*_twist_ints(I, num, den), U)
    return _thickness(*R[:3]), R[3:]


# tau_min_search's grid points per unit period and golden-section steps.
_GRID = 32
_REFINE = 24


def tau_min_search(I: CanonicalIdeal) -> ThicknessSearchResult:
    """Upper bound on the minimal Hermite thickness along the twist orbit.

    Thickness is evaluated exactly at the WR twist t* when there is one,
    then at the rational t = geodesic._t_at(D, L) of a fixed uniform grid of
    32 log ratios L inside one unit period, in increasing t, then refined by
    24 golden-section steps in L around the best of them.  Each step keeps
    its surviving interior point and score and probes one new point (two on
    the first), so a call makes 57 probes, 58 with t*.  The reported value
    is the exact thickness at the best rational sample, so the estimate is
    a certified upper bound.  Probes are the ints (numerator, 2^k) of
    `_t_at`, each reduced once on the pencil integers (`_thickness_at`) and
    scored by one correctly rounded int / int; a probe replaces the best
    only on a strictly smaller score, so t* wins a float tie and a grid tie
    goes to the least t.  The returned t and thickness are the winning
    probe's, built as Fractions once.

    Each probe's reduction starts from a nearby probe's reduced basis, which
    gives a cold reduction's thickness (`lattice2._reduce`): a grid probe
    from the previous probe's, the first refinement probe from the best
    probe's.  On O_K(9999991) the search takes 5,562 Lagrange steps,
    against 54,822 from the identity basis.  I must be a CanonicalIdeal,
    else TypeError.

    When the WR twist is hexagonal (2|g12| = g11 = g22), t* scores the
    global floor HEXAGONAL_THICKNESS_SQ.  Every probe's exact thickness is
    at least that floor, and a correctly rounded score is monotone, so no
    later probe scores strictly less: the search returns argmin_t = t* and
    exactly that floor, the true minimum.
    """
    if not isinstance(I, CanonicalIdeal):
        raise TypeError("I must be a CanonicalIdeal")
    D = I.D
    _, eps_plus = fundamental_unit(D)
    log_period = _log_ratio(eps_plus)
    best_val, best_t, best_tau_sq, best_U = math.inf, None, None, None
    U = _IDENTITY

    def probe(t: tuple[int, int]) -> float:
        nonlocal best_val, best_t, best_tau_sq, best_U, U
        tau_sq, U = _thickness_at(I, *t, U)
        n, d = tau_sq
        f = n / d
        if f < best_val:
            best_val, best_t, best_tau_sq, best_U = f, t, tau_sq, U
        return f

    verdict = wr_twist(I)
    if verdict.wr_twistable:
        probe((verdict.t_star.numerator, verdict.t_star.denominator))
    # t falls as L grows, so this is the grid in increasing t
    for k in range(_GRID, 0, -1):
        probe(_t_at(D, log_period * k / (_GRID + 1)))

    # golden-section refinement around the best sample, from its basis
    (num, den), U = best_t, best_U
    mid = _log_ratio(_quad(D, num, den, den))
    a, b = mid - log_period / (_GRID + 1), mid + log_period / (_GRID + 1)
    L_min = log_period * 1e-6
    phi = (math.sqrt(5) - 1) / 2
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = probe(_t_at(D, max(c, L_min))), probe(_t_at(D, max(d, L_min)))
    # each later step shrinks the bracket by phi and probes its new point
    for _ in range(_REFINE - 1):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = probe(_t_at(D, max(c, L_min)))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = probe(_t_at(D, max(d, L_min)))
    exact = Fraction(*best_tau_sq)
    num, den = exact.numerator, exact.denominator
    return ThicknessSearchResult(_float(0, 1, num * den, den), Fraction(*best_t),
                                 exact, _float(0, 2, 3, 9))  # sqrt(4/27) = 2*sqrt(3)/9


class EuclideanBoundReport(_Record):
    _fields = ("D", "disc", "field_bound", "euclidean_certified", "ideal_bound",
               "ideal_bound_lt_one")

    def __init__(self, D: int, disc: int, field_bound: float,
                 euclidean_certified: bool, ideal_bound: float | None = None,
                 ideal_bound_lt_one: bool | None = None):
        # field_bound is sqrt(disc)/4, certified when disc < 16; ideal_bound
        # is the float companion of the per-ideal bound, math.inf beyond
        # float range, and the exact "< 1" verdict is ideal_bound_lt_one
        self.__dict__.update(D=D, disc=disc, field_bound=field_bound,
                             euclidean_certified=euclidean_certified,
                             ideal_bound=ideal_bound,
                             ideal_bound_lt_one=ideal_bound_lt_one)


def euclidean_bounds(D: int, I: CanonicalIdeal | None = None,
                     tau_min_sq: Fraction | None = None) -> EuclideanBoundReport:
    """Euclidean-minimum bounds: M(K) <= sqrt(disc)/4 with the exact "< 1"
    verdict, and the per-ideal bound (tau_min/2) * sqrt(disc) * N(I) when a
    thickness certificate is supplied.  tau_min_sq must be an int or a
    Fraction (not a bool), else TypeError."""
    if not (tau_min_sq is None or _rationals(tau_min_sq)):
        raise TypeError("tau_min_sq must be an int or a Fraction")
    if not (I is None or isinstance(I, CanonicalIdeal)):
        raise TypeError("I must be a CanonicalIdeal or None")
    dk = discriminant(D)  # checks D
    if I is not None and I.D != D:
        raise ValueError("mixed fields")
    field_bound = _float(0, 1, dk, 4)
    ideal_bound = None
    lt_one = None
    if I is not None and tau_min_sq is not None:
        # with tau^2 = n/d the bound is sqrt(m*d)/(2d) for m = n*disc*N(I)^2,
        # and it is below 1 iff m < 4d
        n, d = tau_min_sq.numerator, tau_min_sq.denominator
        m = n * dk * I.norm() ** 2
        ideal_bound = _float(0, 1, m * d, 2 * d)
        lt_one = m < 4 * d
    return EuclideanBoundReport(D, dk, field_bound, dk < 16, ideal_bound, lt_one)
