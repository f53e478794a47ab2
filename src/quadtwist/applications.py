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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .geodesic import _log_ratio, _t_at
from .ideals import CanonicalIdeal
from .lattice2 import _deep_hole, _reduce, _twist_ints, gram_of_twist, hermite_thickness_sq
from .quadfield import (
    CertificateError,
    Form,
    QuadElem,
    _int,
    _is_square,
    _rat,
    _rat_repr,
    _rho_walk,
    _t_plus_sqrt,
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
    the minimum.
    """
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


@dataclass(frozen=True)
class NormSearchResult:
    """Minimum |N(z)| over nonzero z in I, with a witness element."""

    m: int
    witness: QuadElem
    coeffs: tuple[int, int]
    attains_ideal_norm: bool  # m == N(I)


def _norm_form(I: CanonicalIdeal) -> Form:
    """(N(z1), trace(z1*z2), N(z2)) of the basis z1 = a,
    z2 = (u + v*sqrt(D))/e: N(x*z1 + y*z2) is this form at (x, y)."""
    a, (u, v, e) = I.a, I._uve
    return (a * a, 2 * a * u // e, (u * u - I.D * v * v) // (e * e))


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
    if alpha.D != I.D:
        raise ValueError("mixed fields")
    if not alpha.is_totally_positive():
        raise ValueError("alpha must be totally positive")
    m = form_minimum(_norm_form(I))[0]
    return alpha.norm() * Fraction(m * m)


HEXAGONAL_THICKNESS_SQ = Fraction(4, 27)  # tau = 2/(3*sqrt(3)), global floor


@dataclass(frozen=True)
class ThicknessSearchResult:
    tau_min_estimate: float  # sqrt of the exact thickness^2 at the best t
    argmin_t: Fraction
    exact_tau_sq_at_argmin: Fraction
    lower_bound: float  # hexagonal thickness, global lower bound

    def __repr__(self):
        return (f"ThicknessSearchResult(tau_min_estimate={self.tau_min_estimate!r}, "
                f"argmin_t={_rat_repr(self.argmin_t)}, exact_tau_sq_at_argmin="
                f"{_rat_repr(self.exact_tau_sq_at_argmin)}, "
                f"lower_bound={self.lower_bound!r})")


def _thickness_at(I: CanonicalIdeal, t: Fraction) -> float:
    """float(hermite_thickness_sq) at t + sqrt(D), bit for bit: the ratio is
    scale invariant, so no gcd is taken, and int / int rounds correctly."""
    num, det = _deep_hole(*_reduce(*_twist_ints(I, t.numerator, t.denominator))[:3])
    return num * num / (16 * det ** 3)


# tau_min_search's grid points per unit period and golden-section steps.
_GRID = 32
_REFINE = 24


def tau_min_search(I: CanonicalIdeal) -> ThicknessSearchResult:
    """Upper bound on the minimal Hermite thickness along the twist orbit.

    Thickness is evaluated exactly at the rational t = geodesic._t_at(D, L)
    of a fixed uniform grid of 32 log ratios L inside one unit period, and
    at the WR twist t* when there is one, then refined by 24 golden-section
    steps in L around the best of them.  The reported value is the exact
    thickness at the best rational sample, so the estimate is a certified
    upper bound.  Probes are scored on the pencil integers (`_thickness_at`);
    only the returned thickness is built as a Fraction.
    """
    D = I.D
    _, eps_plus = fundamental_unit(D)
    log_period = _log_ratio(eps_plus)
    candidates = [_t_at(D, log_period * k / (_GRID + 1)) for k in range(1, _GRID + 1)]
    verdict = wr_twist(I)
    if verdict.wr_twistable:
        candidates.append(verdict.t_star)
    best_val, best_t = min((_thickness_at(I, t), t) for t in candidates)
    # golden-section refinement in log-ratio space around the best sample
    mid = _log_ratio(_t_plus_sqrt(D, best_t))
    a, b = mid - log_period / (_GRID + 1), mid + log_period / (_GRID + 1)
    phi = (math.sqrt(5) - 1) / 2
    for _ in range(_REFINE):
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        tc = _t_at(D, max(c, log_period * 1e-6))
        td = _t_at(D, max(d, log_period * 1e-6))
        fc, fd = _thickness_at(I, tc), _thickness_at(I, td)
        if fc < best_val:
            best_val, best_t = fc, tc
        if fd < best_val:
            best_val, best_t = fd, td
        if fc < fd:
            b = d
        else:
            a = c
    exact = hermite_thickness_sq(gram_of_twist(I, _t_plus_sqrt(D, best_t)))
    return ThicknessSearchResult(
        math.sqrt(exact), best_t, exact, math.sqrt(HEXAGONAL_THICKNESS_SQ)
    )


@dataclass(frozen=True)
class EuclideanBoundReport:
    D: int
    disc: int
    field_bound: float  # sqrt(disc)/4
    euclidean_certified: bool  # exact: disc < 16
    # float companion of the per-ideal bound, math.inf beyond float range;
    # the exact "< 1" verdict is ideal_bound_lt_one
    ideal_bound: Optional[float] = None
    ideal_bound_lt_one: Optional[bool] = None


def euclidean_bounds(D: int, I: Optional[CanonicalIdeal] = None,
                     tau_min_sq: Optional[Fraction] = None) -> EuclideanBoundReport:
    """Euclidean-minimum bounds: M(K) <= sqrt(disc)/4 with the exact "< 1"
    verdict, and the per-ideal bound (tau_min/2) * sqrt(disc) * N(I) when a
    thickness certificate is supplied."""
    dk = discriminant(D)  # checks D
    if I is not None and I.D != D:
        raise ValueError("mixed fields")
    field_bound = math.sqrt(dk) / 4
    ideal_bound = None
    lt_one = None
    if I is not None and tau_min_sq is not None:
        norm = I.norm()
        # N(I) = m * 2^k with m below 2^64 converts to float; ldexp then
        # raises OverflowError only for a bound beyond float range
        k = max(norm.bit_length() - 64, 0)
        try:
            tau = math.sqrt(tau_min_sq)
            ideal_bound = math.ldexp((tau / 2) * math.sqrt(dk) * (norm >> k), k)
        except OverflowError:
            ideal_bound = math.inf
        # bound < 1 iff tau^2 * disc * N(I)^2 < 4, exact in tau^2
        lt_one = Fraction(tau_min_sq) * dk * norm ** 2 < 4
    return EuclideanBoundReport(D, dk, field_bound, dk < 16, ideal_bound, lt_one)
