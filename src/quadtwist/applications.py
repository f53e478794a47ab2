"""Diversity and Euclidean-minimum instrumentation for twisted ideal lattices.

d_min of a twisted ideal lattice factors exactly: the product of the embedded
coordinates of z under A(alpha) is sqrt(N(alpha)) * N(z), so
d_min^2 = N(alpha) * (min |N(z)|)^2.  The minimal |N(z)| over an ideal is the
minimum of an integral indefinite binary quadratic form, computed exactly by
traversing its cycle of reduced forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ideals import CanonicalIdeal
from .lattice2 import gram_of_twist, hermite_thickness_sq
from .quadfield import (
    CertificateError,
    QuadElem,
    _t_plus_sqrt,
    check_field,
    discriminant,
    fundamental_unit,
)
from .twist import wr_twist

Form = tuple[int, int, int]  # integral (A, B, C), disc = B^2 - 4AC > 0


def _form_value(f: Form, x: int, y: int) -> int:
    A, B, C = f
    return A * x * x + B * x * y + C * y * y


def _rho_step(f: Form) -> tuple[Form, int]:
    """One reduction step f -> (C, r, (r^2 - disc)/(4C)); returns the new form
    and the integer s with transform matrix [[0, -1], [1, s]]."""
    A, B, C = f
    disc = B * B - 4 * A * C
    sq = math.isqrt(disc)
    ac = abs(C)
    # r = -B mod 2|C|, shifted into the classical window
    r = (-B) % (2 * ac)
    if ac > sq:
        if r > ac:
            r -= 2 * ac
    else:
        # want sq - 2|C| < r <= sq  (integer window of width 2|C|)
        r += ((sq - r) // (2 * ac)) * (2 * ac)
    s = (B + r) // (2 * C)
    new = (C, r, (r * r - disc) // (4 * C))
    return new, s


def form_minimum(f: Form, max_steps: int = 10000) -> tuple[int, tuple[int, int]]:
    """Exact minimum of |f| over nonzero integer vectors, with a witness.

    The minimum of an integral indefinite form of non-square discriminant is
    attained among the leading coefficients of its cycle of reduced forms.
    The walk tracks the accumulated unimodular transform, so every candidate
    comes with the coefficient vector attaining it.
    """
    disc = f[1] * f[1] - 4 * f[0] * f[2]
    if disc <= 0 or math.isqrt(disc) ** 2 == disc:
        raise ValueError("need an indefinite form of non-square discriminant")
    cur = f
    # columns of the accumulated transform: current form = f o U
    u11, u12, u21, u22 = 1, 0, 0, 1
    best = abs(f[0])
    best_vec = (1, 0)
    seen: dict[Form, int] = {}
    for step in range(max_steps):
        if cur in seen:
            break
        seen[cur] = step
        cur, s = _rho_step(cur)
        # U <- U @ [[0, -1], [1, s]]
        u11, u12 = u12, -u11 + s * u12
        u21, u22 = u22, -u21 + s * u22
        if _form_value(f, u11, u21) != cur[0]:
            raise CertificateError(
                f"form cycle of {f}: transform column ({u11}, {u21}) does not "
                f"represent the leading coefficient {cur[0]}")
        if abs(cur[0]) < best:
            best = abs(cur[0])
            best_vec = (u11, u21)
    else:
        raise RuntimeError("form cycle did not close")
    return best, best_vec


@dataclass(frozen=True)
class NormSearchResult:
    """Minimum |N(z)| over nonzero z in I, with a witness element."""

    m: int
    witness: QuadElem
    coeffs: tuple[int, int]
    attains_ideal_norm: bool  # m == N(I)


def _norm_form(I: CanonicalIdeal) -> Form:
    z1, z2 = I.basis_elements()
    A = int(z1.norm())
    B = int((z1 * z2).trace())
    C = int(z2.norm())
    return (A, B, C)


def _normalize_coeffs(v: tuple[int, int]) -> tuple[int, int]:
    """Make the first nonzero coordinate positive."""
    x, y = v
    if x < 0 or (x == 0 and y < 0):
        return (-x, -y)
    return (x, y)


def min_abs_norm(I: CanonicalIdeal, scan_box: int = 40) -> NormSearchResult:
    """Exact minimum of |N(z)| over nonzero z in I.

    The value comes from the form cycle; the witness is the canonical
    smallest attaining coefficient pair in the scan box 0 <= x <= scan_box,
    |y| <= scan_box, found by solving f(x, y) = +-m for y at each x, falling
    back to the cycle witness for skewed bases.
    """
    f = _norm_form(I)
    A, B, C = f  # C = N(z2) != 0
    m, vec = form_minimum(f)
    candidates = [_normalize_coeffs(vec)]
    for x in range(0, scan_box + 1):
        for target in (m, -m):
            disc = (B * x) ** 2 - 4 * C * (A * x * x - target)
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            for y_num in (-B * x - r, -B * x + r):
                y, rem = divmod(y_num, 2 * C)
                if rem == 0 and abs(y) <= scan_box and (x, y) > (0, 0):
                    candidates.append((x, y))
    coeffs = min(candidates, key=lambda v: (abs(v[0]) + abs(v[1]), v))
    z1, z2 = I.basis_elements()
    witness = coeffs[0] * z1 + coeffs[1] * z2
    if abs(witness.norm()) != m:
        raise CertificateError(
            f"witness {witness} of {I} has |N| = {abs(witness.norm())}, not {m}")
    return NormSearchResult(m, witness, coeffs, m == I.norm())


def d_min_sq_twist(I: CanonicalIdeal, alpha: QuadElem) -> Fraction:
    """Exact squared minimum product distance of A(alpha) * L_K(I)."""
    if not alpha.is_totally_positive():
        raise ValueError("alpha must be totally positive")
    m = min_abs_norm(I).m
    return alpha.norm() * Fraction(m * m)


HEXAGONAL_THICKNESS_SQ = Fraction(4, 27)  # tau = 2/(3*sqrt(3)), global floor


@dataclass(frozen=True)
class ThicknessSearchResult:
    tau_min_estimate: float  # sqrt of the exact thickness^2 at the best t
    argmin_t: Fraction
    exact_tau_sq_at_argmin: Fraction
    lower_bound: float  # hexagonal thickness, global lower bound


def _thickness_at(I: CanonicalIdeal, t: Fraction) -> Fraction:
    return hermite_thickness_sq(gram_of_twist(I, _t_plus_sqrt(I.D, t)))


def tau_min_search(I: CanonicalIdeal, grid: int = 32, refine: int = 24) -> ThicknessSearchResult:
    """Upper bound on the minimal Hermite thickness along the twist orbit.

    Thickness is evaluated exactly at rational t on a geometric grid covering
    one unit period of the embedding ratio, then golden-section refined; the
    reported value is the exact thickness at the best rational sample, so the
    estimate is a certified upper bound and non-increasing in grid size.
    """
    if grid < 8:
        raise ValueError("need grid >= 8")
    D = I.D
    _, eps_plus = fundamental_unit(D)
    log_period = 2 * math.log(float(eps_plus))

    def t_of_logs(ls: float) -> Fraction:
        s = math.exp(max(ls, log_period * 1e-6))
        t = Fraction(math.sqrt(D) * (s + 1) / (s - 1)).limit_denominator(10**6)
        while not t * t > D:
            t += 1
        return t

    candidates: list[Fraction] = []
    for k in range(1, grid + 1):
        candidates.append(t_of_logs(log_period * k / (grid + 1)))
    verdict = wr_twist(I)
    if verdict.wr_twistable:
        candidates.append(verdict.t_star)
    scored = [(float(_thickness_at(I, t)), t) for t in candidates]
    scored.sort()
    best_val, best_t = scored[0]
    # golden-section refinement in log-ratio space around the best sample
    def log_ratio(t: Fraction) -> float:
        ft = float(t)
        return math.log((ft + math.sqrt(D)) / (ft - math.sqrt(D)))

    lo = log_ratio(best_t) - log_period / (grid + 1)
    hi = log_ratio(best_t) + log_period / (grid + 1)
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    for _ in range(refine):
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        tc, td = t_of_logs(c), t_of_logs(d)
        fc, fd = float(_thickness_at(I, tc)), float(_thickness_at(I, td))
        if fc < best_val:
            best_val, best_t = fc, tc
        if fd < best_val:
            best_val, best_t = fd, td
        if fc < fd:
            b = d
        else:
            a = c
    exact = _thickness_at(I, best_t)
    return ThicknessSearchResult(
        math.sqrt(exact), best_t, exact, math.sqrt(HEXAGONAL_THICKNESS_SQ)
    )


@dataclass(frozen=True)
class EuclideanBoundReport:
    D: int
    disc: int
    field_bound: float  # sqrt(disc)/4
    euclidean_certified: bool  # exact: disc < 16
    ideal_bound: Optional[float] = None
    ideal_bound_lt_one: Optional[bool] = None


def euclidean_bounds(D: int, I: Optional[CanonicalIdeal] = None,
                     tau_min_sq: Optional[Fraction] = None) -> EuclideanBoundReport:
    """Euclidean-minimum bounds: M(K) <= sqrt(disc)/4 with the exact "< 1"
    verdict, and the per-ideal bound (tau_min/2) * sqrt(disc) * N(I) when a
    thickness certificate is supplied."""
    check_field(D)
    dk = discriminant(D)
    field_bound = math.sqrt(dk) / 4
    ideal_bound = None
    lt_one = None
    if I is not None and tau_min_sq is not None:
        tau = math.sqrt(tau_min_sq)
        ideal_bound = (tau / 2) * math.sqrt(dk) * I.norm()
        # bound < 1 iff tau^2 * disc * N(I)^2 < 4, exact in tau^2
        lt_one = Fraction(tau_min_sq) * dk * I.norm() ** 2 < 4
    return EuclideanBoundReport(D, dk, field_bound, dk < 16, ideal_bound, lt_one)
