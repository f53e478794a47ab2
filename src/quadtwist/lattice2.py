"""Exact planar lattice geometry through rational Gram matrices.

The single load-bearing identity: for a twisted ideal lattice A(alpha)*L_K(I)
with basis (z1, z2), every inner product is trace(alpha * z_i * z_j), which is
a rational number.  All predicates below therefore operate on exact rational
Gram matrices, never on the irrational embedded basis vectors.  A Gram matrix
is held as three integers over one common denominator, and the predicates
compute on those integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ideals import CanonicalIdeal
from .quadfield import QuadElem, Rational

Vec2 = tuple[int, int]
_new = object.__new__


class Gram2:
    """Positive definite symmetric 2x2 matrix with exact rational entries.

    Held as the integers (n11, n12, n22, den) of [[n11, n12], [n12, n22]]/den
    in canonical form, den > 0 and gcd(n11, n12, n22, den) = 1, so equal
    matrices have equal fields.  g11, g12 and g22 are read-only Fraction
    views.  Every construction checks positive definiteness, on the integers.
    """

    __slots__ = ("_n11", "_n12", "_n22", "_den")

    def __init__(self, g11: Rational, g12: Rational, g22: Rational):
        g11, g12, g22 = Fraction(g11), Fraction(g12), Fraction(g22)
        # The entries are in lowest terms, so this form is already canonical.
        den = math.lcm(g11.denominator, g12.denominator, g22.denominator)
        _fill_gram(self, g11.numerator * (den // g11.denominator),
                   g12.numerator * (den // g12.denominator),
                   g22.numerator * (den // g22.denominator), den)

    @staticmethod
    def of(g11: Rational, g12: Rational, g22: Rational) -> "Gram2":
        return Gram2(g11, g12, g22)

    def __reduce__(self):
        return (_gram, (self._n11, self._n12, self._n22, self._den))

    g11 = property(lambda self: Fraction(self._n11, self._den))
    g12 = property(lambda self: Fraction(self._n12, self._den))
    g22 = property(lambda self: Fraction(self._n22, self._den))

    def det(self) -> Fraction:
        return Fraction(self._n11 * self._n22 - self._n12 * self._n12,
                        self._den * self._den)

    def value(self, v: Vec2) -> Fraction:
        m, n = v
        return Fraction(self._n11 * m * m + 2 * self._n12 * m * n
                        + self._n22 * n * n, self._den)

    def transform(self, u: "UnimodularMap") -> "Gram2":
        """Gram of the same lattice in the basis (b1, b2) * U."""
        a, b, c, d = u.a, u.b, u.c, u.d
        n11, n12, n22 = self._n11, self._n12, self._n22
        return _gram(n11 * a * a + 2 * n12 * a * c + n22 * c * c,
                     n11 * a * b + n12 * (a * d + b * c) + n22 * c * d,
                     n11 * b * b + 2 * n12 * b * d + n22 * d * d, self._den)

    def entries(self) -> tuple[Fraction, Fraction, Fraction]:
        return self.g11, self.g12, self.g22

    def __eq__(self, other):
        if isinstance(other, Gram2):
            return (self._n11 == other._n11 and self._n12 == other._n12
                    and self._n22 == other._n22 and self._den == other._den)
        return NotImplemented

    def __hash__(self):
        return hash((self._n11, self._n12, self._n22, self._den))

    def __repr__(self):
        return f"Gram2(g11={self.g11!r}, g12={self.g12!r}, g22={self.g22!r})"

    def __str__(self):
        return f"[[{self.g11}, {self.g12}], [{self.g12}, {self.g22}]]"


def _fill_gram(G: Gram2, n11: int, n12: int, n22: int, den: int) -> Gram2:
    """Set the fields of a Gram2 from a canonical (n11, n12, n22, den) and
    check positive definiteness."""
    G._n11, G._n12, G._n22, G._den = n11, n12, n22, den
    if n11 <= 0 or n11 * n22 - n12 * n12 <= 0:
        raise ValueError(f"not positive definite: {G}")
    return G


def _gram(n11: int, n12: int, n22: int, den: int) -> Gram2:
    """[[n11, n12], [n12, n22]]/den for den > 0, in lowest terms."""
    g = math.gcd(n11, n12, n22, den)
    if g != 1:
        n11, n12, n22, den = n11 // g, n12 // g, n22 // g, den // g
    return _fill_gram(_new(Gram2), n11, n12, n22, den)


@dataclass(frozen=True)
class UnimodularMap:
    """Integer 2x2 matrix [[a, b], [c, d]] with determinant +-1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c) != 1:
            raise ValueError(f"determinant must be +-1: {self}")

    @staticmethod
    def identity() -> "UnimodularMap":
        return UnimodularMap(1, 0, 0, 1)

    def __matmul__(self, other: "UnimodularMap") -> "UnimodularMap":
        return UnimodularMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> int:
        return self.a * self.d - self.b * self.c


def _pencil(I: CanonicalIdeal) -> tuple[int, int, int, int, int, int]:
    """(P11, P12, P22, Q11, Q12, Q22) of the integer pencil t*P + Q, which
    is e/2 times the twisted Gram of the canonical basis along
    alpha = t + sqrt(D).

    For z1 = a and z2 = (u + v*sqrt(D))/e over delta's own denominator e,
    P = (e/2)*[trace(z_i*z_j)] = (a^2*e, a*u, (u^2 + D*v^2)/e) and
    Q = (e/2)*[trace(sqrt(D)*z_i*z_j)] = (0, a*D*v, 2*D*u*v/e), with
    det(t*P + Q) = N(I)^2 * D * (t^2 - D).
    """
    D, a = I.D, I.a
    u, v, e = I._z2_ints()
    return (a * a * e, a * u, (u * u + D * v * v) // e,
            0, a * D * v, 2 * D * u * v // e)


def gram_of_twist(I: CanonicalIdeal, alpha: QuadElem) -> Gram2:
    """Exact Gram matrix of A(alpha)*L_K(I) in the canonical basis.

    G_ij = trace(alpha * z_i * z_j); det G = N(alpha) * N(I)^2 * Delta_K.
    G is linear in alpha: for alpha = (p + q*sqrt(D))/d it is
    2*(p*P + q*Q)/(d*e) with the integer pencil (P, Q) of `_pencil`,
    whose det(t*P + Q) = N(I)^2 * D * (t^2 - D).
    """
    if alpha.D != I.D:
        raise ValueError("alpha must live in the same field as I")
    if not alpha.is_totally_positive():
        raise ValueError(f"alpha = {alpha} is not totally positive")
    P11, P12, P22, Q11, Q12, Q22 = _pencil(I)
    p, q, d = alpha.p, alpha.q, alpha.d
    _, _, e = I._z2_ints()
    return _gram(2 * (p * P11 + q * Q11), 2 * (p * P12 + q * Q12),
                 2 * (p * P22 + q * Q22), d * e)


def lagrange_reduce(G: Gram2) -> tuple[Gram2, UnimodularMap]:
    """Classical Lagrange-Gauss reduction of a planar Gram matrix.

    The result R satisfies r11 <= r22 and 2|r12| <= r11, with r12 >= 0 by the
    sign convention (negating the second vector when needed).  The returned
    map U transports the input basis to the reduced one: R = U^t G U.
    Ties (r11 = r22 or 2|r12| = r11) are left as already reduced.  The loop
    runs on the integer numerators of G over its denominator, with the
    transform [[a, b], [c, d]] as four ints.
    """
    n11, n12, n22, den = G._n11, G._n12, G._n22, G._den
    a, b, c, d = 1, 0, 0, 1
    while True:
        if n11 > n22:
            n11, n22 = n22, n11
            a, b, c, d = b, a, d, c
        if 2 * abs(n12) <= n11:
            break
        # r = n12/n11 rounded half to even, as round() on a Fraction
        r, rem = divmod(n12, n11)
        if 2 * rem > n11 or (2 * rem == n11 and r & 1):
            r += 1
        # v2 <- v2 - r*v1
        n22 = n22 - 2 * r * n12 + r * r * n11
        n12 = n12 - r * n11
        b, d = b - r * a, d - r * c
    if n11 > n22:
        n11, n22 = n22, n11
        a, b, c, d = b, a, d, c
    if n12 < 0:
        n12 = -n12
        b, d = -b, -d
    return _gram(n11, n12, n22, den), UnimodularMap(a, b, c, d)


# Predicates of an already Lagrange-reduced R (0 <= 2*r12 <= r11 <= r22),
# whose diagonal holds the successive minima.  The public predicates reduce
# once and call these; a caller holding R calls them directly.

def _wr_reduced(R: Gram2) -> bool:
    return R._n11 == R._n22


def _stable_reduced(R: Gram2) -> bool:
    n11 = R._n11
    return n11 * R._n22 - R._n12 * R._n12 <= n11 * n11


def _similarity_reduced(R: Gram2) -> "SimilarityPoint":
    # tau = (r12 + i*sqrt(det R))/r11 has 0 <= x <= 1/2 and
    # |tau|^2 = r22/r11 >= 1: it already lies in the half-domain.
    n11, n12 = R._n11, R._n12
    return SimilarityPoint(Fraction(n12, n11),
                           Fraction(n11 * R._n22 - n12 * n12, n11 * n11))


def successive_minima(G: Gram2) -> tuple[Fraction, Fraction]:
    """Exact squared successive minima (the diagonal after reduction)."""
    R, _ = lagrange_reduce(G)
    return R.g11, R.g22


def minima_brute_force(G: Gram2, box: int = 25) -> tuple[Fraction, Fraction]:
    """Independent oracle: exhaustive enumeration over |m|, |n| <= box.

    Returns the two smallest squared norms over linearly independent vectors;
    only trustworthy when the box is large enough for the lattice at hand.
    """
    n11, n12, n22 = G._n11, G._n12, G._n22
    best: list[tuple[int, Vec2]] = []
    for m in range(-box, box + 1):
        for n in range(0, box + 1):
            if n == 0 and m <= 0:
                continue
            best.append((n11 * m * m + 2 * n12 * m * n + n22 * n * n, (m, n)))
    best.sort(key=lambda t: t[0])
    q1, v1 = best[0]
    for q2, v2 in best[1:]:
        if v1[0] * v2[1] - v1[1] * v2[0] != 0:
            return Fraction(q1, G._den), Fraction(q2, G._den)
    raise ValueError("enumeration box too small")


def is_paper_reduced(G: Gram2) -> bool:
    """Weak planar reduction: basis angle within [pi/3, 2*pi/3].

    Equivalent to 4*g12^2 <= g11*g22; the diagonal ordering is ignored since
    swapping the basis vectors is unimodular.
    """
    return 4 * G._n12 * G._n12 <= G._n11 * G._n22


def is_lagrange_reduced(G: Gram2) -> bool:
    """Classical reduction up to a swap: 2|g12| <= min(g11, g22)."""
    return 2 * abs(G._n12) <= min(G._n11, G._n22)


def is_wr(G: Gram2) -> bool:
    """Well-rounded: both successive minima coincide."""
    return _wr_reduced(lagrange_reduce(G)[0])


def is_stable(G: Gram2) -> bool:
    """Stable in the plane: volume <= lambda_1^2, i.e. det G <= lambda_1^4."""
    return _stable_reduced(lagrange_reduce(G)[0])


def _deep_hole(R: Gram2) -> tuple[int, int]:
    """(r11*r22*(r11 + r22 - 2*r12), det) on the numerators of a reduced R."""
    n11, n12, n22 = R._n11, R._n12, R._n22
    return n11 * n22 * (n11 + n22 - 2 * n12), n11 * n22 - n12 * n12


def covering_radius_sq(G: Gram2) -> Fraction:
    """Exact squared covering radius.

    After reduction with g12 >= 0 the fundamental triangle (0, v1, v1 - v2) is
    non-obtuse and the deep hole is its circumcenter:
    mu^2 = g11*g22*(g11 + g22 - 2*g12) / (4*det).
    """
    R, _ = lagrange_reduce(G)
    num, det = _deep_hole(R)
    return Fraction(num, 4 * R._den * det)


def hermite_thickness_sq(G: Gram2) -> Fraction:
    """tau^2 = mu^4 / det G (scale invariant; n = 2)."""
    num, det = _deep_hole(lagrange_reduce(G)[0])
    return Fraction(num * num, 16 * det * det * det)


def hermite_thickness(G: Gram2) -> float:
    return math.sqrt(hermite_thickness_sq(G))


def wr_stretch(G: Gram2) -> tuple[Fraction, int, Fraction]:
    """Similarity invariants of the WR lattice obtained by cross-scaling.

    For a Lagrange-reduced basis, (lambda_2*v1, lambda_1*v2) spans a WR
    lattice with both squared norms g11*g22 and the same cosine.  Returns
    (cos^2, sign of cos, common squared norm).  Non-reduced input rejected.
    """
    if not is_lagrange_reduced(G):
        raise ValueError("wr_stretch requires a Lagrange-reduced Gram")
    n11, n12, n22 = G._n11, G._n12, G._n22
    cos_sq = Fraction(n12 * n12, n11 * n22)
    sign = (n12 > 0) - (n12 < 0)
    return cos_sq, sign, Fraction(n11 * n22, G._den * G._den)


@dataclass(frozen=True)
class SimilarityPoint:
    """Point tau = x + i*sqrt(y_sq) in the upper half-plane, kept exact."""

    x: Fraction
    y_sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y_sq", Fraction(self.y_sq))
        if self.y_sq <= 0:
            raise ValueError("point must lie in the upper half-plane")

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y_sq

    def as_floats(self) -> tuple[float, float]:
        return float(self.x), math.sqrt(self.y_sq)


def similarity_point(G: Gram2) -> SimilarityPoint:
    """Similarity class of the lattice as a point of the fundamental domain."""
    return _similarity_reduced(lagrange_reduce(G)[0])


def reduce_to_fundamental(tau: SimilarityPoint) -> SimilarityPoint:
    """SL2(Z) reduction of tau into |x| <= 1/2, x^2 + y^2 >= 1, then the
    fold x -> |x| into the similarity-class half-domain."""
    x, y2 = tau.x, tau.y_sq
    while True:
        x = x - round(x)
        n = x * x + y2
        if n >= 1:
            break
        x, y2 = -x / n, y2 / (n * n)
    return SimilarityPoint(abs(x), y2)
