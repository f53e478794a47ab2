"""Exact planar lattice geometry through rational Gram matrices.

The single load-bearing identity: for a twisted ideal lattice A(alpha)*L_K(I)
with basis (z1, z2), every inner product is trace(alpha * z_i * z_j), which is
a rational number.  All predicates below therefore operate on exact rational
Gram matrices, never on the irrational embedded basis vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ideals import CanonicalIdeal
from .quadfield import QuadElem

Vec2 = tuple[int, int]


@dataclass(frozen=True)
class Gram2:
    """Positive definite symmetric 2x2 matrix with exact rational entries."""

    g11: Fraction
    g12: Fraction
    g22: Fraction

    def __post_init__(self):
        g11, g12, g22 = (Fraction(v) for v in (self.g11, self.g12, self.g22))
        object.__setattr__(self, "g11", g11)
        object.__setattr__(self, "g12", g12)
        object.__setattr__(self, "g22", g22)
        if g11 <= 0 or g11 * g22 - g12 * g12 <= 0:
            raise ValueError(f"not positive definite: {self}")

    @staticmethod
    def of(g11, g12, g22) -> "Gram2":
        return Gram2(Fraction(g11), Fraction(g12), Fraction(g22))

    def det(self) -> Fraction:
        return self.g11 * self.g22 - self.g12 * self.g12

    def value(self, v: Vec2) -> Fraction:
        m, n = v
        return self.g11 * m * m + 2 * self.g12 * m * n + self.g22 * n * n

    def transform(self, u: "UnimodularMap") -> "Gram2":
        """Gram of the same lattice in the basis (b1, b2) * U."""
        a, b, c, d = u.a, u.b, u.c, u.d
        g11 = self.value((a, c))
        g22 = self.value((b, d))
        g12 = self.g11 * a * b + self.g12 * (a * d + b * c) + self.g22 * c * d
        return Gram2(g11, g12, g22)

    def entries(self) -> tuple[Fraction, Fraction, Fraction]:
        return self.g11, self.g12, self.g22

    def __str__(self):
        return f"[[{self.g11}, {self.g12}], [{self.g12}, {self.g22}]]"


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


def gram_of_twist(I: CanonicalIdeal, alpha: QuadElem) -> Gram2:
    """Exact Gram matrix of A(alpha)*L_K(I) in the canonical basis.

    G_ij = trace(alpha * z_i * z_j); det G = N(alpha) * N(I)^2 * Delta_K.
    """
    if alpha.D != I.D:
        raise ValueError("alpha must live in the same field as I")
    if not alpha.is_totally_positive():
        raise ValueError(f"alpha = {alpha} is not totally positive")
    z1, z2 = I.basis_elements()
    return Gram2(
        (alpha * z1 * z1).trace(),
        (alpha * z1 * z2).trace(),
        (alpha * z2 * z2).trace(),
    )


def lagrange_reduce(G: Gram2) -> tuple[Gram2, UnimodularMap]:
    """Classical Lagrange-Gauss reduction of a planar Gram matrix.

    The result R satisfies r11 <= r22 and 2|r12| <= r11, with r12 >= 0 by the
    sign convention (negating the second vector when needed).  The returned
    map U transports the input basis to the reduced one: R = U^t G U.
    Ties (r11 = r22 or 2|r12| = r11) are left as already reduced.  The loop
    runs on the integer entries L*G over one common denominator L, with the
    transform [[a, b], [c, d]] as four ints.
    """
    g11, g12, g22 = G.entries()
    den = math.lcm(g11.denominator, g12.denominator, g22.denominator)
    n11 = g11.numerator * (den // g11.denominator)
    n12 = g12.numerator * (den // g12.denominator)
    n22 = g22.numerator * (den // g22.denominator)
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
    R = Gram2(Fraction(n11, den), Fraction(n12, den), Fraction(n22, den))
    return R, UnimodularMap(a, b, c, d)


def successive_minima(G: Gram2) -> tuple[Fraction, Fraction]:
    """Exact squared successive minima (the diagonal after reduction)."""
    R, _ = lagrange_reduce(G)
    return R.g11, R.g22


def minima_brute_force(G: Gram2, box: int = 25) -> tuple[Fraction, Fraction]:
    """Independent oracle: exhaustive enumeration over |m|, |n| <= box.

    Returns the two smallest squared norms over linearly independent vectors;
    only trustworthy when the box is large enough for the lattice at hand.
    """
    best: list[tuple[Fraction, Vec2]] = []
    for m in range(-box, box + 1):
        for n in range(0, box + 1):
            if n == 0 and m <= 0:
                continue
            best.append((G.value((m, n)), (m, n)))
    best.sort(key=lambda t: t[0])
    q1, v1 = best[0]
    for q2, v2 in best[1:]:
        if v1[0] * v2[1] - v1[1] * v2[0] != 0:
            return q1, q2
    raise ValueError("enumeration box too small")


def is_paper_reduced(G: Gram2) -> bool:
    """Weak planar reduction: basis angle within [pi/3, 2*pi/3].

    Equivalent to 4*g12^2 <= g11*g22; the diagonal ordering is ignored since
    swapping the basis vectors is unimodular.
    """
    return 4 * G.g12 * G.g12 <= G.g11 * G.g22


def is_lagrange_reduced(G: Gram2) -> bool:
    """Classical reduction up to a swap: 2|g12| <= min(g11, g22)."""
    return 2 * abs(G.g12) <= min(G.g11, G.g22)


def is_wr(G: Gram2) -> bool:
    """Well-rounded: both successive minima coincide."""
    l1, l2 = successive_minima(G)
    return l1 == l2


def is_stable(G: Gram2) -> bool:
    """Stable in the plane: volume <= lambda_1^2, i.e. det G <= lambda_1^4."""
    R, _ = lagrange_reduce(G)
    return R.det() <= R.g11 * R.g11


def det_gram(G: Gram2) -> Fraction:
    return G.det()


def covering_radius_sq(G: Gram2) -> Fraction:
    """Exact squared covering radius.

    After reduction with g12 >= 0 the fundamental triangle (0, v1, v1 - v2) is
    non-obtuse and the deep hole is its circumcenter:
    mu^2 = g11*g22*(g11 + g22 - 2*g12) / (4*det).
    """
    R, _ = lagrange_reduce(G)
    g11, g12, g22 = R.entries()
    return g11 * g22 * (g11 + g22 - 2 * g12) / (4 * R.det())


def hermite_thickness_sq(G: Gram2) -> Fraction:
    """tau^2 = mu^4 / det G (scale invariant; n = 2)."""
    mu2 = covering_radius_sq(G)
    return mu2 * mu2 / G.det()


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
    norm_sq = G.g11 * G.g22
    cos_sq = G.g12 * G.g12 / norm_sq
    sign = (G.g12 > 0) - (G.g12 < 0)
    return cos_sq, sign, norm_sq


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
    R, _ = lagrange_reduce(G)
    tau = SimilarityPoint(R.g12 / R.g11, R.det() / (R.g11 * R.g11))
    return reduce_to_fundamental(tau)


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
