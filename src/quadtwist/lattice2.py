"""Exact planar lattice geometry through rational Gram matrices.

The single load-bearing identity: for a twisted ideal lattice A(alpha)*L_K(I)
with basis (z1, z2), every inner product is trace(alpha * z_i * z_j), which is
a rational number.  All predicates below therefore operate on exact rational
Gram matrices, never on the irrational embedded basis vectors.  A Gram matrix
is held as three integers over one common denominator, and the predicates
compute on those integers.  `_reduce` is the one exact Lagrange loop, on a
numerator triple and from a start basis: the orbit probes run it on
`_twist_ints`, each from the previous probe's reduced basis, and
`lagrange_reduce` on a Gram2, for each predicate on the minima.  A reduced
triple's WR and stability flags and thickness have one home each
(`_wr_reduced`, `_stable_reduced`, `_thickness`), weak reducedness has
`_paper_reduced`, and the scaling 2/(d*e) from pencil integers to a Gram
has `gram_of_twist`.  The oracle `minima_brute_force` uses no reduction
and sizes its search from the Gram itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ideals import CanonicalIdeal
from .quadfield import (
    QuadElem, _frac, _int, _ints, _new, _rat, _rationals, _Record, _repr,
    _totally_positive)


class Gram2:
    """Positive definite symmetric 2x2 matrix [[n11, n12], [n12, n22]]/den
    with exact rational entries, built from ints n11, n12, n22 and den > 0.

    Any other argument type, a bool too, raises TypeError.  Held in
    canonical form, gcd(n11, n12, n22, den) = 1, so equal matrices have equal
    fields.  g11, g12 and g22 are read-only Fraction views.  Every
    construction checks positive definiteness, on the integers.
    """

    __slots__ = ("_n11", "_n12", "_n22", "_den")

    def __init__(self, n11: int, n12: int, n22: int, den: int = 1):
        if not _ints(n11, n12, n22, den):
            raise TypeError("n11, n12, n22 and den must be ints")
        if den <= 0:
            raise ValueError("need a denominator den > 0")
        g = math.gcd(n11, n12, n22, den)
        if g != 1:
            n11, n12, n22, den = n11 // g, n12 // g, n22 // g, den // g
        self._n11, self._n12, self._n22, self._den = n11, n12, n22, den
        if n11 <= 0 or n11 * n22 - n12 * n12 <= 0:
            raise ValueError(f"not positive definite: {self}")

    def __reduce__(self):
        return (Gram2, (self._n11, self._n12, self._n22, self._den))

    g11 = property(lambda self: Fraction(self._n11, self._den))
    g12 = property(lambda self: Fraction(self._n12, self._den))
    g22 = property(lambda self: Fraction(self._n22, self._den))

    def det(self) -> Fraction:
        return Fraction(self._n11 * self._n22 - self._n12 * self._n12,
                        self._den * self._den)

    def __eq__(self, other):
        if isinstance(other, Gram2):
            return (self._n11 == other._n11 and self._n12 == other._n12
                    and self._n22 == other._n22 and self._den == other._den)
        return NotImplemented

    def __hash__(self):
        return hash((self._n11, self._n12, self._n22, self._den))

    def __repr__(self):
        return f"Gram2{_repr((self._n11, self._n12, self._n22, self._den))}"

    def __str__(self):
        g12 = _rat(self.g12)
        return f"[[{_rat(self.g11)}, {g12}], [{g12}, {_rat(self.g22)}]]"


class UnimodularMap(_Record):
    """Integer 2x2 matrix [[a, b], [c, d]] with determinant +-1; the entries
    must be of type int, so not bools, else TypeError."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if not _ints(a, b, c, d):
            raise TypeError("a, b, c and d must be ints")
        self.__dict__.update(a=a, b=b, c=c, d=d)
        if abs(a * d - b * c) != 1:
            raise ValueError(f"determinant must be +-1: {self}")


def _twist_ints(I: CanonicalIdeal, p: int, q: int) -> tuple[int, int, int]:
    """p*P + q*Q on the ideal's pencil: the twist by alpha = (p + q*sqrt(D))/d
    has Gram 2*(p*P + q*Q)/(d*e) (`gram_of_twist`).  Total positivity is
    checked on the integers, and it implies positive definiteness:
    n11 = p*P11 = p*a^2*e > 0 (Q11 = 0), and
    det(p*P + q*Q) = N(I)^2 * D * (p^2 - D*q^2) > 0."""
    if not _totally_positive(p, q, I.D):
        raise ValueError(f"{_int(p)} + {_int(q)}*sqrt({I.D}) is not "
                         "totally positive")
    P11, P12, P22, Q11, Q12, Q22 = I._pencil
    return p * P11 + q * Q11, p * P12 + q * Q12, p * P22 + q * Q22


def gram_of_twist(I: CanonicalIdeal, alpha: QuadElem) -> Gram2:
    """Exact Gram matrix of A(alpha)*L_K(I) in the canonical basis.

    G_ij = trace(alpha * z_i * z_j); det G = N(alpha) * N(I)^2 * Delta_K.
    G is linear in alpha: for alpha = (p + q*sqrt(D))/d it is
    2*(p*P + q*Q)/(d*e) with the integer pencil (P, Q) and the denominator e
    of z2 that the ideal derives, whose det(t*P + Q) = N(I)^2 * D * (t^2 - D).
    """
    if not isinstance(I, CanonicalIdeal):
        raise TypeError("I must be a CanonicalIdeal")
    if not isinstance(alpha, QuadElem):
        raise TypeError("alpha must be a QuadElem")
    if alpha.D != I.D:
        raise ValueError("alpha must live in the same field as I")
    n11, n12, n22 = _twist_ints(I, alpha.p, alpha.q)
    return Gram2(2 * n11, 2 * n12, 2 * n22, alpha.d * I._uve[2])


_IDENTITY = (1, 0, 0, 1)  # the start basis of a cold reduction


def _reduce(n11: int, n12: int, n22: int, U: tuple[int, ...] = _IDENTITY
            ) -> tuple[int, int, int, int, int, int, int]:
    """Lagrange-Gauss reduction of the positive definite [[n11, n12], [n12, n22]].

    Returns (r11, r12, r22) with r11 <= r22 and 0 <= 2*r12 <= r11 (the second
    vector negated when needed; ties are left as reduced) and the transform
    [[a, b], [c, d]] to the reduced basis.  Each step depends only on ratios,
    so a positive multiple of a Gram reduces to the same multiple.

    It starts from the basis U = [[a, b], [c, d]] of column vectors: N is
    written in U, U^t N U, and the steps compose onto U, so the transform
    returned maps the basis of N to the reduced one.  A warm start, from a
    nearby basis, gives a cold one's triple in fewer steps: in a reduced
    basis r11 and r22 are the successive minima of the lattice, and
    r12 >= 0 is fixed by r12^2 = r11*r22 - det, so each GL_2(Z) class
    holds one triple with 0 <= 2*r12 <= r11 <= r22.
    """
    a, b, c, d = U
    if U is not _IDENTITY:
        x, y = a * n11 + c * n12, a * n12 + c * n22  # N times U's columns
        z, w = b * n11 + d * n12, b * n12 + d * n22
        n11, n12, n22 = a * x + c * y, b * x + d * y, b * z + d * w
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
    if n12 < 0:
        n12 = -n12
        b, d = -b, -d
    return n11, n12, n22, a, b, c, d


def lagrange_reduce(G: Gram2) -> tuple[Gram2, UnimodularMap]:
    """Classical Lagrange-Gauss reduction of a planar Gram matrix: `_reduce`
    on the numerators of G, giving R = U^t G U with 0 <= 2*r12 <= r11 <= r22.
    """
    if not isinstance(G, Gram2):
        raise TypeError("G must be a Gram2")
    n11, n12, n22, a, b, c, d = _reduce(G._n11, G._n12, G._n22)
    return Gram2(n11, n12, n22, G._den), UnimodularMap(a, b, c, d)


def _paper_reduced(n11: int, n12: int, n22: int) -> bool:
    # weak reducedness, 4*g12^2 <= g11*g22, on the numerators of any Gram
    return 4 * n12 * n12 <= n11 * n22


# Predicates on the numerators (n11, n12, n22) of an already Lagrange-reduced
# R (0 <= 2*r12 <= r11 <= r22), whose diagonal holds the successive minima.
# The public predicates call these, scale invariant, on `lagrange_reduce`'s R.

def _wr_reduced(n11: int, n12: int, n22: int) -> bool:
    return n11 == n22


def _stable_reduced(n11: int, n12: int, n22: int) -> bool:
    return n11 * n22 - n12 * n12 <= n11 * n11


def _similarity_reduced(n11: int, n12: int, n22: int) -> "SimilarityPoint":
    # On the numerators of R: tau = (r12 + i*sqrt(det R))/r11, det R > 0, has
    # 0 <= x <= 1/2 and |tau|^2 = r22/r11 >= 1, so it skips the public checks.
    tau = _new(SimilarityPoint)
    tau.__dict__.update(x=_frac(n12, n11),
                        y_sq=_frac(n11 * n22 - n12 * n12, n11 * n11))
    return tau


def successive_minima(G: Gram2) -> tuple[Fraction, Fraction]:
    """Exact squared successive minima (the diagonal after reduction)."""
    R = lagrange_reduce(G)[0]
    return R.g11, R.g22


def minima_brute_force(G: Gram2) -> tuple[Fraction, Fraction]:
    """Independent oracle for the squared successive minima, by enumeration
    with no reduction.

    On the numerators every nonzero norm is an integer >= 1, and
    lambda_1 * lambda_2 <= (4/3) * det, so lambda_2 <= B = min(max(n11, n22),
    floor(4*det/3)).  Both minima are reached by primitive vectors of norm
    <= B.  Writing n11 * Q(m, n) = (n11*m + n12*n)^2 + det*n^2, those lie in
    the rows 0 <= n <= isqrt(B*n11 // det), and row n holds the one integer
    interval of m with |n11*m + n12*n| <= isqrt(B*n11 - det*n^2).  The
    second minimum is the least norm independent of a vector of the first.
    """
    if not isinstance(G, Gram2):
        raise TypeError("G must be a Gram2")
    n11, n12, n22 = G._n11, G._n12, G._n22
    det = n11 * n22 - n12 * n12
    bound = min(max(n11, n22), 4 * det // 3)
    best = [(n11, (1, 0))]
    for n in range(1, math.isqrt(bound * n11 // det) + 1):
        s = math.isqrt(bound * n11 - det * n * n)
        for m in range(-((s + n12 * n) // n11), (s - n12 * n) // n11 + 1):
            if math.gcd(m, n) == 1:
                best.append((n11 * m * m + 2 * n12 * m * n + n22 * n * n,
                             (m, n)))
    q1, (m1, n1) = min(best)
    q2 = min(q for q, (m, n) in best if m1 * n != n1 * m)
    return Fraction(q1, G._den), Fraction(q2, G._den)


def is_paper_reduced(G: Gram2) -> bool:
    """Weak planar reduction: basis angle within [pi/3, 2*pi/3].

    Equivalent to 4*g12^2 <= g11*g22; the diagonal ordering is ignored since
    swapping the basis vectors is unimodular.
    """
    if not isinstance(G, Gram2):
        raise TypeError("G must be a Gram2")
    return _paper_reduced(G._n11, G._n12, G._n22)


def is_lagrange_reduced(G: Gram2) -> bool:
    """Classical reduction up to a swap: 2|g12| <= min(g11, g22)."""
    if not isinstance(G, Gram2):
        raise TypeError("G must be a Gram2")
    return 2 * abs(G._n12) <= min(G._n11, G._n22)


def is_wr(G: Gram2) -> bool:
    """Well-rounded: both successive minima coincide."""
    R = lagrange_reduce(G)[0]
    return _wr_reduced(R._n11, R._n12, R._n22)


def is_stable(G: Gram2) -> bool:
    """Stable in the plane: volume <= lambda_1^2, i.e. det G <= lambda_1^4."""
    R = lagrange_reduce(G)[0]
    return _stable_reduced(R._n11, R._n12, R._n22)


def _thickness(n11: int, n12: int, n22: int) -> tuple[int, int]:
    """tau^2 = mu^4 / det as the integer pair (m^2, 16*det^3) on the
    numerators of a reduced R, m = r11*r22*(r11 + r22 - 2*r12).

    With 0 <= 2*r12 <= r11 <= r22 the fundamental triangle (0, v1, v1 - v2)
    is non-obtuse and the deep hole is its circumcenter, so the squared
    covering radius is mu^2 = m / (4*det).  The ratio is scale invariant,
    so no gcd is taken.
    """
    det = n11 * n22 - n12 * n12
    m = n11 * n22 * (n11 + n22 - 2 * n12)
    return m * m, 16 * det ** 3


def hermite_thickness_sq(G: Gram2) -> Fraction:
    """tau^2 = mu^4 / det G (scale invariant; n = 2).

    Kept as a public name because the benchmark harness in perfbench/ reads
    it, in its orbit check."""
    R = lagrange_reduce(G)[0]
    return Fraction(*_thickness(R._n11, R._n12, R._n22))


class SimilarityPoint(_Record):
    """Point tau = x + i*sqrt(y_sq) in the upper half-plane, kept exact; x
    and y_sq must be ints or Fractions (not bools), else TypeError."""

    _fields = ("x", "y_sq")

    def __init__(self, x: Fraction, y_sq: Fraction):
        if not _rationals(x, y_sq):
            raise TypeError("x and y_sq must be ints or Fractions")
        if y_sq <= 0:
            raise ValueError("point must lie in the upper half-plane")
        self.__dict__.update(x=Fraction(x), y_sq=Fraction(y_sq))


def similarity_point(G: Gram2) -> SimilarityPoint:
    """Similarity class of the lattice as a point of the fundamental domain.

    Kept as a public name because the benchmark harness in perfbench/ traces
    it."""
    R = lagrange_reduce(G)[0]
    return _similarity_reduced(R._n11, R._n12, R._n22)
