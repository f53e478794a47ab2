"""Canonical bases of integral ideals in real quadratic fields.

An integral ideal of O_K, K = Q(sqrt(D)), is exactly a module
{a*x + (b + g*delta)*y : x, y in Z} with b < a, g | a, g | b and
a*g | N(b + g*delta); the triple (a, b, g) is unique per ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quadfield import QuadElem, _discriminant, _quad, check_field


class CanonicalBasisError(ValueError):
    """A triple (a, b, g) violating one of the canonical-basis conditions.

    `condition` names the first violated check, one of
    "b<a", "g|a", "g|b", "divisibility".
    """

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


def _basis_norm(D: int, b: int, g: int) -> int:
    """Integer N(b + g*delta(D))."""
    if D % 4 == 1:
        n4 = (2 * b + g) ** 2 - g * g * D
        assert n4 % 4 == 0
        return n4 // 4
    return b * b - g * g * D


@dataclass(frozen=True)
class CanonicalIdeal:
    """Canonical basis triple (a, b, g) of an integral ideal over D."""

    D: int
    a: int
    b: int
    g: int

    def __post_init__(self):
        check_field(self.D)
        if self.a < 1 or self.g < 1 or self.b < 0:
            raise CanonicalBasisError(
                "b<a", f"need a, g >= 1 and b >= 0, got {self}"
            )
        if not self.b < self.a:
            raise CanonicalBasisError("b<a", f"b = {self.b} >= a = {self.a}")
        if self.a % self.g != 0:
            raise CanonicalBasisError("g|a", f"g = {self.g} does not divide a = {self.a}")
        if self.b % self.g != 0:
            raise CanonicalBasisError("g|b", f"g = {self.g} does not divide b = {self.b}")
        n = _basis_norm(self.D, self.b, self.g)
        if n % (self.a * self.g) != 0:
            raise CanonicalBasisError(
                "divisibility",
                f"a*g = {self.a * self.g} does not divide N(b+g*delta) = {n}",
            )

    def norm(self) -> int:
        return self.a * self.g

    def _z2_ints(self) -> tuple[int, int, int]:
        """z2 = b + g*delta as (u, v, e) with z2 = (u + v*sqrt(D))/e over
        delta's own denominator e, not over the lowest-terms one: with g even
        and D = 1 (mod 4) the lowest-terms form drops the 2, and the Gram
        pencil of lattice2 is normalised by e."""
        if self.D % 4 == 1:
            return 2 * self.b + self.g, -self.g, 2
        return self.b, -self.g, 1

    def basis_elements(self) -> tuple[QuadElem, QuadElem]:
        # D was checked when the ideal was made.
        return _quad(self.D, self.a, 0, 1), _quad(self.D, *self._z2_ints())

    def discriminant(self) -> int:
        return _discriminant(self.D)

    def __str__(self):
        return f"({self.a}, {self.b} + {self.g}*delta) over D={self.D}"


def validate_canonical(D: int, a: int, b: int, g: int) -> CanonicalIdeal:
    """Validated canonical triple; raises CanonicalBasisError otherwise.

    The same as CanonicalIdeal(D, a, b, g), kept as a public name because
    the benchmark harness in perfbench/ calls it."""
    return CanonicalIdeal(D, a, b, g)


def enumerate_canonical(D: int, max_a: int) -> list[CanonicalIdeal]:
    """All canonical ideals over D with a <= max_a, sorted by (a, b, g)."""
    check_field(D)
    found = []
    for a in range(1, max_a + 1):
        for g in range(1, a + 1):
            if a % g != 0:
                continue
            for b in range(0, a, g):
                if _basis_norm(D, b, g) % (a * g) == 0:
                    found.append((a, b, g))
    found.sort()
    return [CanonicalIdeal(D, a, b, g) for a, b, g in found]


def primitive_reduction(I: CanonicalIdeal) -> CanonicalIdeal:
    """The similar ideal (a/g, b/g, 1); the identity when g = 1."""
    if I.g == 1:
        return I
    return CanonicalIdeal(I.D, I.a // I.g, I.b // I.g, 1)


def ring_of_integers(D: int) -> CanonicalIdeal:
    return CanonicalIdeal(D, 1, 0, 1)
