"""Canonical bases of integral ideals in real quadratic fields.

An integral ideal of O_K, K = Q(sqrt(D)), is exactly a module
{a*x + (b + g*delta)*y : x, y in Z} with b < a, g | a, g | b and
a*g | N(b + g*delta); the triple (a, b, g) is unique per ideal.  It is
g times the primitive ideal (a/g, b/g, 1), so `enumerate_canonical` scans
primitive pairs only and scales each by every g that keeps a <= max_a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quadfield import QuadElem, _int, _quad, _repr, check_field


class CanonicalBasisError(ValueError):
    """A triple (a, b, g) violating one of the canonical-basis conditions.

    `condition` names the first violated check, one of
    "int" (a, b or g is not of type int), "b<a", "g|a", "g|b", "divisibility".
    """

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


def _z2(D: int, b: int, g: int) -> tuple[int, int, int, int]:
    """b + g*delta(D) as (u, v, e) with b + g*delta = (u + v*sqrt(D))/e over
    delta's own denominator e, not over the lowest-terms one: with g even
    and D = 1 (mod 4) the lowest-terms form drops the 2, and the Gram
    pencil is normalised by e.  The fourth entry is the integer
    N(b + g*delta) = (u^2 - D*v^2)/e^2."""
    u, v, e = (2 * b + g, -g, 2) if D % 4 == 1 else (b, -g, 1)
    return u, v, e, (u * u - D * v * v) // (e * e)


def _state(D: int, a: int, b: int, g: int) -> tuple[int, dict]:
    """N(b + g*delta), and the instance dict of CanonicalIdeal(D, a, b, g).

    _uve and _pencil are not dataclass fields: ==, hash and repr see
    (D, a, b, g) only.  _uve is z2 = (u + v*sqrt(D))/e, and _pencil is
    (P11, P12, P22, Q11, Q12, Q22) of the integer pencil t*P + Q, e/2 times
    the twisted Gram of (a, z2) along t + sqrt(D):
    P = (e/2)*[trace(z_i*z_j)] = (a^2*e, a*u, (u^2 + D*v^2)/e),
    Q = (e/2)*[trace(sqrt(D)*z_i*z_j)] = (0, a*D*v, 2*D*u*v/e), and
    det(t*P + Q) = N(I)^2 * D * (t^2 - D).
    """
    u, v, e, n = _z2(D, b, g)
    return n, {"D": D, "a": a, "b": b, "g": g, "_uve": (u, v, e), "_pencil": (
        a * a * e, a * u, (u * u + D * v * v) // e,
        0, a * D * v, 2 * D * u * v // e)}


@dataclass(frozen=True)
class CanonicalIdeal:
    """Canonical basis triple (a, b, g) of an integral ideal over D; a, b and
    g must be of type int, so not bools (`CanonicalBasisError` condition
    "int")."""

    D: int
    a: int
    b: int
    g: int

    def __post_init__(self):
        # `type`, not `isinstance`: a bool is an int subclass
        if not (type(self.a) is int and type(self.b) is int
                and type(self.g) is int):
            raise CanonicalBasisError("int",
                                      f"need int a, b and g, got {self!r}")
        check_field(self.D)
        a, b, g = self.a, self.b, self.g
        if a < 1 or g < 1 or b < 0:
            raise CanonicalBasisError(
                "b<a", f"need a, g >= 1 and b >= 0, got {self}"
            )
        if not b < a:
            raise CanonicalBasisError("b<a", f"b = {_int(b)} >= a = {_int(a)}")
        if a % g != 0:
            raise CanonicalBasisError(
                "g|a", f"g = {_int(g)} does not divide a = {_int(a)}")
        if b % g != 0:
            raise CanonicalBasisError(
                "g|b", f"g = {_int(g)} does not divide b = {_int(b)}")
        n, state = _state(self.D, a, b, g)
        if n % (a * g) != 0:
            raise CanonicalBasisError(
                "divisibility",
                f"a*g = {_int(a * g)} does not divide N(b+g*delta) = {_int(n)}")
        self.__dict__.update(state)

    def __getstate__(self):
        # The fields only, as a plain dataclass pickles; unpickling re-runs
        # the checks and recomputes the stored integers.
        return {"D": self.D, "a": self.a, "b": self.b, "g": self.g}

    def __setstate__(self, state):
        self.__init__(**state)

    def norm(self) -> int:
        return self.a * self.g

    def basis_elements(self) -> tuple[QuadElem, QuadElem]:
        # D was checked when the ideal was made.
        return _quad(self.D, self.a, 0, 1), _quad(self.D, *self._uve)

    # str and repr print ints of any size: the error messages embed them.
    def __str__(self):
        return (f"({_int(self.a)}, {_int(self.b)} + {_int(self.g)}*delta) "
                f"over D={self.D}")

    def __repr__(self):
        return (f"CanonicalIdeal(D={_repr(self.D)}, a={_repr(self.a)}, "
                f"b={_repr(self.b)}, g={_repr(self.g)})")


# perfbench/workloads.py and perfbench/baseline.py build ideals by this name.
validate_canonical = CanonicalIdeal


def _canonical(D: int, a: int, b: int, g: int) -> CanonicalIdeal:
    """CanonicalIdeal(D, a, b, g) without its checks, for a triple already
    proved canonical over a checked D."""
    I = object.__new__(CanonicalIdeal)
    I.__dict__.update(_state(D, a, b, g)[1])
    return I


def enumerate_canonical(D: int, max_a: int) -> list[CanonicalIdeal]:
    """All canonical ideals over D with a <= max_a, sorted by (a, b, g).

    N(b + g*delta) = g^2 * N(b/g + delta), so (a, b, g) is canonical iff
    its primitive part (a/g, b/g, 1) is: the scan runs over the primitive
    pairs b' < a' <= max_a with a' | N(b' + delta) and emits
    (g*a', g*b', g) for every g <= max_a // a'.  The norm N(b' + delta) is
    computed once per b', not once per pair, and D is checked once: the
    scan proves each triple canonical, so its ideal skips the checks.
    """
    check_field(D)
    norms = [_z2(D, b, 1)[3] for b in range(max_a)]
    found = [(g * a, g * b, g)
             for a in range(1, max_a + 1)
             for b in range(a) if norms[b] % a == 0
             for g in range(1, max_a // a + 1)]
    found.sort()
    return [_canonical(D, a, b, g) for a, b, g in found]


def ring_of_integers(D: int) -> CanonicalIdeal:
    return CanonicalIdeal(D, 1, 0, 1)
