"""Exact arithmetic in real quadratic fields Q(sqrt(D)) and in quadratic surds.

All values are immutable.  Every order predicate is decided by one exact sign
test on plain integers (the sign of x + y*sqrt(m), or of a sum of two such
radicals) after clearing denominators; no floating point enters any
comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

# Builders for the immutable value types, bypassing their public checks.
_new = object.__new__
_setattr = object.__setattr__


class InvalidFieldError(ValueError):
    """Raised when D is not a squarefree integer > 1."""


class CertificateError(Exception):
    """Raised when the exact re-check of a computed result fails.

    Not a ValueError: the input was valid and the library's own answer is
    wrong, so callers must not report it as invalid input.
    """


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def is_squarefree(n: int) -> bool:
    """Exact squarefree test by trial division up to the cube root.

    Trial division strips each prime p with p^3 <= m, where m is what is left
    of n.  Every prime factor of the final m exceeds its cube root, so m has
    at most two prime factors, and m is squarefree iff m is 1 or not a
    perfect square.  Exact for every n; no input is rejected.  The cost grows
    as n^(1/3): at n = 10^18 the divisors run up to 10^6, about 5 * 10^5
    divisions, and more above that.
    """
    if n < 1:
        return False
    m = n
    p = 2
    while p * p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
        p += 1 if p == 2 else 2
    return m == 1 or not _is_square(m)


def check_field(D: int) -> int:
    if not isinstance(D, int) or D <= 1:
        raise InvalidFieldError(f"D must be an integer > 1, got {D!r}")
    if not is_squarefree(D):
        raise InvalidFieldError(f"D = {D} is not squarefree")
    return D


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _sign_x_plus_y_sqrt(x: int, y: int, m: int) -> int:
    """Exact sign of x + y*sqrt(m) for integers x, y and m >= 0."""
    if m < 0:
        raise ValueError("negative radicand")
    if y == 0 or m == 0:
        return _sign(x)
    if x == 0:
        return _sign(y)
    if (x > 0) == (y > 0):
        return _sign(x)
    # Opposite signs: compare x^2 against m*y^2, one squaring decides.
    return _sign(x) * _sign(x * x - m * y * y)


def _sign_two_radicals(a: int, b: int, m1: int, c: int, m2: int) -> int:
    """Exact sign of a + b*sqrt(m1) + c*sqrt(m2) for integers, m1, m2 >= 0."""
    if b == 0:
        return _sign_x_plus_y_sqrt(a, c, m2)
    if c == 0:
        return _sign_x_plus_y_sqrt(a, b, m1)
    if (b > 0) == (c > 0):
        # b*sqrt(m1) + c*sqrt(m2) has the sign of b; compare against -a.
        st = _sign(b)
    else:
        # Mixed signs: T = b*sqrt(m1) + c*sqrt(m2); sign(T) from squares.
        st = _sign(b) * _sign(b * b * m1 - c * c * m2)
        if st == 0:
            return _sign(a)
    if a == 0 or _sign(a) == st:
        return st
    # sign(a + T) with sign(T) = -sign(a): compare a^2 with T^2, where
    # T^2 = b^2 m1 + c^2 m2 + 2bc sqrt(m1 m2) is a single-radical value.
    return _sign(a) * _sign_x_plus_y_sqrt(
        a * a - b * b * m1 - c * c * m2, -2 * b * c, m1 * m2
    )


class QuadElem:
    """An element (p + q*sqrt(D))/d of K = Q(sqrt(D)), D squarefree > 1.

    Held as the integers (D, p, q, d) in canonical form, d > 0 and
    gcd(p, q, d) = 1, so equal elements have equal fields.  The rational view
    x + y*sqrt(D) has x = p/d and y = q/d.  All fields are read-only.  Ring
    operations and order predicates work on the integers alone; only the
    public constructor validates D, and results of operations reuse the D of
    their operands.
    """

    __slots__ = ("_D", "_p", "_q", "_d")

    def __init__(self, D: int, x: Rational, y: Rational):
        check_field(D)
        x, y = Fraction(x), Fraction(y)
        # x and y are in lowest terms, so this form is already canonical.
        d = math.lcm(x.denominator, y.denominator)
        self._D = D
        self._p = x.numerator * (d // x.denominator)
        self._q = y.numerator * (d // y.denominator)
        self._d = d

    @staticmethod
    def of(D: int, x: Rational = 0, y: Rational = 0) -> "QuadElem":
        return QuadElem(D, Fraction(x), Fraction(y))

    def __reduce__(self):
        return (_quad, (self._D, self._p, self._q, self._d))

    D = property(lambda self: self._D)
    p = property(lambda self: self._p)
    q = property(lambda self: self._q)
    d = property(lambda self: self._d)

    @property
    def x(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def y(self) -> Fraction:
        return Fraction(self._q, self._d)

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other._D != self._D:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, (int, Fraction)):
            return _elem(self._D, other.numerator, 0, other.denominator)
        return NotImplemented

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d1, d2 = self._d, o._d
        return _quad(self._D, self._p * d2 + o._p * d1,
                     self._q * d2 + o._q * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _elem(self._D, -self._p, -self._q, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d1, d2 = self._d, o._d
        return _quad(self._D, self._p * d2 - o._p * d1,
                     self._q * d2 - o._q * d1, d1 * d2)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D, p1, q1, p2, q2 = self._D, self._p, self._q, o._p, o._q
        return _quad(D, p1 * p2 + D * q1 * q2, p1 * q2 + q1 * p2,
                     self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        # 1/((p + q sqrt(D))/d) = d (p - q sqrt(D)) / (p^2 - D q^2)
        p, q, d = self._p, self._q, self._d
        n = p * p - self._D * q * q
        if n == 0:
            raise ZeroDivisionError("zero element of the field")
        if n < 0:
            d, n = -d, -n
        return _quad(self._D, d * p, -d * q, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        r = _elem(self._D, 1, 0, 1)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    # -- field invariants -------------------------------------------------

    def conjugate(self) -> "QuadElem":
        return _elem(self._D, self._p, -self._q, self._d)

    def norm(self) -> Fraction:
        p, q, d = self._p, self._q, self._d
        return Fraction(p * p - self._D * q * q, d * d)

    def trace(self) -> Fraction:
        return Fraction(2 * self._p, self._d)

    def sign_embedding(self, i: int) -> int:
        """Exact sign of sigma_i(self), i in {1, 2}."""
        return _sign_x_plus_y_sqrt(self._p, self._q if i == 1 else -self._q,
                                   self._D)

    def is_totally_positive(self) -> bool:
        return self.sign_embedding(1) > 0 and self.sign_embedding(2) > 0

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    # -- order and conversion ----------------------------------------------

    def _cmp_sign(self, other) -> int:
        o = self._coerce(other)
        d1, d2 = self._d, o._d
        return _sign_x_plus_y_sqrt(self._p * d2 - o._p * d1,
                                   self._q * d2 - o._q * d1, self._D)

    def __lt__(self, other):
        return self._cmp_sign(other) < 0

    def __le__(self, other):
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        return self._cmp_sign(other) >= 0

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            return (self._p == other._p and self._q == other._q
                    and self._d == other._d and self._D == other._D)
        return NotImplemented

    def __hash__(self):
        return hash((self._D, self._p, self._q, self._d))

    def __abs__(self):
        return -self if self < 0 else self

    def embed(self, i: int) -> float:
        s = math.sqrt(self._D)
        # p/d is the correctly rounded float of x, as float(self.x) is.
        return self._p / self._d + self._q / self._d * (s if i == 1 else -s)

    def __float__(self):
        return self.embed(1)

    def __repr__(self):
        return f"QuadElem(D={self._D!r}, x={self.x!r}, y={self.y!r})"

    def __str__(self):
        x, y = self.x, self.y
        if y == 0:
            return str(x)
        head = "" if x == 0 else f"{x} + "
        coef = "" if y == 1 else f"{y}*"
        return f"{head}{coef}sqrt({self._D})"


def _elem(D: int, p: int, q: int, d: int) -> QuadElem:
    """QuadElem from a canonical (p, q, d) of a field whose D is checked."""
    z = _new(QuadElem)
    z._D, z._p, z._q, z._d = D, p, q, d
    return z


def _quad(D: int, p: int, q: int, d: int) -> QuadElem:
    """(p + q*sqrt(D))/d for d > 0 in a field whose D is checked: skips
    check_field and divides out gcd(p, q, d)."""
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _elem(D, p, q, d)


def _t_plus_sqrt(D: int, t: Rational) -> QuadElem:
    """t + sqrt(D) = (n + d*sqrt(D))/d for t = n/d, in a field whose D is
    checked."""
    return _elem(D, t.numerator, t.denominator, t.denominator)


def delta(D: int) -> QuadElem:
    """Generator of O_K over Z: -sqrt(D), or (1-sqrt(D))/2 when D = 1 mod 4."""
    check_field(D)
    if D % 4 == 1:
        return _quad(D, 1, -1, 2)
    return _quad(D, 0, -1, 1)


def _discriminant(D: int) -> int:
    """discriminant(D) for a D that is already checked."""
    return D if D % 4 == 1 else 4 * D


def discriminant(D: int) -> int:
    check_field(D)
    return _discriminant(D)


def norm(z: QuadElem) -> Fraction:
    return z.norm()


def trace(z: QuadElem) -> Fraction:
    return z.trace()


def is_totally_positive(z: QuadElem) -> bool:
    return z.is_totally_positive()


def _pell_unit(D: int) -> QuadElem:
    """Minimal unit x + y*sqrt(D) > 1 of Z[sqrt(D)], |x^2 - D y^2| = 1.

    Convergents of the continued fraction of sqrt(D); the first convergent
    with x^2 - D y^2 = +-1 is the fundamental solution.
    """
    sq = math.isqrt(D)
    a, P, Q = sq, 0, 1  # complete quotient (P + sqrt(D))/Q with floor a
    h2, h1 = 1, a
    k2, k1 = 0, 1
    while abs(h1 * h1 - D * k1 * k1) != 1:
        P = a * Q - P
        Q = (D - P * P) // Q
        a = (P + sq) // Q
        h2, h1 = h1, a * h1 + h2
        k2, k1 = k1, a * k1 + k2
    return _quad(D, h1, k1, 1)


def _icbrt(n: int) -> int:
    """Floor of the cube root of an integer n >= 0, by Newton's method on
    integers from a start above the root."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def fundamental_unit(D: int) -> tuple[QuadElem, QuadElem]:
    """Fundamental unit eps > 1 of O_K and the least totally positive unit.

    For D != 1 (mod 4), O_K = Z[sqrt(D)] and eps is the minimal Pell unit.
    For D = 1 (mod 4) the half-integral unit (t + u*sqrt(D))/2 may generate
    an index-3 subgroup containing the Pell unit; the exact cube-root descent
    below finds it when it exists.  eps_plus = eps if N(eps) = 1 else eps^2.
    """
    check_field(D)
    eta = _pell_unit(D)
    eps = eta
    if D % 4 == 1:
        # If eps^3 = eta = x + y*sqrt(D) with eps = (t + u*sqrt(D))/2, the
        # traces satisfy t^3 - 3*N(eps)*t = 2x, so t is within 1 of the cube
        # root of 2x.
        t0 = _icbrt(2 * eta.p)
        for t in range(max(1, t0 - 2), t0 + 3):
            for s in (4, -4):
                num = t * t - s
                if num <= 0 or num % D != 0 or not _is_square(num // D):
                    continue
                u = math.isqrt(num // D)
                cand = _quad(D, t, u, 2)
                if abs(cand.norm()) == 1 and cand ** 3 == eta:
                    eps = cand
                    break
            if eps is not eta:
                break
    n = eps.norm()
    eps_plus = eps if n == 1 else eps * eps
    return eps, eps_plus


class Surd:
    """Exact real value (p + q*sqrt(n))/d with integers p, q, n >= 0, d > 0.

    Canonical form: when n is a perfect square the radical is folded into p
    and q = n = 0.  The radicand is otherwise kept as given, not reduced to
    its squarefree part.  The rational view u + v*sqrt(m) has u = p/d,
    v = q/d, m = n; a rational radicand a/b given to the constructor is held
    as the integer radicand a*b, since sqrt(a/b) = sqrt(a*b)/b.  Total order
    against rationals and other Surds is decided by integer sign tests after
    cross-multiplying the denominators, never by floating point.
    """

    __slots__ = ("p", "q", "n", "d")

    def __init__(self, u: Rational = 0, v: Rational = 0, m: Rational = 0):
        u, v, m = Fraction(u), Fraction(v), Fraction(m)
        if m < 0:
            raise ValueError("negative radicand")
        vd = v.denominator * m.denominator
        d = math.lcm(u.denominator, vd)
        _fill_surd(self, u.numerator * (d // u.denominator),
                   v.numerator * (d // vd), m.numerator * m.denominator, d)

    @staticmethod
    def of(u: Rational, v: Rational = 0, m: Rational = 0) -> "Surd":
        return Surd(u, v, m)

    @staticmethod
    def sqrt(q: Rational) -> "Surd":
        return Surd(0, 1, q)

    @staticmethod
    def of_ints(p: int, q: int = 0, n: int = 0, d: int = 1) -> "Surd":
        """(p + q*sqrt(n))/d from integers, with n >= 0 and d > 0."""
        if n < 0 or d <= 0:
            raise ValueError("need a radicand n >= 0 and a denominator d > 0")
        return _fill_surd(_new(Surd), p, q, n, d)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    def __reduce__(self):
        return (Surd.of_ints, (self.p, self.q, self.n, self.d))

    @property
    def u(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def v(self) -> Fraction:
        return Fraction(self.q, self.d)

    @property
    def m(self) -> Fraction:
        return Fraction(self.n)

    def __repr__(self):
        return f"Surd(u={self.u!r}, v={self.v!r}, m={self.m!r})"

    def __str__(self):
        if self.q == 0:
            return str(self.u)
        head = "" if self.p == 0 else f"{self.u} + "
        coef = "" if self.q == self.d else f"{self.v}*"
        return f"{head}{coef}sqrt({self.n})"

    def is_rational(self) -> bool:
        return self.q == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.u

    def sign(self) -> int:
        return _sign_x_plus_y_sqrt(self.p, self.q, self.n)

    def __float__(self):
        return self.p / self.d + self.q / self.d * math.sqrt(self.n)

    def __neg__(self):
        return Surd.of_ints(-self.p, -self.q, self.n, self.d)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            a, b = other.numerator, other.denominator
            return Surd.of_ints(self.p * b + a * self.d, self.q * b, self.n,
                                self.d * b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            a, b = other.numerator, other.denominator
            return Surd.of_ints(self.p * a, self.q * a, self.n, self.d * b)
        return NotImplemented

    __rmul__ = __mul__

    def __lt__(self, other):
        return surd_compare(self, other) < 0

    def __le__(self, other):
        return surd_compare(self, other) <= 0

    def __gt__(self, other):
        return surd_compare(self, other) > 0

    def __ge__(self, other):
        return surd_compare(self, other) >= 0

    def __eq__(self, other):
        if isinstance(other, (Surd, int, Fraction)):
            return surd_compare(self, other) == 0
        return NotImplemented

    def __hash__(self):
        # Consistent with __eq__ without factoring the radicand: square roots
        # of distinct squarefree integers are linearly independent over Q, so
        # equal irrational values share the rational part, the square of the
        # irrational part and its sign; a rational one hashes as its Fraction.
        u = Fraction(self.p, self.d)
        if self.q == 0:
            return hash(u)
        return hash((u, Fraction(self.q * self.q * self.n, self.d * self.d),
                     self.q > 0))


def _fill_surd(s: Surd, p: int, q: int, n: int, d: int) -> Surd:
    """Set the fields of a new Surd, folding a perfect-square radicand."""
    if q == 0 or n == 0:
        q = n = 0
    else:
        r = math.isqrt(n)
        if r * r == n:
            p, q, n = p + q * r, 0, 0
    _setattr(s, "p", p)
    _setattr(s, "q", q)
    _setattr(s, "n", n)
    _setattr(s, "d", d)
    return s


def surd_compare(s1, s2) -> int:
    """Exact three-way comparison of Surd/rational values: -1, 0 or +1."""
    if isinstance(s1, Surd):
        p1, q1, n1, d1 = s1.p, s1.q, s1.n, s1.d
    else:
        p1, q1, n1, d1 = s1.numerator, 0, 0, s1.denominator
    if isinstance(s2, Surd):
        p2, q2, n2, d2 = s2.p, s2.q, s2.n, s2.d
    else:
        p2, q2, n2, d2 = s2.numerator, 0, 0, s2.denominator
    # Both denominators are positive: compare (p1 + q1 sqrt(n1)) d2 with
    # (p2 + q2 sqrt(n2)) d1.
    x = p1 * d2 - p2 * d1
    if n1 == n2:
        return _sign_x_plus_y_sqrt(x, q1 * d2 - q2 * d1, n1)
    return _sign_two_radicals(x, q1 * d2, n1, -q2 * d1, n2)
