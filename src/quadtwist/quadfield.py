"""Exact arithmetic in real quadratic fields Q(sqrt(D)) and in quadratic surds.

All values are immutable.  Every order predicate is decided by one exact sign
test on plain integers (the sign of x + y*sqrt(m), or of a sum of two such
radicals) after clearing denominators; no floating point enters any
comparison.

The cycle of reduced indefinite binary quadratic forms is walked in one
place, `_rho_walk`: `fundamental_unit` reads the unit off the principal
cycle, and `applications.form_minimum` the minimum of a form off its own.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction

Rational = int | Fraction

# Builders for the immutable value types, bypassing their public checks;
# `_setattr` is for `Surd`, whose slots leave no __dict__.
_new = object.__new__
_setattr = object.__setattr__


class _Record:
    """Base of the immutable result records.  `_fields` names a record's
    fields in constructor order, and its __init__ writes them all with one
    `self.__dict__.update(...)`, keywords in `_fields` order (pickle bytes
    follow dict order); ==, hash and repr are those of a frozen dataclass on
    the same fields, repr printed by `_repr`.  Pickle and copy also write the
    __dict__ directly.
    """

    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = (f"{f}={_repr(getattr(self, f))}" for f in self._fields)
        return f"{type(self).__qualname__}({', '.join(args)})"

    def __setattr__(self, name, *value):  # also __delattr__, without value
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def _int(n: int) -> str:
    # str(n) refuses more digits than sys.get_int_max_str_digits(); a large
    # unit has thousands.  Decimal prints every digit.
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _repr(x) -> str:
    """repr(x), printing ints of any size, also in a Fraction or a tuple."""
    if isinstance(x, int):
        return _int(x)
    if isinstance(x, Fraction):
        return f"Fraction({_int(x.numerator)}, {_int(x.denominator)})"
    if type(x) is tuple:
        return f"({', '.join(map(_repr, x))}{',' if len(x) == 1 else ''})"
    return repr(x)


# The one type gate of exact inputs, by `type`, not `isinstance`, since a
# bool is an int; a plain loop costs less than all() over a generator.

def _ints(*xs) -> bool:
    for x in xs:
        if type(x) is not int:
            return False
    return True


def _rationals(*xs) -> bool:
    for x in xs:
        if type(x) is not int and type(x) is not Fraction:
            return False
    return True


def _rat(q: Rational) -> str:
    """str(q) of an int or Fraction, of any size."""
    n = _int(q.numerator)
    return n if q.denominator == 1 else f"{n}/{_int(q.denominator)}"


def _ratio(n: int, d: int) -> str:
    """_rat(Fraction(n, d)) for d > 0, with one gcd."""
    g = math.gcd(n, d)
    return _int(n // g) if g == d else f"{_int(n // g)}/{_int(d // g)}"


def _surd_str(p: int, q: int, n: int, d: int) -> str:
    """str of (p + q*sqrt(n))/d for d > 0, the rational part p/d and the
    coefficient q/d in lowest terms: a Surd or a QuadElem prints as this."""
    if q == 0:
        return _ratio(p, d)
    head = "" if p == 0 else f"{_ratio(p, d)} + "
    coef = "" if q == d else f"{_ratio(q, d)}*"
    return f"{head}{coef}sqrt({_int(n)})"


def _order(op):
    """The rich comparison op(self._cmp(other), 0).  `_cmp` returns
    NotImplemented for an operand of another type, so Python raises
    TypeError."""
    def compare(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else op(c, 0)
    return compare


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
    perfect square.  Exact for every int n; any other type, a bool too,
    raises TypeError.  The cost grows as n^(1/3): at n = 10^18 the divisors
    run up to 10^6, about 5 * 10^5 divisions, and more above that.
    """
    if not _ints(n):
        raise TypeError("n must be an int")
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


# The largest D that check_field accepts.  Deciding squarefreeness is as
# hard as factoring in general; up to 10**18 the trial division of
# `is_squarefree` stops below 10**6, at most about 5 * 10**5 divisions.
_D_MAX = 10**18


def check_field(D: int) -> int:
    """D itself, if it is a squarefree integer with 1 < D <= 10**18;
    otherwise InvalidFieldError.  The size bound is checked before any
    division, so a larger D is refused at once."""
    if not _ints(D) or D <= 1:
        raise InvalidFieldError(f"D must be an integer > 1, got {_repr(D)}")
    if D > _D_MAX:
        raise InvalidFieldError(
            f"D must be at most 10**18, got a D of {D.bit_length()} bits")
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


def _totally_positive(p: int, q: int, D: int) -> bool:
    """Whether (p + q*sqrt(D))/d, d > 0 and D not a square, is totally
    positive: both p + q*sqrt(D) and p - q*sqrt(D) are > 0, i.e.
    p > |q|*sqrt(D)."""
    return p > 0 and p * p > D * q * q


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
    their operands.  x and y must be ints or Fractions: any other type, a
    bool too, raises TypeError, so no float or string reaches the exact
    fields; operands of the ring operations pass the same gate.
    """

    __slots__ = ("_D", "_p", "_q", "_d")

    def __init__(self, D: int, x: Rational = 0, y: Rational = 0):
        check_field(D)
        if not _rationals(x, y):
            raise TypeError("x and y must be ints or Fractions")
        # x and y are in lowest terms, so this form is already canonical.
        d = math.lcm(x.denominator, y.denominator)
        self._D = D
        self._p = x.numerator * (d // x.denominator)
        self._q = y.numerator * (d // y.denominator)
        self._d = d

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
        if _rationals(other):
            return _quad(self._D, other.numerator, 0, other.denominator)
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
        return _quad(self._D, -self._p, -self._q, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self + -o

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
        # raised, not NotImplemented, which would let Fraction.__rpow__
        # answer ** Fraction(2) as ** 2
        if not _ints(k):
            raise TypeError("the exponent must be an int")
        if k < 0:
            return self.inverse() ** (-k)
        r = _quad(self._D, 1, 0, 1)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    # -- field invariants -------------------------------------------------

    def conjugate(self) -> "QuadElem":
        return _quad(self._D, self._p, -self._q, self._d)

    def norm(self) -> Fraction:
        p, q, d = self._p, self._q, self._d
        return Fraction(p * p - self._D * q * q, d * d)

    def is_totally_positive(self) -> bool:
        return _totally_positive(self._p, self._q, self._D)

    # -- order and conversion ----------------------------------------------

    def _cmp(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self._D
        return _surd_sign((self._p, self._q, D, self._d),
                          (o._p, o._q, D, o._d))

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

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
        """sigma_i(self) as a float, for the embedding i = 1 or 2."""
        if not _ints(i):
            raise TypeError("the embedding index must be an int")
        if i != 1 and i != 2:
            raise ValueError("the embedding index must be 1 or 2")
        return _float(self._p, self._q if i == 1 else -self._q, self._D, self._d)

    def __float__(self):
        return self.embed(1)

    def __repr__(self):
        return (f"QuadElem(D={_repr(self._D)}, x={_repr(self.x)}, "
                f"y={_repr(self.y)})")

    def __str__(self):
        return _surd_str(self._p, self._q, self._D, self._d)


# perfbench/selftest.py builds elements by this name.
QuadElem.of = QuadElem


def _quad(D: int, p: int, q: int, d: int) -> QuadElem:
    """(p + q*sqrt(D))/d for d > 0 in a field whose D is checked: skips
    check_field and divides out gcd(p, q, d)."""
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    z = _new(QuadElem)
    z._D, z._p, z._q, z._d = D, p, q, d
    return z


def _discriminant(D: int) -> int:
    """discriminant(D) for a D that is already checked."""
    return D if D % 4 == 1 else 4 * D


def discriminant(D: int) -> int:
    check_field(D)
    return _discriminant(D)


Form = tuple[int, int, int]  # integral (A, B, C), B^2 - 4AC > 0 not a square


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


def _rho_walk(f: Form) -> Iterator[tuple[Form, int, int]]:
    """Yield (rho^k(f), x, y) for k = 1, 2, ... without end.

    (x, y) is the first column of the accumulated unimodular transform U with
    rho^k(f) = f o U, so f(x, y) is the leading coefficient of rho^k(f).
    From any start the walk reaches the reduced forms of the discriminant
    and then runs round their cycle (Cohen, GTM 138, 5.6).  A discriminant
    has finitely many reduced forms, so a form repeats, and a walk from a
    reduced form comes back to it.
    """
    u11, u12, u21, u22 = 1, 0, 0, 1
    while True:
        f, s = _rho_step(f)
        # U <- U @ [[0, -1], [1, s]]
        u11, u12 = u12, -u11 + s * u12
        u21, u22 = u22, -u21 + s * u22
        yield f, u11, u21


def fundamental_unit(D: int) -> tuple[QuadElem, QuadElem]:
    """Fundamental unit eps > 1 of O_K and the least totally positive unit.

    With disc the field discriminant and b the largest integer below
    sqrt(disc) with b = disc (mod 2), the principal form
    f = (1, b, (b^2 - disc)/4) is reduced and f(x, y) = N(x + y*w) for
    w = (b + sqrt(disc))/2.  Walking its cycle of reduced forms, the first
    form with leading coefficient +-1 has the column (x, y) with
    x + y*w = +-eps^(+-1) (Cohen, GTM 138, 5.7): it is half-way round the
    cycle when N(eps) = -1, and at its end otherwise.  A sign and an
    inverse make eps > 1; |N(eps)| = 1 is re-checked exactly.
    eps_plus = eps if N(eps) = 1 else eps^2.
    """
    check_field(D)
    disc = _discriminant(D)
    b = math.isqrt(disc)
    b -= (b - disc) % 2
    for (A, _, _), x, y in _rho_walk((1, b, (b * b - disc) // 4)):
        if abs(A) == 1:
            break
    # x + y*w = (2x + y*b + y*sqrt(disc))/2, with sqrt(disc) = sqrt(D) when
    # disc = D and 2*sqrt(D) when disc = 4D.
    eps = _quad(D, 2 * x + y * b, y if disc == D else 2 * y, 2)
    n = eps.norm()
    if abs(n) != 1:
        raise CertificateError(
            f"form cycle of D = {D}: column ({_int(x)}, {_int(y)}) gives "
            f"{eps} of norm {_rat(n)}, not a unit")
    if eps < 0:
        eps = -eps
    if eps < 1:
        eps = eps.inverse()
    eps_plus = eps if n == 1 else eps * eps
    return eps, eps_plus


class Surd:
    """Exact real value (p + q*sqrt(n))/d on ints p, q, n and d, n >= 0, d > 0.

    Any other argument type, a bool too, raises TypeError, so no float
    reaches the exact sign tests.  Canonical form: when n is a perfect square
    the radical is folded into p and q = n = 0.  The radicand is otherwise
    kept as given, not reduced to its squarefree part.  Total order against
    rationals (ints and Fractions, not bools) and other Surds is decided by
    integer sign tests after cross-multiplying the denominators, never by
    floating point.
    """

    __slots__ = ("p", "q", "n", "d")

    def __init__(self, p: int, q: int = 0, n: int = 0, d: int = 1):
        if not _ints(p, q, n, d):
            raise TypeError("p, q, n and d must be ints")
        if n < 0 or d <= 0:
            raise ValueError("need a radicand n >= 0 and a denominator d > 0")
        if q == 0 or n == 0:
            q = n = 0
        else:
            r = math.isqrt(n)
            if r * r == n:
                p, q, n = p + q * r, 0, 0
        _setattr(self, "p", p)
        _setattr(self, "q", q)
        _setattr(self, "n", n)
        _setattr(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    def __reduce__(self):
        return (Surd, (self.p, self.q, self.n, self.d))

    def __repr__(self):
        return f"Surd{_repr((self.p, self.q, self.n, self.d))}"

    def __str__(self):
        return _surd_str(self.p, self.q, self.n, self.d)

    def __float__(self):
        return _float(self.p, self.q, self.n, self.d)

    def _cmp(self, other):
        if isinstance(other, Surd) or _rationals(other):
            return surd_compare(self, other)
        return NotImplemented

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)
    __eq__ = _order(operator.eq)

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


def _float(p: int, q: int, n: int, d: int) -> float:
    """float((p + q*sqrt(n))/d) for ints with n >= 0 and d > 0, correctly
    rounded from the integers alone, so that neither overflow nor
    cancellation can bite.

    For r = isqrt(n*4^k) the value lies between num/den and hi/den, with
    num = p*2^k + q*r, hi = num + q (num if r is exact) and den = d*2^k; k
    doubles until |hi - num| <= 2^-64 |num| and the two correctly rounded
    int / int divisions agree.  +-inf stands for a value beyond float range."""
    k = 64
    while True:
        r = math.isqrt(n << 2 * k)
        num, den = (p << k) + q * r, d << k
        hi = num if r * r == n << 2 * k else num + q
        if abs(num) >> 64 >= abs(hi - num):
            try:
                if (v := num / den) == hi / den:
                    return v
            except OverflowError:
                return math.inf if num > 0 else -math.inf
        k *= 2


def _surd_sign(s1: tuple[int, int, int, int],
               s2: tuple[int, int, int, int]) -> int:
    """Exact sign of s1 - s2 for s = (p, q, n, d), the value
    (p + q*sqrt(n))/d on integers with n >= 0 and d > 0; n need not be
    squarefree, and a perfect square n need not be folded into p.

    The one cross-multiplied comparison: `QuadElem` and `Surd` order and
    the ends of the stable clipping in `twist` all go through it."""
    p1, q1, n1, d1 = s1
    p2, q2, n2, d2 = s2
    # Both denominators are positive: compare (p1 + q1 sqrt(n1)) d2 with
    # (p2 + q2 sqrt(n2)) d1.
    x = p1 * d2 - p2 * d1
    if n1 == n2:
        return _sign_x_plus_y_sqrt(x, q1 * d2 - q2 * d1, n1)
    return _sign_two_radicals(x, q1 * d2, n1, -q2 * d1, n2)


def surd_compare(s1, s2) -> int:
    """Exact three-way comparison of Surd/rational values: -1, 0 or +1.

    Raises TypeError for an operand that is not a Surd, int or Fraction,
    so for a bool too."""
    ints = []
    for s in (s1, s2):
        if isinstance(s, Surd):
            ints.append((s.p, s.q, s.n, s.d))
        elif _rationals(s):
            ints.append((s.numerator, 0, 0, s.denominator))
        else:
            raise TypeError(f"not a Surd or rational: {type(s).__name__}")
    return _surd_sign(*ints)
