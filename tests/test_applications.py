import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from quadtwist import applications
from quadtwist.applications import (
    HEXAGONAL_THICKNESS_SQ,
    ThicknessSearchResult,
    d_min_sq_twist,
    euclidean_bounds,
    form_minimum,
    min_abs_norm,
    tau_min_search,
)
from quadtwist.ideals import (
    CanonicalIdeal,
    enumerate_canonical,
    ring_of_integers,
    validate_canonical,
)
from quadtwist.quadfield import (
    CertificateError,
    QuadElem,
    fundamental_unit,
    is_squarefree,
)


class TestFormMinimum:
    def test_pell_form(self):
        # x^2 - 2y^2 represents +-1
        m, vec = form_minimum((1, 0, -2))
        assert m == 1
        x, y = vec
        assert abs(x * x - 2 * y * y) == 1

    def test_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(60):
            A = rng.randint(-12, 12)
            B = rng.randint(-12, 12)
            C = rng.randint(-12, 12)
            disc = B * B - 4 * A * C
            if disc <= 0 or math.isqrt(disc) ** 2 == disc or A == 0:
                continue
            m, vec = form_minimum((A, B, C))
            x, y = vec
            assert abs(A * x * x + B * x * y + C * y * y) == m
            brute = min(
                abs(A * x * x + B * x * y + C * y * y)
                for x in range(-40, 41)
                for y in range(-40, 41)
                if (x, y) != (0, 0)
            )
            # the cycle value is certified by its witness; the box can only
            # miss minima whose witnesses are large, never find smaller ones
            assert m <= brute, (A, B, C)
            if abs(x) <= 40 and abs(y) <= 40:
                assert m == brute, (A, B, C)

    def test_rejects_definite_and_square_disc(self):
        with pytest.raises(ValueError):
            form_minimum((1, 0, 1))
        with pytest.raises(ValueError):
            form_minimum((1, 3, 2))  # disc = 1


class TestMinAbsNorm:
    def test_ring_of_integers(self):
        for D in (2, 5, 139, 151):
            r = min_abs_norm(ring_of_integers(D))
            assert r.m == 1
            assert abs(r.witness.norm()) == 1
            assert r.attains_ideal_norm

    def test_cycle_longer_than_10000_forms(self):
        # O_K(20833961): N(eps) = -1 and a cycle of 11,306 reduced forms,
        # which a walk capped at 10,000 steps could not close.
        r = min_abs_norm(ring_of_integers(20833961))
        assert (r.m, r.coeffs) == (1, (1, 0))

    def test_non_principal_ideal(self):
        # (3, 1 - sqrt(10)) has norm 3, but no element of norm +-3 exists
        # (the ideal is not principal); the minimal |N| is 6
        I = validate_canonical(10, 3, 1, 1)
        r = min_abs_norm(I)
        assert r.m == 6
        assert not r.attains_ideal_norm
        assert abs(r.witness.norm()) == 6

    def test_norm_multiple_of_ideal_norm(self):
        for D in (10, 13, 139):
            for I in enumerate_canonical(D, 10):
                r = min_abs_norm(I)
                assert r.m % I.norm() == 0
                assert r.m >= I.norm()

    def test_brute_force_agreement(self):
        for D in (2, 5, 10, 13):
            for I in enumerate_canonical(D, 8):
                r = min_abs_norm(I)
                z1, z2 = I.basis_elements()
                brute = min(
                    abs((m * z1 + n * z2).norm())
                    for m in range(-25, 26)
                    for n in range(-25, 26)
                    if (m, n) != (0, 0)
                )
                assert r.m == brute, I


class TestDMin:
    def test_exact_value(self):
        I = ring_of_integers(5)
        alpha = QuadElem.of(5, 5, 1)
        assert d_min_sq_twist(I, alpha) == 20  # N(alpha) = 20, m = 1

    def test_unit_invariance(self):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            D = rng.randint(2, 60)
            if not is_squarefree(D):
                continue
            I = rng.choice(enumerate_canonical(D, 10))
            t = Fraction(rng.randint(int(math.isqrt(D)) + 1, 4 * D))
            if t * t <= D:
                continue
            alpha = QuadElem.of(D, t, 1)
            _, eps_plus = fundamental_unit(D)
            shifted = alpha * eps_plus * eps_plus
            assert d_min_sq_twist(I, alpha) == d_min_sq_twist(I, shifted)
            checked += 1

    def test_matches_embedded_product_oracle(self):
        # numeric check of the defining minimum over a coefficient box
        I = validate_canonical(10, 3, 1, 1)
        alpha = QuadElem.of(10, 7, 1)
        exact = float(d_min_sq_twist(I, alpha))
        z1, z2 = I.basis_elements()
        a1, a2 = alpha.embed(1), alpha.embed(2)
        best = None
        for m in range(-20, 21):
            for n in range(-20, 21):
                if (m, n) == (0, 0):
                    continue
                c1 = (m * z1.embed(1) + n * z2.embed(1)) * math.sqrt(a1)
                c2 = (m * z1.embed(2) + n * z2.embed(2)) * math.sqrt(a2)
                p = (c1 * c2) ** 2
                best = p if best is None else min(best, p)
        assert abs(best - exact) <= 1e-6 * exact

    def test_rejects_not_totally_positive(self):
        with pytest.raises(ValueError):
            d_min_sq_twist(ring_of_integers(5), QuadElem.of(5, 1, 1))

    def test_rejects_mixed_fields(self):
        with pytest.raises(ValueError, match="mixed fields"):
            d_min_sq_twist(ring_of_integers(7), QuadElem.of(5, 3, 1))


class TestThicknessSearch:
    def test_golden_ring(self):
        r = tau_min_search(ring_of_integers(5))
        assert r.exact_tau_sq_at_argmin <= Fraction(1, 4)
        assert r.exact_tau_sq_at_argmin >= HEXAGONAL_THICKNESS_SQ
        assert abs(r.tau_min_estimate - 0.5) < 1e-9 or r.tau_min_estimate < 0.5

    def test_estimate_is_certified_upper_bound(self):
        from quadtwist.lattice2 import gram_of_twist, hermite_thickness_sq

        for D, a, b, g in [(2, 1, 0, 1), (10, 3, 1, 1)]:
            I = validate_canonical(D, a, b, g)
            r = tau_min_search(I)
            alpha = QuadElem.of(D, r.argmin_t, 1)
            assert hermite_thickness_sq(gram_of_twist(I, alpha)) == \
                r.exact_tau_sq_at_argmin
            assert r.exact_tau_sq_at_argmin >= HEXAGONAL_THICKNESS_SQ

    def test_unit_beyond_float_range(self):
        # eps_plus of D = 9999991 has 4153 digits
        from quadtwist.lattice2 import gram_of_twist, hermite_thickness_sq

        I = ring_of_integers(9999991)
        r = tau_min_search(I)
        alpha = QuadElem.of(I.D, r.argmin_t, 1)
        assert hermite_thickness_sq(gram_of_twist(I, alpha)) == \
            r.exact_tau_sq_at_argmin
        assert r.exact_tau_sq_at_argmin >= HEXAGONAL_THICKNESS_SQ

    def test_repr_of_small_values_is_the_dataclass_repr(self):
        r = tau_min_search(ring_of_integers(5))
        assert repr(r) == (
            f"ThicknessSearchResult(tau_min_estimate={r.tau_min_estimate!r}, "
            f"argmin_t={r.argmin_t!r}, "
            f"exact_tau_sq_at_argmin={r.exact_tau_sq_at_argmin!r}, "
            f"lower_bound={r.lower_bound!r})")

    def test_repr_beyond_the_int_str_limit(self):
        # The argmin_t of O_K(388545018) has a 14,412-bit denominator;
        # str(int) refuses more than 4,300 digits (sys.get_int_max_str_digits).
        t = Fraction(3 ** 9001 + 1, 1 << 14411)
        r = ThicknessSearchResult(0.5, t, t * t, 0.25)
        text = repr(r)
        found = re.findall(r"Fraction\((\d+), (\d+)\)", text)
        assert [Fraction(int(Decimal(n)), int(Decimal(d))) for n, d in found] \
            == [t, t * t]
        (n1, d1), (n2, d2) = found
        assert text == (
            f"ThicknessSearchResult(tau_min_estimate=0.5, "
            f"argmin_t=Fraction({n1}, {d1}), "
            f"exact_tau_sq_at_argmin=Fraction({n2}, {d2}), lower_bound=0.25)")


class TestEuclideanBounds:
    def test_field_verdicts(self):
        certified = [D for D in range(2, 51)
                     if is_squarefree(D) and euclidean_bounds(D).euclidean_certified]
        assert certified == [2, 3, 5, 13]

    def test_field_bound_value(self):
        r = euclidean_bounds(5)
        assert abs(r.field_bound - math.sqrt(5) / 4) < 1e-12
        assert r.ideal_bound is None

    def test_ideal_bound(self):
        I = ring_of_integers(5)
        r = tau_min_search(I)
        rep = euclidean_bounds(5, I, r.exact_tau_sq_at_argmin)
        expected = math.sqrt(float(r.exact_tau_sq_at_argmin)) / 2 * math.sqrt(5)
        assert abs(rep.ideal_bound - expected) < 1e-9
        assert rep.ideal_bound_lt_one == \
            (r.exact_tau_sq_at_argmin * 5 * 1 < 4)
        assert rep.ideal_bound_lt_one

    def test_ideal_bound_beyond_float_range(self):
        # N(I) = 10**400 does not convert to float: the companion reads inf,
        # and the exact verdict stays
        rep = euclidean_bounds(2, CanonicalIdeal(2, 10**200, 0, 10**200),
                               Fraction(1, 5))
        assert rep.ideal_bound == math.inf
        assert rep.ideal_bound_lt_one is False

    def test_ideal_bound_of_a_norm_beyond_float_range(self):
        # N(I) = 2**1024 is beyond float range, the bound
        # sqrt(1/5) * sqrt(8) / 2 * 2**1024 is not
        rep = euclidean_bounds(2, CanonicalIdeal(2, 2**512, 0, 2**512),
                               Fraction(1, 5))
        assert rep.ideal_bound == pytest.approx(
            math.ldexp(math.sqrt(8 / 5) / 2, 1024), rel=1e-12)
        assert rep.ideal_bound_lt_one is False

    def test_rejects_mixed_fields(self):
        with pytest.raises(ValueError, match="mixed fields"):
            euclidean_bounds(5, ring_of_integers(7), Fraction(1, 4))
        with pytest.raises(ValueError, match="mixed fields"):
            euclidean_bounds(5, ring_of_integers(7))


# form_minimum before it walked quadfield._rho_walk, kept as the reference:
# its own reduction step, and a walk capped at max_steps.

def _ref_rho_step(f):
    A, B, C = f
    disc = B * B - 4 * A * C
    sq = math.isqrt(disc)
    ac = abs(C)
    r = (-B) % (2 * ac)
    if ac > sq:
        if r > ac:
            r -= 2 * ac
    else:
        r += ((sq - r) // (2 * ac)) * (2 * ac)
    s = (B + r) // (2 * C)
    return (C, r, (r * r - disc) // (4 * C)), s


def _ref_form_minimum(f, max_steps=10000):
    cur = f
    u11, u12, u21, u22 = 1, 0, 0, 1
    best = abs(f[0])
    best_vec = (1, 0)
    seen = {}
    for step in range(max_steps):
        if cur in seen:
            break
        seen[cur] = step
        cur, s = _ref_rho_step(cur)
        u11, u12 = u12, -u11 + s * u12
        u21, u22 = u22, -u21 + s * u22
        if abs(cur[0]) < best:
            best = abs(cur[0])
            best_vec = (u11, u21)
    else:
        raise RuntimeError("form cycle did not close")
    return best, best_vec


class TestFormMinimumAgainstReference:
    def test_random_forms(self):
        rng = random.Random(20261018)
        checked = 0
        while checked < 5000:
            f = tuple(rng.randint(-60, 60) for _ in range(3))
            disc = f[1] * f[1] - 4 * f[0] * f[2]
            if disc <= 0 or math.isqrt(disc) ** 2 == disc:
                continue
            assert form_minimum(f) == _ref_form_minimum(f), f
            checked += 1


def _ref_min_abs_norm_coeffs(I, scan_box=40):
    """min_abs_norm's witness by brute force: the least (|x| + |y|, (x, y))
    among the reference cycle witness and the points of the box
    0 <= x <= scan_box, |y| <= scan_box where |f| is the minimum.  The box
    is scanned level by level in |x| + |y|, up to the first level that holds
    a hit or the cycle witness."""
    A, B, C = f = applications._norm_form(I)
    m, vec = _ref_form_minimum(f)
    w = applications._normalize_coeffs(vec)
    w_level = abs(w[0]) + abs(w[1])
    for level in range(1, min(w_level, 2 * scan_box) + 1):
        hits = [(x, y) for x in range(min(level, scan_box) + 1)
                for y in {level - x, x - level}
                if abs(y) <= scan_box and (x, y) > (0, 0)
                and abs(A * x * x + B * x * y + C * y * y) == m]
        if level == w_level:
            hits.append(w)
        if hits:
            return min(hits)
    return w


class TestMinAbsNormWitnessAgainstBoxScan:
    def test_every_small_ideal(self):
        checked = 0
        for D in range(2, 400):
            if not is_squarefree(D):
                continue
            for I in enumerate_canonical(D, 12):
                z1, z2 = I.basis_elements()
                f = applications._norm_form(I)
                # the middle coefficient is the trace 2x of z1*z2
                assert f == (z1.norm(), 2 * (z1 * z2).x, z2.norm()), I
                assert form_minimum(f) == _ref_form_minimum(f), I
                assert min_abs_norm(I).coeffs == _ref_min_abs_norm_coeffs(I), I
                checked += 1
        assert checked == 7462


class TestCertificates:
    def test_form_minimum_rechecks_transform(self, monkeypatch):
        monkeypatch.setattr(applications, "_form_value", lambda f, x, y: 0)
        with pytest.raises(CertificateError):
            form_minimum((1, 0, -2))

    def test_form_minimum_rechecks_the_returned_column(self, monkeypatch):
        # A walk whose columns are off by one: the least leading coefficient
        # of (7, 1, -5) is 1, kept with the column (8, 9), where |f| = 115.
        true_walk = applications._rho_walk
        monkeypatch.setattr(
            applications, "_rho_walk",
            lambda f: ((g, x + 1, y) for g, x, y in true_walk(f)))
        with pytest.raises(CertificateError):
            form_minimum((7, 1, -5))

    def test_min_abs_norm_rechecks_witness(self, monkeypatch):
        true_minimum = applications.form_minimum
        monkeypatch.setattr(
            applications, "form_minimum",
            lambda f: (true_minimum(f)[0] + 1, true_minimum(f)[1]))
        with pytest.raises(CertificateError):
            min_abs_norm(ring_of_integers(139))
