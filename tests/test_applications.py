import math
import random
from fractions import Fraction

import pytest

from quadtwist import applications
from quadtwist.applications import (
    HEXAGONAL_THICKNESS_SQ,
    d_min_sq_twist,
    euclidean_bounds,
    form_minimum,
    min_abs_norm,
    tau_min_search,
)
from quadtwist.ideals import enumerate_canonical, ring_of_integers, validate_canonical
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
            r = tau_min_search(I, grid=16, refine=12)
            alpha = QuadElem.of(D, r.argmin_t, 1)
            assert hermite_thickness_sq(gram_of_twist(I, alpha)) == \
                r.exact_tau_sq_at_argmin
            assert r.exact_tau_sq_at_argmin >= HEXAGONAL_THICKNESS_SQ

    def test_monotone_in_grid(self):
        I = ring_of_integers(2)
        coarse = tau_min_search(I, grid=8, refine=8)
        fine = tau_min_search(I, grid=32, refine=16)
        assert fine.exact_tau_sq_at_argmin <= coarse.exact_tau_sq_at_argmin


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


def _ref_min_abs_norm_coeffs(I, scan_box=40):
    """min_abs_norm's witness before it solved for y: a scan of the whole
    box 0 <= x <= scan_box, |y| <= scan_box."""
    f = applications._norm_form(I)
    A, B, C = f
    m, vec = form_minimum(f)
    candidates = [applications._normalize_coeffs(vec)]
    for x in range(0, scan_box + 1):
        for y in range(-scan_box, scan_box + 1):
            if (x, y) > (0, 0) and abs(A * x * x + B * x * y + C * y * y) == m:
                candidates.append((x, y))
    return min(candidates, key=lambda v: (abs(v[0]) + abs(v[1]), v))


class TestMinAbsNormWitnessAgainstBoxScan:
    def test_every_small_ideal(self):
        checked = 0
        for D in range(2, 400):
            if not is_squarefree(D):
                continue
            for I in enumerate_canonical(D, 12):
                assert min_abs_norm(I).coeffs == _ref_min_abs_norm_coeffs(I), I
                checked += 1
        assert checked == 7462


class TestCertificates:
    def test_form_minimum_rechecks_transform(self, monkeypatch):
        monkeypatch.setattr(applications, "_form_value", lambda f, x, y: 0)
        with pytest.raises(CertificateError):
            form_minimum((1, 0, -2))

    def test_min_abs_norm_rechecks_witness(self, monkeypatch):
        true_minimum = applications.form_minimum
        monkeypatch.setattr(
            applications, "form_minimum",
            lambda f: (true_minimum(f)[0] + 1, true_minimum(f)[1]))
        with pytest.raises(CertificateError):
            min_abs_norm(ring_of_integers(139))
