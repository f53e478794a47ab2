import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from quadtwist import applications, lattice2, twist
from quadtwist.applications import (
    HEXAGONAL_THICKNESS_SQ,
    d_min_sq_twist,
    euclidean_bounds,
    form_minimum,
    min_abs_norm,
    tau_min_search,
)
from quadtwist.geodesic import _log_ratio, _t_at
from quadtwist.ideals import (
    CanonicalIdeal,
    enumerate_canonical,
    ring_of_integers,
)
from quadtwist.lattice2 import gram_of_twist, hermite_thickness_sq
from quadtwist.quadfield import (
    CertificateError,
    QuadElem,
    fundamental_unit,
    is_squarefree,
)
from quadtwist.twist import wr_twist
from support import embedding
import oracles


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
        I = CanonicalIdeal(10, 3, 1, 1)
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

    def test_repr_beyond_the_int_str_limit(self):
        # str(int) refuses more than 4,300 digits: here m = 10**4400
        g = 10**2200
        r = min_abs_norm(CanonicalIdeal(2, g, 0, g))
        assert r.m == g * g
        x, y = r.coeffs
        assert repr(r) == (
            f"NormSearchResult(m=1{'0' * 4400}, witness={r.witness!r}, "
            f"coeffs=({x}, {y}), attains_ideal_norm=True)")


class TestDMin:
    def test_exact_value(self):
        I = ring_of_integers(5)
        alpha = QuadElem(5, 5, 1)
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
            alpha = QuadElem(D, t, 1)
            _, eps_plus = fundamental_unit(D)
            shifted = alpha * eps_plus * eps_plus
            assert d_min_sq_twist(I, alpha) == d_min_sq_twist(I, shifted)
            checked += 1

    def test_matches_embedded_product_oracle(self):
        # numeric check of the defining minimum over a coefficient box
        I = CanonicalIdeal(10, 3, 1, 1)
        alpha = QuadElem(10, 7, 1)
        exact = float(d_min_sq_twist(I, alpha))
        z1, z2 = I.basis_elements()
        a1, a2 = embedding(alpha, 1), embedding(alpha, 2)
        best = None
        for m in range(-20, 21):
            for n in range(-20, 21):
                if (m, n) == (0, 0):
                    continue
                c1 = (m * embedding(z1, 1) + n * embedding(z2, 1)) \
                    * math.sqrt(a1)
                c2 = (m * embedding(z1, 2) + n * embedding(z2, 2)) \
                    * math.sqrt(a2)
                p = (c1 * c2) ** 2
                best = p if best is None else min(best, p)
        assert abs(best - exact) <= 1e-6 * exact

    def test_rejects_not_totally_positive(self):
        with pytest.raises(ValueError):
            d_min_sq_twist(ring_of_integers(5), QuadElem(5, 1, 1))

    def test_rejects_mixed_fields(self):
        with pytest.raises(ValueError, match="mixed fields"):
            d_min_sq_twist(ring_of_integers(7), QuadElem(5, 3, 1))


def _seeded_ideal(seed):
    """O_K(-seed) for a negative seed; else a canonical ideal with squarefree
    D <= 1000 and a <= 12 drawn from random.Random(seed)."""
    if seed < 0:
        return ring_of_integers(-seed)
    rng = random.Random(seed)
    D = rng.choice([D for D in range(2, 1001) if is_squarefree(D)])
    return rng.choice(enumerate_canonical(D, 12))


class TestThicknessSearch:
    def test_golden_ring(self):
        r = tau_min_search(ring_of_integers(5))
        assert r.exact_tau_sq_at_argmin <= Fraction(1, 4)
        assert r.exact_tau_sq_at_argmin >= HEXAGONAL_THICKNESS_SQ
        assert abs(r.tau_min_estimate - 0.5) < 1e-9 or r.tau_min_estimate < 0.5

    @pytest.mark.parametrize("D", [5, 11, 14, 22, 42])
    def test_float_companions_are_correctly_rounded(self, D):
        # sqrt(float(tau^2)) rounds twice: it was one float off for 11, 14,
        # 22 and 42
        r = tau_min_search(ring_of_integers(D))
        exact = r.exact_tau_sq_at_argmin
        with localcontext() as ctx:
            ctx.prec = 60
            tau = (Decimal(exact.numerator) / exact.denominator).sqrt()
            hexagonal = (Decimal(4) / 27).sqrt()
        assert r.tau_min_estimate == float(tau)
        assert r.lower_bound == float(hexagonal)

    @pytest.mark.parametrize("seed", [-5, -139] + list(range(10)))
    def test_probe_budget(self, seed, monkeypatch):
        # 32 grid points, t* when there is one, and 25 golden-section probes:
        # the two points of the first step and one new point per later step
        I = _seeded_ideal(seed)
        calls = []
        true_thickness_at = applications._thickness_at

        def counted(*args):
            calls.append(args)
            return true_thickness_at(*args)

        monkeypatch.setattr(applications, "_thickness_at", counted)
        tau_min_search(I)
        assert len(calls) == (58 if wr_twist(I).wr_twistable else 57)

    @pytest.mark.parametrize("seed", [-5, -139] + list(range(10)))
    def test_one_reduction_per_probe(self, seed, monkeypatch):
        # the result is read off the winning probe: no probe is reduced
        # twice, and no Gram is built to rebuild the winner; twist reduces
        # only wr_twist's certificate, and lattice2 nothing
        I = _seeded_ideal(seed)
        counts = {applications: 0, lattice2: 0, twist: 0}
        for module in counts:
            def counted(*args, module=module, true_reduce=module._reduce):
                counts[module] += 1
                return true_reduce(*args)
            monkeypatch.setattr(module, "_reduce", counted)
        twistable = wr_twist(I).wr_twistable
        counts[twist] = 0
        tau_min_search(I)
        assert counts == {applications: 58 if twistable else 57,
                          lattice2: 0, twist: 1 if twistable else 0}

    def test_t_star_wins_a_float_tie(self, monkeypatch):
        # t* is probed first and only a strictly smaller score replaces the
        # best, so R3 needs no tie rule: with every probe scoring the same,
        # t* stands (a grid point, t ~ 11.79, took the tie before)
        I = CanonicalIdeal(139, 9, 7, 1)
        monkeypatch.setattr(applications, "_thickness_at",
                            lambda I, num, den, U: ((4, 27), U))
        assert tau_min_search(I).argmin_t == wr_twist(I).t_star \
            == Fraction(1946, 107)

    def test_probe_budget_sees_both_cases(self):
        verdicts = {wr_twist(_seeded_ideal(seed)).wr_twistable
                    for seed in [-5, -139] + list(range(10))}
        assert verdicts == {False, True}

    @pytest.mark.parametrize("seed", range(8))
    def test_no_grid_point_is_thinner(self, seed):
        # the search scores floats, yet its exact thickness is at most the
        # exact thickness at each of its 32 grid points, through Gram2
        I = _seeded_ideal(seed)
        r = tau_min_search(I)
        log_period = _log_ratio(fundamental_unit(I.D)[1])
        for k in range(1, 33):
            t = Fraction(*_t_at(I.D, log_period * k / 33))
            G = gram_of_twist(I, QuadElem(I.D, t, 1))
            assert r.exact_tau_sq_at_argmin <= hermite_thickness_sq(G), (I, k)

    def test_estimate_is_certified_upper_bound(self):
        for D, a, b, g in [(2, 1, 0, 1), (10, 3, 1, 1)]:
            I = CanonicalIdeal(D, a, b, g)
            r = tau_min_search(I)
            alpha = QuadElem(D, r.argmin_t, 1)
            assert hermite_thickness_sq(gram_of_twist(I, alpha)) == \
                r.exact_tau_sq_at_argmin
            assert r.exact_tau_sq_at_argmin >= HEXAGONAL_THICKNESS_SQ

    def test_unit_beyond_float_range(self):
        # eps_plus of D = 9999991 has 4153 digits
        I = ring_of_integers(9999991)
        r = tau_min_search(I)
        alpha = QuadElem(I.D, r.argmin_t, 1)
        assert hermite_thickness_sq(gram_of_twist(I, alpha)) == \
            r.exact_tau_sq_at_argmin
        assert r.exact_tau_sq_at_argmin >= HEXAGONAL_THICKNESS_SQ

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

    def test_rejects_a_non_rational_tau_min_sq(self):
        # tau^2 = 4/5 puts the bound sqrt(tau^2 * 5)/2 at 1 exactly: a float
        # would decide "< 1" on a binary approximation, so only an int or a
        # Fraction is taken
        I = ring_of_integers(5)
        assert euclidean_bounds(5, I, Fraction(4, 5)).ideal_bound_lt_one \
            is False
        assert euclidean_bounds(5, I, Fraction(4, 5) - Fraction(1, 10**30)) \
            .ideal_bound_lt_one is True
        assert euclidean_bounds(5, I, 0).ideal_bound_lt_one is True
        for bad in (0.1, "1/10", Decimal("0.1"), 1.0, True):
            with pytest.raises(TypeError):
                euclidean_bounds(5, I, bad)
            with pytest.raises(TypeError):
                euclidean_bounds(5, None, bad)

    def test_rejects_mixed_fields(self):
        with pytest.raises(ValueError, match="mixed fields"):
            euclidean_bounds(5, ring_of_integers(7), Fraction(1, 4))
        with pytest.raises(ValueError, match="mixed fields"):
            euclidean_bounds(5, ring_of_integers(7))


# form_minimum before it walked quadfield._rho_walk, kept as the reference:
# a walk of `oracles.rho` steps, capped at max_steps.

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
        cur, s = oracles.rho(cur)
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
