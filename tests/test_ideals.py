import pickle
from fractions import Fraction

import pytest

from quadtwist.ideals import (
    CanonicalBasisError,
    CanonicalIdeal,
    enumerate_canonical,
    ring_of_integers,
    validate_canonical,
)
from quadtwist.quadfield import InvalidFieldError, QuadElem, is_squarefree


def delta(D):
    """The generator of O_K over Z: -sqrt(D), or (1 - sqrt(D))/2 when
    D = 1 (mod 4)."""
    if D % 4 == 1:
        return QuadElem.of(D, Fraction(1, 2), Fraction(-1, 2))
    return QuadElem.of(D, 0, -1)


class TestValidation:
    def test_worked_triples_are_valid(self):
        for D, a, b, g in [
            (139, 9, 7, 1),
            (141, 5, 4, 1),
            (1327, 39, 38, 1),
            (125173, 183, 182, 1),
            (5, 1, 0, 1),
        ]:
            I = validate_canonical(D, a, b, g)
            assert I.norm() == a * g

    def test_condition_names(self):
        with pytest.raises(CanonicalBasisError) as e:
            validate_canonical(10, 3, 5, 1)
        assert e.value.condition == "b<a"
        with pytest.raises(CanonicalBasisError) as e:
            validate_canonical(10, 9, 6, 2)
        assert e.value.condition == "g|a"
        with pytest.raises(CanonicalBasisError) as e:
            validate_canonical(10, 4, 3, 2)
        assert e.value.condition == "g|b"
        with pytest.raises(CanonicalBasisError) as e:
            validate_canonical(10, 7, 1, 1)
        assert e.value.condition == "divisibility"

    def test_non_int_entries_rejected(self):
        # a float or Fraction pencil would give float verdicts downstream
        for a, b, g in [(3.0, 1, 1), (Fraction(3), 1, 1), (3, 1.0, 1),
                        (3, 1, Fraction(1))]:
            with pytest.raises(CanonicalBasisError) as e:
                CanonicalIdeal(7, a, b, g)
            assert e.value.condition == "int"

    def test_bool_entries_rejected(self):
        # bool is an int subclass: True would pass for 1 yet print as True
        for a, b, g in [(7, 1, True), (True, False, True), (3, False, 1)]:
            with pytest.raises(CanonicalBasisError) as e:
                CanonicalIdeal(7, a, b, g)
            assert e.value.condition == "int"

    def test_nonpositive_rejected(self):
        with pytest.raises(CanonicalBasisError):
            validate_canonical(10, 0, 0, 1)
        with pytest.raises(CanonicalBasisError):
            validate_canonical(10, 3, -1, 1)


class TestModuleIsIdeal:
    """The canonical conditions say exactly that span(a, b + g*delta) is
    closed under multiplication by O_K, i.e. really is an ideal."""

    @staticmethod
    def _in_span(z, z1, z2) -> bool:
        # solve z = m*z1 + n*z2 over the rationals, check integrality
        det = z1.x * z2.y - z1.y * z2.x
        assert det != 0
        m = (z.x * z2.y - z.y * z2.x) / det
        n = (z1.x * z.y - z1.y * z.x) / det
        return m.denominator == 1 and n.denominator == 1

    def test_closure_under_delta(self):
        for D in (2, 5, 10, 13, 139, 141):
            for I in enumerate_canonical(D, 12):
                z1, z2 = I.basis_elements()
                d = delta(D)
                assert self._in_span(d * z1, z1, z2), I
                assert self._in_span(d * z2, z1, z2), I

    def test_rejected_triples_are_not_ideals(self):
        # triples failing only the norm-divisibility test span a module that
        # is not delta-stable
        for D in (2, 5, 10, 13):
            for a in range(1, 10):
                for b in range(0, a):
                    try:
                        validate_canonical(D, a, b, 1)
                        continue
                    except CanonicalBasisError as e:
                        if e.condition != "divisibility":
                            continue
                    z1 = QuadElem.of(D, a, 0)
                    z2 = b + 1 * delta(D)
                    d = delta(D)
                    closed = self._in_span(d * z1, z1, z2) and \
                        self._in_span(d * z2, z1, z2)
                    assert not closed, (D, a, b)


def _ref_enumerate(D, max_a):
    """The scan over every a <= max_a, g | a and b < a with g | b of the
    earlier enumerate_canonical, testing a*g | N(b + g*delta)."""
    found = []
    for a in range(1, max_a + 1):
        for g in range(1, a + 1):
            if a % g != 0:
                continue
            for b in range(0, a, g):
                if D % 4 == 1:
                    n = ((2 * b + g) ** 2 - D * g * g) // 4
                else:
                    n = b * b - D * g * g
                if n % (a * g) == 0:
                    found.append((a, b, g))
    return sorted(found)


class TestEnumeration:
    def test_completeness(self):
        for D in (10, 13):
            found = {(i.a, i.b, i.g) for i in enumerate_canonical(D, 8)}
            for a in range(1, 9):
                for g in range(1, a + 1):
                    for b in range(0, a):
                        try:
                            validate_canonical(D, a, b, g)
                        except CanonicalBasisError:
                            assert (a, b, g) not in found
                        else:
                            assert (a, b, g) in found

    @pytest.mark.parametrize("max_a", [0, 1, 12, 50])
    def test_same_list_as_the_full_scan(self, max_a):
        # every squarefree D <= 200, so D = 1 (mod 4) with even g is in
        for D in range(2, 201):
            if is_squarefree(D):
                assert [(i.a, i.b, i.g) for i in enumerate_canonical(D, max_a)] \
                    == _ref_enumerate(D, max_a), (D, max_a)

    def test_ideals_are_the_validated_ones(self):
        # the enumeration builds its ideals without CanonicalIdeal's checks;
        # D = 1 (mod 4) with even g (e = 2, u and v both even) is in the sweep
        even_g_at_e2 = 0
        for D in range(2, 201):
            if not is_squarefree(D):
                continue
            for I in enumerate_canonical(D, 50):
                J = CanonicalIdeal(D, I.a, I.b, I.g)
                assert (I == J and hash(I) == hash(J) and repr(I) == repr(J)
                        and I._uve == J._uve and I._pencil == J._pencil), J
                K = pickle.loads(pickle.dumps(I))
                assert (K == J and K._uve == J._uve
                        and K._pencil == J._pencil), J
                even_g_at_e2 += D % 4 == 1 and I.g % 2 == 0
        assert even_g_at_e2 > 0

    def test_field_checked_once_per_call(self):
        with pytest.raises(InvalidFieldError):
            enumerate_canonical(12, 5)
        assert enumerate_canonical(139, 0) == []

    def test_sorted_and_contains_ring(self):
        ideals = enumerate_canonical(139, 10)
        triples = [(i.a, i.b, i.g) for i in ideals]
        assert triples == sorted(triples)
        assert triples[0] == (1, 0, 1)


class TestHelpers:
    def test_ring_of_integers(self):
        I = ring_of_integers(7)
        assert (I.a, I.b, I.g) == (1, 0, 1)
        assert I.norm() == 1

    def test_basis_elements(self):
        z1, z2 = validate_canonical(139, 9, 7, 1).basis_elements()
        assert (z1.x, z1.y) == (9, 0)
        assert (z2.x, z2.y) == (7, -1)
        z1, z2 = validate_canonical(141, 5, 4, 1).basis_elements()
        assert (z2.x, z2.y) == (Fraction(9, 2), Fraction(-1, 2))
        for D in (2, 3, 5, 10, 13, 139, 141):
            for I in enumerate_canonical(D, 24):
                assert I.basis_elements() == (
                    QuadElem.of(D, I.a), I.b + I.g * delta(D)), I


class TestStoredIntegers:
    """The pencil an ideal stores is not a dataclass field: equality, hash,
    repr and pickling see (D, a, b, g) only."""

    # pickle.dumps(CanonicalIdeal(141, 5, 4, 1), protocol=4) of the plain
    # frozen dataclass, before the ideal stored any integers
    PLAIN_PICKLE = (
        b"\x80\x04\x95G\x00\x00\x00\x00\x00\x00\x00\x8c\x10quadtwist.ideals"
        b"\x94\x8c\x0eCanonicalIdeal\x94\x93\x94)\x81\x94}\x94(\x8c\x01D\x94K"
        b"\x8d\x8c\x01a\x94K\x05\x8c\x01b\x94K\x04\x8c\x01g\x94K\x01ub.")

    def test_fields_only(self):
        I = CanonicalIdeal(141, 5, 4, 1)
        assert pickle.dumps(I, protocol=4) == self.PLAIN_PICKLE
        assert I == CanonicalIdeal(141, 5, 4, 1)
        assert I != CanonicalIdeal(141, 1, 0, 1)
        assert hash(I) == hash((141, 5, 4, 1))
        assert repr(I) == "CanonicalIdeal(D=141, a=5, b=4, g=1)"

    def test_pencil_survives_pickle(self):
        for I in (CanonicalIdeal(141, 5, 4, 1), CanonicalIdeal(5, 2, 0, 2),
                  CanonicalIdeal(139, 9, 7, 1)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                J = pickle.loads(pickle.dumps(I, protocol=protocol))
                assert J == I
                assert (J._uve, J._pencil) == (I._uve, I._pencil)
        J = pickle.loads(self.PLAIN_PICKLE)
        assert J._pencil == CanonicalIdeal(141, 5, 4, 1)._pencil
