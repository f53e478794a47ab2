"""The one type gate of exact inputs.

Every exact number the library accepts is of type int, or of type int or
Fraction: a bool, float, str or Decimal is refused with a typed error, never
taken for a number.  Every library object a callable takes (an ideal, a
Gram, an element, a Surd) is checked by type as well, so a number, a string,
None or an object of another kind raises TypeError, not an AttributeError
from inside.  The sweep below calls every public callable that takes exact
numbers or objects once validly, then with each argument replaced by a value
of another type; `__all__` is covered name by name, so a new public name
cannot skip it.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

import quadtwist
from quadtwist import (
    CanonicalBasisError,
    CanonicalIdeal,
    Gram2,
    Interval,
    InvalidFieldError,
    QuadElem,
    SimilarityPoint,
    Surd,
    d_min_sq_twist,
    enumerate_canonical,
    euclidean_bounds,
    form_minimum,
    gram_of_twist,
    is_squarefree,
    raw_stable_polynomials,
    ring_of_integers,
    sample_orbit,
    surd_compare,
)
from support import TESTS, embedding, power, run_python

I141 = CanonicalIdeal(141, 5, 4, 1)
G141 = Gram2(2, 1, 2)
Z141 = QuadElem(141, 12, 1)  # 12 > sqrt(141): totally positive

# name -> (valid arguments, their kinds, a call on them).  Kinds: "D" a field
# discriminant (InvalidFieldError), "I" an int (TypeError), "R" an int or
# Fraction (TypeError), "C" an entry a, b or g of a canonical triple
# (CanonicalBasisError "int"), and the object kinds of OBJECTS (TypeError).
SWEEP = {
    "check_field": ((141,), "D", quadtwist.check_field),
    "discriminant": ((141,), "D", quadtwist.discriminant),
    "fundamental_unit": ((141,), "D", quadtwist.fundamental_unit),
    "orthogonal_only": ((141,), "D", quadtwist.orthogonal_only),
    "ring_of_integers": ((141,), "D", ring_of_integers),
    "is_squarefree": ((141,), "I", is_squarefree),
    "QuadElem": ((141, Fraction(1, 2), 3), "DRR", QuadElem),
    "Surd": ((1, 2, 3, 4), "IIII", Surd),
    "surd_compare": ((Fraction(1, 2), 3), "RR", quadtwist.surd_compare),
    "Gram2": ((2, 1, 2, 3), "IIII", Gram2),
    "UnimodularMap": ((0, -1, 1, 0), "IIII", quadtwist.UnimodularMap),
    "SimilarityPoint": ((Fraction(1, 2), 3), "RR", SimilarityPoint),
    "CanonicalIdeal": ((141, 5, 4, 1), "DCCC", CanonicalIdeal),
    "validate_canonical": ((141, 5, 4, 1), "DCCC",
                           quadtwist.validate_canonical),
    "enumerate_canonical": ((141, 6), "DI", enumerate_canonical),
    "raw_stable_polynomials": ((I141, Fraction(25, 2)), "KR",
                               raw_stable_polynomials),
    "sample_orbit": ((I141, 2), "KI", sample_orbit),
    "euclidean_bounds": ((141, I141, Fraction(4, 27)), "DkR",
                         euclidean_bounds),
    "form_minimum": ((1, 3, -1), "III",
                     lambda A, B, C: form_minimum((A, B, C))),
}

# Public callables whose arguments are library objects only, in the format
# of SWEEP; `Interval` also takes its two bool flags, which
# test_interval_flags_must_be_bools checks.
TAKES_OBJECTS = {
    name: ((G141,), "G", getattr(quadtwist, name))
    for name in ("hermite_thickness_sq", "is_lagrange_reduced",
                 "is_paper_reduced", "is_stable", "is_wr", "lagrange_reduce",
                 "minima_brute_force", "similarity_point", "successive_minima")
} | {
    name: ((I141,), "K", getattr(quadtwist, name))
    for name in ("stable_bound_filter", "stable_twist", "wr_bound_filter",
                 "wr_twist", "wr_intersection_classes", "min_abs_norm",
                 "tau_min_search")
} | {
    "gram_of_twist": ((I141, Z141), "KZ", gram_of_twist),
    "d_min_sq_twist": ((I141, Z141), "KZ", d_min_sq_twist),
    "F_invariant": ((*I141.basis_elements(), I141), "ZZK",
                    quadtwist.F_invariant),
    "Interval": ((Surd(1), Surd(2)), "Ss",
                 lambda lo, hi: Interval(lo, hi, False, True)),
    "simplest_rational_in": ((Surd(1), Surd(2)), "Ss",
                             quadtwist.simplest_rational_in),
}

# Object kinds: "K" an ideal, "G" a Gram, "Z" an element, "S" a Surd, each
# with a valid instance; a lower-case kind also takes None.
OBJECTS = {"K": I141, "G": G141, "Z": Z141, "S": Surd(1)}

# Result records hold what the library computed and check nothing;
# exceptions take a message.
RESULTS_AND_ERRORS = {
    "TwistVerdict", "FeasibilityReport", "GeodesicSample",
    "NormSearchResult", "ThicknessSearchResult", "EuclideanBoundReport",
    "CertificateError", "InvalidFieldError", "CanonicalBasisError",
}


def _substitutes(v, kind):
    """Values of other types for the valid argument v: for a number always a
    bool, floats, strings and Decimals, and for int-only kinds Fractions
    too; for an object numbers, a string, the objects of the other kinds and
    None where None is not valid."""
    if kind.upper() in OBJECTS:
        out = [True, 5, 1.0, "x", Fraction(1), Decimal(1)]
        out += [o for k, o in OBJECTS.items() if k != kind.upper()]
        return out + [None] * kind.isupper()
    out = [True, 1.0, "1", Decimal(1), float(v), str(v), Decimal(float(v))]
    if kind != "R":
        out += [Fraction(1), Fraction(v)]
    return out


def _refused(kind, e) -> bool:
    if kind == "D":
        return isinstance(e, InvalidFieldError)
    if kind == "C":
        return isinstance(e, CanonicalBasisError) and e.condition == "int"
    return isinstance(e, TypeError)


def sweep_failures() -> list:
    """(name, position, substitute, outcome) of every substitution that was
    not refused with its kind's error; empty when the gate holds."""
    failures = []
    for name, (valid, kinds, call) in (SWEEP | TAKES_OBJECTS).items():
        call(*valid)
        for i, kind in enumerate(kinds):
            for bad in _substitutes(valid[i], kind):
                args = list(valid)
                args[i] = bad
                try:
                    outcome = call(*args)
                except Exception as e:
                    if _refused(kind, e):
                        continue
                    outcome = e
                failures.append((name, i, bad, repr(outcome)[:80]))
    return failures


def test_every_public_callable_is_swept_or_listed():
    public = {n for n in quadtwist.__all__ if callable(getattr(quadtwist, n))}
    lists = [set(SWEEP), TAKES_OBJECTS, RESULTS_AND_ERRORS]
    assert set().union(*lists) == public
    assert sum(map(len, lists)) == len(public)  # no name in two lists


def test_sweep_refuses_every_other_type():
    assert sweep_failures() == []


def test_sweep_under_python_O():
    # the gate is no assert: it holds with asserts stripped, on the same
    # package as here
    script = ("import test_type_gate as t; "
              "print(__debug__, t.sweep_failures())")
    proc = run_python("-c", script, flags=("-O",), path=(TESTS,),
                      capture_output=True, text=True, check=True)
    assert proc.stdout == "False []\n"


# QuadElem, raw_stable_polynomials and euclidean_bounds take True among the
# bad values of their own type tests, and the sweep substitutes it for every
# number argument.
@pytest.mark.parametrize("call", [
    lambda: is_squarefree(True),
    lambda: enumerate_canonical(5, True),
    lambda: form_minimum((True, 3, -1)),
], ids=["is_squarefree", "enumerate_canonical", "form_minimum"])
def test_a_bool_is_not_a_number(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("f", [gram_of_twist, d_min_sq_twist],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("alpha", [Fraction(1), 1, 1.0, "x", Surd(3)])
def test_alpha_is_a_quad_elem(f, alpha):
    # d_min_sq_twist(I, Fraction(1)) raised AttributeError on alpha.D
    with pytest.raises(TypeError, match="alpha must be a QuadElem"):
        f(I141, alpha)


@pytest.mark.parametrize("f", [(1, 2), (1, 3, -1, 5), [1, 3, -1]],
                         ids=["two entries", "four entries", "a list"])
def test_a_form_is_a_tuple_of_three_ints(f):
    # these raised IndexError, a ValueError from unpacking, and an
    # "unhashable type" TypeError from inside the cycle walk
    with pytest.raises(TypeError, match="tuple of three ints"):
        form_minimum(f)


def test_rational_operands_of_elements_and_surds():
    z, s = QuadElem(5, 1, 1), Surd(1)
    assert z + 1 == z + Fraction(1) == QuadElem(5, 2, 1)
    assert s == 1 and surd_compare(s, Fraction(3, 2)) < 0
    with pytest.raises(TypeError):
        z + True
    with pytest.raises(TypeError):
        surd_compare(s, True)
    assert s != True  # noqa: E712  never equal to a bool


@pytest.mark.parametrize("flag", [1, 0, 1.5, "x", None, Fraction(1)])
def test_interval_flags_must_be_bools(flag):
    # Interval(Surd(1), None, 1.5, "x") was built and printed as [1, oo)
    for flags in ((flag, True), (True, flag)):
        with pytest.raises(TypeError):
            Interval(Surd(1), None, *flags)
    assert str(Interval(Surd(1), None, False, True)) == "(1, oo)"


@pytest.mark.parametrize("k", [True, 2.0, -1.0, Fraction(2), "2"])
def test_exponent_must_be_an_int(k):
    # QuadElem has no **, so no exponent reaches Fraction.__rpow__ or is
    # read as another; the repeated-* spelling refuses a non-int k, True too
    z = QuadElem(5, 1, 1)
    with pytest.raises(TypeError, match=r"\*\* or pow\(\)"):
        z ** k
    with pytest.raises(TypeError, match="exponent"):
        power(z, k)


def test_int_exponents():
    # an int exponent is refused by ** as well; repeated * takes it
    z = QuadElem(5, 1, 1)
    for k in (0, 3, -2):
        with pytest.raises(TypeError, match=r"\*\* or pow\(\)"):
            z ** k
    assert power(z, 0) == QuadElem(5, 1, 0)
    assert power(z, 3) == z * z * z == QuadElem(5, 16, 8)
    assert power(z, -2) == (z * z).inverse() \
        == QuadElem(5, Fraction(3, 8), Fraction(-1, 8))


@pytest.mark.parametrize("i, error", [
    (0, ValueError), (3, ValueError), (-1, ValueError),
    (True, TypeError), (1.0, TypeError), ("1", TypeError),
])
def test_embedding_index_must_be_1_or_2(i, error):
    # QuadElem.embed is gone; its float spelling takes i = 1 or 2 only, so
    # no other i is read as sigma_2, nor True as sigma_1
    z = QuadElem(5, 1, 1)
    with pytest.raises(AttributeError):
        z.embed(i)
    with pytest.raises(error, match="embedding index"):
        embedding(z, i)
