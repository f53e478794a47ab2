"""The one type gate of exact inputs.

Every exact number the library accepts is of type int, or of type int or
Fraction: a bool, float, str or Decimal is refused with a typed error, never
taken for a number.  The sweep below calls every public callable that takes
exact numbers once validly, then with each of its numbers replaced by a value
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
)
from support import TESTS, run_python

I141 = CanonicalIdeal(141, 5, 4, 1)

# name -> (valid numbers, their kinds, a call on them).  Kinds: "D" a field
# discriminant (InvalidFieldError), "I" an int (TypeError), "R" an int or
# Fraction (TypeError), "C" an entry a, b or g of a canonical triple
# (CanonicalBasisError "int").
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
    "raw_stable_polynomials": ((Fraction(25, 2),), "R",
                               lambda t: raw_stable_polynomials(I141, t)),
    "sample_orbit": ((2,), "I", lambda n: sample_orbit(I141, n)),
    "euclidean_bounds": ((141, Fraction(4, 27)), "DR",
                         lambda D, tau: euclidean_bounds(D, I141, tau)),
    "form_minimum": ((1, 3, -1), "III",
                     lambda A, B, C: form_minimum((A, B, C))),
}

# Public callables whose arguments are library objects only (ideals, Grams,
# elements, Surds); `Interval` also takes its two bool flags, which
# test_interval_flags_must_be_bools checks.
TAKES_OBJECTS = {
    "gram_of_twist", "hermite_thickness_sq", "is_lagrange_reduced",
    "is_paper_reduced", "is_stable", "is_wr", "lagrange_reduce",
    "minima_brute_force", "similarity_point", "successive_minima",
    "Interval", "simplest_rational_in", "stable_bound_filter",
    "stable_twist", "wr_bound_filter", "wr_twist", "F_invariant",
    "wr_intersection_classes", "d_min_sq_twist", "min_abs_norm",
    "tau_min_search",
}

# Result records hold what the library computed and check nothing;
# exceptions take a message.
RESULTS_AND_ERRORS = {
    "TwistVerdict", "FeasibilityReport", "GeodesicSample",
    "NormSearchResult", "ThicknessSearchResult", "EuclideanBoundReport",
    "CertificateError", "InvalidFieldError", "CanonicalBasisError",
}


def _substitutes(v, kind):
    """Values of other types for the valid number v: always a bool, floats,
    strings and Decimals, and for int-only kinds Fractions too."""
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
    for name, (valid, kinds, call) in SWEEP.items():
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


# Surd, Gram2, QuadElem, SimilarityPoint, raw_stable_polynomials and
# euclidean_bounds take True among the bad values of their own type tests.
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
@pytest.mark.parametrize("alpha", [Fraction(1), 1, 1.0, "x"])
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
    assert s == 1 and s < Fraction(3, 2)
    with pytest.raises(TypeError):
        z + True
    with pytest.raises(TypeError):
        s < True
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
    # ** True was read as ** 1, and ** Fraction(2) must not reach
    # Fraction.__rpow__
    with pytest.raises(TypeError, match="exponent"):
        QuadElem(5, 1, 1) ** k


def test_int_exponents():
    z = QuadElem(5, 1, 1)
    assert z ** 0 == QuadElem(5, 1, 0)
    assert z ** 3 == z * z * z
    assert z ** -2 == (z * z).inverse()


@pytest.mark.parametrize("i, error", [
    (0, ValueError), (3, ValueError), (-1, ValueError),
    (True, TypeError), (1.0, TypeError), ("1", TypeError),
])
def test_embedding_index_must_be_1_or_2(i, error):
    # every i but 1 was read as sigma_2, and True as sigma_1
    with pytest.raises(error, match="embedding index"):
        QuadElem(5, 1, 1).embed(i)
