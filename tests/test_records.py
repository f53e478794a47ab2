"""The result records and what importing the package loads.

The ten result records are plain classes on one private base.  Their
contract is that of a frozen dataclass on the same fields, which is the
oracle here: `dataclasses.make_dataclass(..., frozen=True)` builds it in the
test, and repr, ==, hash, immutability, copying and pickling must agree
with it.  Pickles written by the earlier frozen-dataclass records still
load, and the records still write the same bytes.
"""

import copy
import dataclasses
import pickle
import sys
from fractions import Fraction

import pytest

from quadtwist.applications import (
    EuclideanBoundReport,
    NormSearchResult,
    ThicknessSearchResult,
)
from quadtwist.geodesic import GeodesicSample
from quadtwist.ideals import CanonicalIdeal
from quadtwist.lattice2 import SimilarityPoint, UnimodularMap
from quadtwist.quadfield import QuadElem, Surd
from quadtwist.twist import FeasibilityReport, Interval, TwistVerdict
from support import run_python

# (record, another record of its class, its field names in constructor order)
RECORDS = [
    (CanonicalIdeal(141, 5, 4, 1), CanonicalIdeal(141, 1, 0, 1),
     ("D", "a", "b", "g")),
    (UnimodularMap(0, -1, 1, 0), UnimodularMap(0, 1, -1, 0),
     ("a", "b", "c", "d")),
    (SimilarityPoint(Fraction(1, 2), Fraction(3, 4)), SimilarityPoint(0, 1),
     ("x", "y_sq")),
    (Interval(Surd(0, 1, 3), None, False, True),
     Interval(Surd(0, 1, 3), None, True, True),
     ("lo", "hi", "lo_closed", "hi_closed")),
    (TwistVerdict(False, "forced ratio not positive"), TwistVerdict(False),
     ("wr_twistable", "reason", "t_star", "alpha", "gram")),
    (FeasibilityReport(False, (), emptied_by=1),
     FeasibilityReport(False, (), emptied_by=2),
     ("feasible_real", "intervals", "witness_t", "witness_alpha",
      "emptied_by")),
    (GeodesicSample(1.0, QuadElem(2, 3), SimilarityPoint(0, 1), False, True),
     GeodesicSample(1.0, QuadElem(2, 3), SimilarityPoint(0, 1), True, True),
     ("s", "alpha", "tau", "is_wr", "is_stable")),
    (NormSearchResult(1, QuadElem(2, 1), (1, 0), True),
     NormSearchResult(1, QuadElem(2, -1), (1, 0), True),
     ("m", "witness", "coeffs", "attains_ideal_norm")),
    (ThicknessSearchResult(0.5, Fraction(3), Fraction(1, 4), 0.25),
     ThicknessSearchResult(0.5, Fraction(4), Fraction(1, 4), 0.25),
     ("tau_min_estimate", "argmin_t", "exact_tau_sq_at_argmin",
      "lower_bound")),
    (EuclideanBoundReport(5, 5, 0.5, True),
     EuclideanBoundReport(5, 5, 0.5, True, 0.25, True),
     ("D", "disc", "field_bound", "euclidean_certified", "ideal_bound",
      "ideal_bound_lt_one")),
]

# pickle.dumps(record, protocol=2) of each record above, written when the
# records were frozen dataclasses
DATACLASS_PICKLES = {
    "CanonicalIdeal": (
        b"\x80\x02cquadtwist.ideals\nCanonicalIdeal\nq\x00)\x81q\x01}q"
        b"\x02(X\x01\x00\x00\x00Dq\x03K\x8dX\x01\x00\x00\x00aq\x04K\x05X"
        b"\x01\x00\x00\x00bq\x05K\x04X\x01\x00\x00\x00gq\x06K\x01ub."
    ),
    "UnimodularMap": (
        b"\x80\x02cquadtwist.lattice2\nUnimodularMap\nq\x00)\x81q\x01}q"
        b"\x02(X\x01\x00\x00\x00aq\x03K\x00X\x01\x00\x00\x00bq\x04J\xff"
        b"\xff\xff\xffX\x01\x00\x00\x00cq\x05K\x01X\x01\x00\x00\x00dq"
        b"\x06K\x00ub."
    ),
    "SimilarityPoint": (
        b"\x80\x02cquadtwist.lattice2\nSimilarityPoint\nq\x00)\x81q\x01}"
        b"q\x02(X\x01\x00\x00\x00xq\x03cfractions\nFraction\nq\x04K\x01K"
        b"\x02\x86q\x05Rq\x06X\x04\x00\x00\x00y_sqq\x07h\x04K\x03K\x04"
        b"\x86q\x08Rq\tub."
    ),
    "Interval": (
        b"\x80\x02cquadtwist.twist\nInterval\nq\x00)\x81q\x01}q\x02(X"
        b"\x02\x00\x00\x00loq\x03cquadtwist.quadfield\nSurd\nq\x04(K\x00"
        b"K\x01K\x03K\x01tq\x05Rq\x06X\x02\x00\x00\x00hiq\x07NX\t\x00"
        b"\x00\x00lo_closedq\x08\x89X\t\x00\x00\x00hi_closedq\t\x88ub."
    ),
    "TwistVerdict": (
        b"\x80\x02cquadtwist.twist\nTwistVerdict\nq\x00)\x81q\x01}q\x02("
        b"X\x0c\x00\x00\x00wr_twistableq\x03\x89X\x06\x00\x00\x00reasonq"
        b"\x04X\x19\x00\x00\x00forced ratio not positiveq\x05X\x06\x00"
        b"\x00\x00t_starq\x06NX\x05\x00\x00\x00alphaq\x07NX\x04\x00\x00"
        b"\x00gramq\x08Nub."
    ),
    "FeasibilityReport": (
        b"\x80\x02cquadtwist.twist\nFeasibilityReport\nq\x00)\x81q\x01}q"
        b"\x02(X\r\x00\x00\x00feasible_realq\x03\x89X\t\x00\x00\x00inter"
        b"valsq\x04)X\t\x00\x00\x00witness_tq\x05NX\r\x00\x00\x00witness"
        b"_alphaq\x06NX\n\x00\x00\x00emptied_byq\x07K\x01ub."
    ),
    "GeodesicSample": (
        b"\x80\x02cquadtwist.geodesic\nGeodesicSample\nq\x00)\x81q\x01}q"
        b"\x02(X\x01\x00\x00\x00sq\x03G?\xf0\x00\x00\x00\x00\x00\x00X"
        b"\x05\x00\x00\x00alphaq\x04cquadtwist.quadfield\n_quad\nq\x05(K"
        b"\x02K\x03K\x00K\x01tq\x06Rq\x07X\x03\x00\x00\x00tauq\x08cquadt"
        b"wist.lattice2\nSimilarityPoint\nq\t)\x81q\n}q\x0b(X\x01\x00"
        b"\x00\x00xq\x0ccfractions\nFraction\nq\rK\x00K\x01\x86q\x0eRq"
        b"\x0fX\x04\x00\x00\x00y_sqq\x10h\rK\x01K\x01\x86q\x11Rq\x12ubX"
        b"\x05\x00\x00\x00is_wrq\x13\x89X\t\x00\x00\x00is_stableq\x14"
        b"\x88ub."
    ),
    "NormSearchResult": (
        b"\x80\x02cquadtwist.applications\nNormSearchResult\nq\x00)\x81q"
        b"\x01}q\x02(X\x01\x00\x00\x00mq\x03K\x01X\x07\x00\x00\x00witnes"
        b"sq\x04cquadtwist.quadfield\n_quad\nq\x05(K\x02K\x01K\x00K\x01t"
        b"q\x06Rq\x07X\x06\x00\x00\x00coeffsq\x08K\x01K\x00\x86q\tX\x12"
        b"\x00\x00\x00attains_ideal_normq\n\x88ub."
    ),
    "ThicknessSearchResult": (
        b"\x80\x02cquadtwist.applications\nThicknessSearchResult\nq\x00)"
        b"\x81q\x01}q\x02(X\x10\x00\x00\x00tau_min_estimateq\x03G?\xe0"
        b"\x00\x00\x00\x00\x00\x00X\x08\x00\x00\x00argmin_tq\x04cfractio"
        b"ns\nFraction\nq\x05K\x03K\x01\x86q\x06Rq\x07X\x16\x00\x00\x00e"
        b"xact_tau_sq_at_argminq\x08h\x05K\x01K\x04\x86q\tRq\nX\x0b\x00"
        b"\x00\x00lower_boundq\x0bG?\xd0\x00\x00\x00\x00\x00\x00ub."
    ),
    "EuclideanBoundReport": (
        b"\x80\x02cquadtwist.applications\nEuclideanBoundReport\nq\x00)"
        b"\x81q\x01}q\x02(X\x01\x00\x00\x00Dq\x03K\x05X\x04\x00\x00\x00d"
        b"iscq\x04K\x05X\x0b\x00\x00\x00field_boundq\x05G?\xe0\x00\x00"
        b"\x00\x00\x00\x00X\x13\x00\x00\x00euclidean_certifiedq\x06\x88X"
        b"\x0b\x00\x00\x00ideal_boundq\x07NX\x12\x00\x00\x00ideal_bound_"
        b"lt_oneq\x08Nub."
    ),
}


@pytest.fixture(params=RECORDS, ids=lambda r: type(r[0]).__name__)
def record(request):
    r, other, fields = request.param
    values = tuple(getattr(r, f) for f in fields)
    oracle = dataclasses.make_dataclass(type(r).__name__, fields, frozen=True)
    return r, other, fields, values, oracle


def test_all_ten_records():
    assert len({type(r) for r, _, _ in RECORDS}) == len(RECORDS) == 10
    assert set(DATACLASS_PICKLES) == {type(r).__name__ for r, _, _ in RECORDS}


def test_repr_eq_and_hash_match_a_frozen_dataclass(record):
    r, other, fields, values, oracle = record
    o = oracle(*values)
    assert repr(r) == repr(o)
    assert type(r)(*values) == r
    assert type(r)(**dict(zip(fields, values))) == r
    assert hash(r) == hash(o) == hash(type(r)(*values))
    assert r != other and not r == other
    assert (r == other) == (o == oracle(*(getattr(other, f) for f in fields)))
    # another class with the same fields is never equal
    assert r != o and not r == o


def test_immutable(record):
    r, _, fields, values, _ = record
    for name in (fields[0], fields[-1], "unknown"):
        with pytest.raises(AttributeError):
            setattr(r, name, values[0])
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert tuple(getattr(r, f) for f in fields) == values


def test_copy_and_pickle_round_trip(record):
    r, _, fields, values, _ = record
    copies = [copy.copy(r), copy.deepcopy(r)] + [
        pickle.loads(pickle.dumps(r, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(r) and c == r and repr(c) == repr(r)
        assert tuple(getattr(c, f) for f in fields) == values


def test_dataclass_pickle_still_loads(record):
    r = record[0]
    old = DATACLASS_PICKLES[type(r).__name__]
    assert pickle.loads(old) == r
    assert pickle.dumps(r, protocol=2) == old


BIG = 10**5000 + 1  # beyond the 4,300 digits str(int) prints by default

# one record of each class holding ints beyond that limit
BIG_RECORDS = [
    CanonicalIdeal(2, BIG, 0, BIG),
    UnimodularMap(1, BIG, 0, 1),
    SimilarityPoint(Fraction(BIG, 3), BIG),
    Interval(Surd(BIG, 1, 2, 3), None, True, False),
    TwistVerdict(True, None, Fraction(BIG, 7), QuadElem(2, BIG, 1)),
    FeasibilityReport(True, (Interval(Surd(BIG), None, False, True),),
                      Fraction(1, BIG), None, BIG),
    GeodesicSample(1.0, QuadElem(2, BIG), SimilarityPoint(0, BIG), True,
                   False),
    NormSearchResult(BIG, QuadElem(2, BIG), (BIG, -BIG), False),
    ThicknessSearchResult(0.5, Fraction(BIG, 2), Fraction(1, BIG), 0.25),
    EuclideanBoundReport(BIG, 5, 0.5, True),
]


def _unlimited_repr(x):
    """repr(x) with no limit on the digits of an int."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:  # a Python without the limit
        return repr(x)
    sys.set_int_max_str_digits(0)
    try:
        return repr(x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_records_print_through_one_repr():
    assert all("__repr__" not in vars(type(r)) for r, _, _ in RECORDS)


@pytest.mark.parametrize("r", BIG_RECORDS, ids=lambda r: type(r).__name__)
def test_repr_prints_ints_of_any_size(r):
    fields = type(r)._fields
    oracle = dataclasses.make_dataclass(type(r).__name__, fields, frozen=True)
    assert repr(r) == _unlimited_repr(oracle(*(getattr(r, f) for f in fields)))


def test_import_loads_no_dataclasses_inspect_or_typing():
    """Importing the package and its CLI, in an interpreter without `site`
    (which may import typing itself), loads none of these modules."""
    script = ("import sys, quadtwist, quadtwist.cli; print(sorted("
              "{'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = run_python("-c", script, flags=("-S",), capture_output=True,
                      text=True, check=True)
    assert proc.stdout == "[]\n"
