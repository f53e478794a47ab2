import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadtwist import cli
from quadtwist.cli import EXIT_INVALID, EXIT_OK, EXIT_VERIFY_FAILED, main
from quadtwist import twist
from quadtwist.ideals import CanonicalBasisError, CanonicalIdeal, enumerate_canonical
from quadtwist.lattice2 import gram_of_twist
from quadtwist.quadfield import CertificateError, _rat
from quadtwist.twist import (
    stable_bound_filter,
    stable_twist,
    wr_bound_filter,
    wr_twist,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTwistCommand:
    def test_wr_report(self, capsys):
        code, out, _ = run_cli(capsys, "twist", "139", "9", "7", "1", "--mode", "wr")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["wr_twistable"] is True
        assert rep["alpha"] == "1946/107 + sqrt(139)"
        assert rep["minima_sq"] == ["315252/107", "315252/107"]
        assert rep["cosine"] == "-1/14"
        assert rep["is_wr"] is True
        assert rep["cosine_float"] == pytest.approx(-1 / 14, rel=1e-11)

    def test_stable_report(self, capsys):
        code, out, _ = run_cli(capsys, "twist", "1327", "39", "38", "1",
                               "--mode", "stable")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["stable_feasible"] is True
        witness = rep["witness_t"]
        num, _, den = witness.partition("/")
        assert int(num) > 0
        assert rep["gram"]["det"].isdigit() or "/" in rep["gram"]["det"]

    def test_float_formatting(self, capsys):
        _, out, _ = run_cli(capsys, "twist", "139", "9", "7", "1", "--mode", "wr")
        rep = json.loads(out)
        # 12 significant digits
        assert rep["minima_float"][0] == float("54.279649721")

    def test_invalid_triple(self, capsys):
        code, out, err = run_cli(capsys, "twist", "139", "9", "3", "1")
        assert code == EXIT_INVALID
        msg = json.loads(err)
        assert msg["condition"] == "divisibility"

    def test_invalid_field(self, capsys):
        code, _, err = run_cli(capsys, "twist", "12", "1", "0", "1")
        assert code == EXIT_INVALID
        assert "squarefree" in json.loads(err)["error"]


class TestSurveyCommand:
    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "10", "6")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(r["D"] == 10 for r in rows)
        assert {(r["a"], r["b"], r["g"]) for r in rows} >= {(1, 0, 1), (3, 1, 1)}
        for r in rows:
            assert set(r) >= {"wr_twistable", "stable_feasible", "ideal_norm"}

    def test_filter_wr(self, capsys):
        _, out, _ = run_cli(capsys, "survey", "10", "6", "--filter", "wr")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows and all(r["wr_twistable"] for r in rows)

    def test_filter_stable(self, capsys):
        _, out, _ = run_cli(capsys, "survey", "7", "6", "--filter", "stable")
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(r["stable_feasible"] for r in rows)

    @pytest.mark.parametrize("D", ["5", "13", "139", "141", "199"])
    def test_filters_select_unfiltered_lines(self, capsys, D):
        _, full, _ = run_cli(capsys, "survey", D, "30")
        lines = full.splitlines()
        for flag, key in (("wr", "wr_twistable"), ("stable", "stable_feasible")):
            _, out, _ = run_cli(capsys, "survey", D, "30", "--filter", flag)
            assert out.splitlines() == [
                line for line in lines if json.loads(line)[key]], flag

    def test_filter_wr_decides_stability_only_for_printed_rows(
            self, capsys, monkeypatch):
        # once per similarity class: the calls are exactly the primitive
        # parts (a/g, b/g, 1) of the printed rows, each called once
        calls = []

        def counted(I):
            calls.append(I)
            return stable_twist(I)

        monkeypatch.setattr(cli, "stable_twist", counted)
        _, out, _ = run_cli(capsys, "survey", "139", "30", "--filter", "wr")
        rows = [json.loads(line) for line in out.splitlines()]
        primitive = {CanonicalIdeal(139, r["a"] // r["g"], r["b"] // r["g"], 1)
                     for r in rows}
        assert len(calls) == len(set(calls))
        assert set(calls) == primitive
        # the sample has multiples: fewer classes than rows
        assert 0 < len(primitive) < len(rows)

    @pytest.mark.parametrize("flag", ["all", "wr", "stable"])
    @pytest.mark.parametrize("D", [2, 5, 13, 21, 139, 141, 199])
    def test_same_bytes_as_deciding_every_row(self, capsys, D, flag):
        # D = 5, 13, 21, 141 are 1 mod 4, where even g meets e = 2
        _, out, _ = run_cli(capsys, "survey", str(D), "50", "--filter", flag)
        assert out == _ref_survey(D, 50, flag)

    def test_positive_rows_are_rechecked_on_their_own_ideal(
            self, capsys, monkeypatch):
        twisted = set()

        def recorded(I, alpha):
            twisted.add((I.a, I.b, I.g, alpha.x))
            return gram_of_twist(I, alpha)

        monkeypatch.setattr(twist, "gram_of_twist", recorded)
        _, out, _ = run_cli(capsys, "survey", "139", "30")
        rows = [json.loads(line) for line in out.splitlines()]
        positive = [r for r in rows if r["stable_witness_t"] is not None]
        assert any(r["g"] > 1 and r["wr_twistable"] for r in positive)
        for r in rows:
            key = (r["a"], r["b"], r["g"])
            if r["wr_twistable"]:
                t_star = Fraction(r["alpha"].partition(" + sqrt")[0])
                assert key + (t_star,) in twisted, r
            if r["stable_witness_t"] is not None:
                assert key + (Fraction(r["stable_witness_t"]),) in twisted, r

    def test_a_failing_recheck_on_a_multiple_exits_3(self, capsys, monkeypatch):
        real = twist.raw_stable_polynomials
        monkeypatch.setattr(twist, "raw_stable_polynomials",
                            lambda I, t: I.g == 1 and real(I, t))
        code, out, err = run_cli(capsys, "survey", "139", "30", "--filter", "wr")
        assert code == EXIT_VERIFY_FAILED
        msg = json.loads(err)
        assert msg["condition"] == "certificate"
        assert "(18, 14 + 2*delta) over D=139" in msg["error"]
        # the rows before the first multiple with a witness were printed
        assert [json.loads(line)["g"] for line in out.splitlines()] == [1] * 4

    def test_rows_before_a_failing_recheck_are_written(
            self, capsys, monkeypatch):
        # every re-check fails, so the first multiple with a positive
        # verdict ends the survey; the rows before it are written as one
        failed = []

        def failing(I, t, alpha):
            failed.append(I)
            raise CertificateError(f"re-check of {I} failed")

        monkeypatch.setattr(cli, "_certify_wr", failing)
        monkeypatch.setattr(cli, "_certify_stable", failing)
        code, out, err = run_cli(capsys, "survey", "139", "30")
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(err)["condition"] == "certificate"
        [I] = failed
        ref = _ref_survey(139, 30, "all").splitlines(keepends=True)
        rows = [json.loads(line) for line in ref]
        first = next(i for i, r in enumerate(rows) if r["g"] > 1 and (
            r["wr_twistable"] or r["stable_witness_t"] is not None))
        assert (rows[first]["a"], rows[first]["b"], rows[first]["g"]) == (
            I.a, I.b, I.g)
        assert out == "".join(ref[:first])
        assert any(r["g"] > 1 for r in rows[:first])


def _ref_survey(D: int, max_a: int, flag: str) -> str:
    """The survey loop that runs wr_twist and stable_twist on every row's own
    ideal, with no verdict shared between rows."""
    out = []
    for I in enumerate_canonical(D, max_a):
        verdict = wr_twist(I)
        if flag == "wr" and not verdict.wr_twistable:
            continue
        fr = stable_twist(I)
        if flag == "stable" and not fr.feasible_real:
            continue
        row = {
            "D": I.D,
            "a": I.a,
            "b": I.b,
            "g": I.g,
            "ideal_norm": I.norm(),
            "wr_bound_filter": wr_bound_filter(I),
            "stable_bound_filter": stable_bound_filter(I),
            "wr_twistable": verdict.wr_twistable,
            "alpha": None if verdict.alpha is None else str(verdict.alpha),
            "stable_feasible": fr.feasible_real,
            "stable_witness_t": None if fr.witness_t is None else _rat(fr.witness_t),
        }
        out.append(json.dumps(row) + "\n")
    return "".join(out)


class TestGeodesicCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "geodesic", "5", "1", "0", "1",
                               "--samples", "6")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["s", "t", "x", "y_sq", "is_wr", "is_stable"]
        assert len(rows) == 7
        for row in rows[1:]:
            assert float(row[0]) > 1
            x, y_sq = float(row[2]), float(row[3])
            assert x * x + y_sq >= 1 - 1e-12

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "geodesic", "2", "1", "0", "1",
                               "--samples", "4", "--format", "json")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert len(rep["rows"]) == 4
        assert "wr_crossings" in rep
        for row in rep["rows"]:
            assert "/" in row["t"] or row["t"].lstrip("-").isdigit()

    @pytest.mark.parametrize("D", ["1000003", "9999991"])
    def test_json_large_unit(self, capsys, D):
        # t of a large unit runs past the default int-to-str digit limit,
        # and s past float range: both must still be standard JSON
        code, out, _ = run_cli(capsys, "geodesic", D, "1", "0", "1",
                               "--samples", "2", "--format", "json")
        assert code == EXIT_OK

        def no_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rep = json.loads(out, parse_constant=no_constant)
        assert "inf" in [row["s"] for row in rep["rows"]]
        for row in rep["rows"]:
            # int(Decimal(...)) is not bound by the int-to-str digit limit
            n, d = (int(Decimal(part)) for part in row["t"].split("/"))
            assert n * n > int(D) * d * d


class TestVerifyExamples:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-examples")
        assert code == EXIT_OK
        lines = out.splitlines()
        passes = [l for l in lines if l.startswith("PASS")]
        assert len(passes) == 5
        assert not any(l.startswith("FAIL") for l in lines)
        notes = [l for l in lines if "note:" in l]
        assert len(notes) == 2  # documented second-minimum deviations


# sha256 of stdout.  The survey and the two `--mode all` twists were
# recorded from the Fraction-based implementation, the other report shapes
# from the json.dumps encoder before the integer report and its emitter: the
# current code must reproduce every byte.
STDOUT_SHA256 = {
    ("survey", "5", "30"):
        "4117b4c13d0d5792be75d9c7eb9c5c2dd475c4942d6ec95f09ad37e8ee29ace6",
    ("survey", "13", "30"):
        "38fdab55bbdbbe707b48b7bd2cfcab1e034202fd2dd423b9b9c644d5dbbd07c6",
    ("survey", "139", "30"):
        "5efef7d9b1df372bd2be6b45f87d8c79cc5e24e6be3a12652b24dfcf9bdb6da7",
    ("survey", "141", "30"):
        "676b925214ee0c9c2cfc3fc77faef4f2edc0cab541a4b53f37f6b7862a4d5ad2",
    ("survey", "199", "30"):
        "8ddff46baf09f8bf0c60aa66ab574c0fe54165d045a6bc0622b0f035ebb04c1c",
    ("twist", "1327", "39", "38", "1", "--mode", "all"):
        "d8d1a8b29361a7cb318cc27d0a7706cb9ef7e1b00fa1ce32bc4ffb872cc4911d",
    ("twist", "125173", "183", "182", "1", "--mode", "all"):
        "1ddf8e16163ff6212df1b85d1c3125263d59e011e7250f151733ef0c47c51278",
    # a WR twist: the report has the "cosine" key
    ("twist", "139", "9", "7", "1", "--mode", "wr"):
        "0c42221666f8017de32cf53bb0bb60ef47a32a63ae8bc145f19c8624f06ff676",
    ("twist", "1327", "39", "38", "1", "--mode", "stable"):
        "18b269ab8933b8d4e534d849bc694f0bebfd008973f744158e22663b0964ea90",
    # neither twist exists: "stable_intervals": [] and no Gram
    ("twist", "5", "11", "3", "1", "--mode", "all"):
        "309ff67009ea89785b00d6dbcb279d7e33303d66cf57755cfb931b34f9a75e69",
    ("geodesic", "5", "1", "0", "1", "--samples", "4", "--format", "json"):
        "9332d303beab77803200f5447eb06af2292c53918dde4ea356aea9bb73f68c15",
    # an "inf" string, and a t past the int-to-str digit limit
    ("geodesic", "9999991", "1", "0", "1", "--samples", "2", "--format",
     "json"):
        "4263acf8fc49f135ce70f8e9431494645091a446c4c89df23e88cd88983b0585",
    # the CSV report, and its "inf" rows
    ("geodesic", "5", "1", "0", "1", "--samples", "4"):
        "a832781e34448bb8500a461879a761af3e8f890f88d38cbe505b8ae600c9ccc3",
    ("geodesic", "9999991", "1", "0", "1", "--samples", "2"):
        "f09b3469112e048eec3dc6fc305636a83a68c3f71ed4d23624505bf88195afd4",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256), ids=" ".join)
def test_stdout_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


SURVEY_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench", "reference",
                                "survey.json")


def test_survey_matches_the_benchmark_digests(capsys):
    # the benchmark's own gate: sha256[:16] of `survey D 50` for every
    # squarefree D <= 200
    with open(SURVEY_REFERENCE) as f:
        reference = json.load(f)
    assert len(reference) == 121
    wrong = []
    for D, rec in reference.items():
        code, out, _ = run_cli(capsys, "survey", D, "50")
        if code != EXIT_OK or hashlib.sha256(
                out.encode()).hexdigest()[:16] != rec["digest"]:
            wrong.append(D)
    assert wrong == []


QUERY_REFERENCE = os.path.join(os.path.dirname(SURVEY_REFERENCE), "query.json")


def test_query_matches_the_benchmark_digests(capsys):
    # the benchmark's own gate: sha256[:16] of `twist D a b 1 --mode all`
    # for every ideal of the query pool
    with open(QUERY_REFERENCE) as f:
        reference = json.load(f)
    assert len(reference) == 8192
    wrong = []
    for D, a, b, expected in reference:
        code, out, _ = run_cli(capsys, "twist", str(D), str(a), str(b), "1",
                               "--mode", "all")
        if code != EXIT_OK or hashlib.sha256(
                out.encode()).hexdigest()[:16] != expected:
            wrong.append((D, a, b))
    assert wrong == []


def test_ideal_norm_past_the_int_to_str_limit(capsys):
    # (A, 0, A) over D = 2 has norm A^2, 4,401 digits for A = 10^2200
    A = 10**2200
    code, out, _ = run_cli(capsys, "twist", "2", str(A), "0", str(A))
    assert code == EXIT_OK
    # int(Decimal(...)) is not bound by the int-to-str digit limit
    rep = json.loads(out, parse_int=Decimal)
    assert int(rep["ideal_norm"]) == A * A
    assert int(rep["inputs"]["a"]) == A


def test_invalid_ideal_past_the_int_to_str_limit(capsys):
    # N(b + delta) = B^2 - 2 has 4,401 digits and is not divisible by A
    A = 10**2200
    code, out, err = run_cli(capsys, "twist", "2", str(A), str(A - 1), "1")
    assert (code, out) == (EXIT_INVALID, "")
    msg = json.loads(err, parse_int=Decimal)
    assert msg["condition"] == "divisibility"
    norm = msg["error"].rpartition(" = ")[2]
    assert int(Decimal(norm)) == (A - 1) ** 2 - 2
    with pytest.raises(CanonicalBasisError, match=f"b = {A} >= a = {A}$"):
        CanonicalIdeal(2, A, A, 1)
    I = CanonicalIdeal(2, A, 0, A)
    assert str(I) == f"({A}, 0 + {A}*delta) over D=2"
    assert repr(I) == f"CanonicalIdeal(D=2, a={A}, b=0, g={A})"


def _dec_ratio(s):
    """The Decimal of a printed "n" or "n/d"."""
    n, _, d = s.partition("/")
    return Decimal(n) / Decimal(d or 1)


def _dec_surd(s):
    """The Decimal of a printed surd "r + c*sqrt(n)", each part optional."""
    if "sqrt(" not in s:
        return _dec_ratio(s)
    head, _, rad = s.partition("sqrt(")
    r, plus, c = head.rpartition(" + ")
    return ((_dec_ratio(r) if plus else 0)
            + _dec_ratio(c[:-1] if c else "1") * Decimal(rad[:-1]).sqrt())


def _companions(rep):
    """(printed float companion, Decimal reference from the report's exact
    strings) for every *_float of a twist report."""
    pairs = []
    for iv in rep.get("stable_intervals", []):
        pairs.append((iv["lo_float"], _dec_surd(iv["lo"])))
        if iv["hi"] != "inf":
            pairs.append((iv["hi_float"], _dec_surd(iv["hi"])))
    if "gram" in rep:
        for key in ("gram", "reduced_gram"):
            pairs.append((rep[key]["det_sqrt_float"],
                          _dec_ratio(rep[key]["det"]).sqrt()))
        pairs += [(f, _dec_ratio(m).sqrt())
                  for f, m in zip(rep["minima_float"], rep["minima_sq"])]
        g11, g12, g22 = (_dec_ratio(rep["gram"][k]) for k in ("g11", "g12", "g22"))
        pairs.append((rep["cosine_float"], g12 / (g11 * g22).sqrt()))
    return pairs


# Ideals (K*a, K*b, K) with K = 10^e whose report used to raise
# OverflowError: float(Surd) of an interval end near 62 or 18 with a
# radicand above 2^1024 (e = 40 on), and det / den^2 of (K, 0, K) (e = 80).
@pytest.mark.parametrize("D, a, b, e", [
    (D, a, b, e) for D, a, b in [(1327, 39, 38), (139, 9, 7), (5, 1, 0)]
    for e in (40, 80, 160) if (D, e) != (5, 40)])
def test_float_companions_of_huge_ideals(capsys, D, a, b, e):
    K = 10**e
    code, out, _ = run_cli(capsys, "twist", str(D), str(a * K), str(b * K), str(K))
    assert code == EXIT_OK
    rep = json.loads(out, parse_int=Decimal)
    pairs = _companions(rep)
    assert len(pairs) >= 6
    fmax = Decimal(sys.float_info.max)
    with localcontext() as ctx:
        # the exact ends cancel to 12 digits from entries of every length
        ctx.prec = len(out) + 50
        for flt, ref in pairs:
            if abs(ref) > fmax:
                assert flt == "inf", (flt, ref)
            else:
                assert abs(Decimal(flt) - ref) <= Decimal("5.1e-12") * abs(ref), \
                    (flt, ref)
    if e == 160:
        assert rep["gram"]["det_sqrt_float"] == "inf"


# leaves of every kind the emitter takes, with the edge cases of each
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-4299, 4299).map(lambda k: (10 ** abs(k) - 1) * (-1) ** (k < 0)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1]),
    st.text(),
    st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\ud800'
                            '\U0001f600a ')),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=24,
)


@given(_VALUES)
def test_emitter_is_json_dumps_indent_2(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"": []}, {"a": {"b": [[], {}, [1.5, None]]}},
    "\"\\\x00\u00e9", [True, False, None, -0.0, 1e16, 5e-324],
], ids=repr)
def test_emitter_containers_and_scalars(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_emitter_prints_ints_of_any_size():
    n = -(10**5000) - 1
    assert cli._json({"n": [n]}) == (
        '{\n  "n": [\n    ' + str(Decimal(n)) + "\n  ]\n}")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_emitter_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        cli._json({"x": [1, value]})


@pytest.mark.parametrize("value", [Fraction(1, 2), (1, 2), {1: 2}, b"x"],
                         ids=repr)
def test_emitter_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json([value])


def test_certificate_failure_exits_3(capsys, monkeypatch):
    def broken(I):
        raise CertificateError("re-check failed")

    monkeypatch.setattr(cli, "stable_twist", broken)
    code, out, err = run_cli(capsys, "twist", "1327", "39", "38", "1")
    assert code == EXIT_VERIFY_FAILED
    assert out == ""
    assert json.loads(err) == {"error": "re-check failed",
                               "condition": "certificate"}


def test_geodesic_rejects_zero_samples(capsys):
    code, out, err = run_cli(capsys, "geodesic", "5", "1", "0", "1",
                             "--samples", "0")
    assert code == EXIT_INVALID
    assert out == ""
    msg = json.loads(err)
    assert "--samples" in msg["error"] and msg["condition"] is None


@pytest.mark.parametrize("max_a", ["0", "-3"])
def test_survey_rejects_max_a_below_one(capsys, max_a):
    code, out, err = run_cli(capsys, "survey", "7", max_a)
    assert code == EXIT_INVALID
    assert out == ""
    msg = json.loads(err)
    assert "max_a" in msg["error"] and msg["condition"] is None


def test_library_value_error_is_not_invalid_input(capsys, monkeypatch):
    # A ValueError raised inside the library on valid input is a fault of
    # the library, not exit 2 "invalid input": it propagates.
    def broken(I):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "stable_twist", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["twist", "1327", "39", "38", "1"])
    assert capsys.readouterr().err == ""


def test_huge_field_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "twist", str(10**300 + 1), "1", "0", "1")
    assert time.perf_counter() - start < 1
    assert code == EXIT_INVALID
    assert out == ""
    assert "at most 10**18" in json.loads(err)["error"]


# main parses with the command's own parser and falls back to the full one;
# every outcome must be that of the full parser alone.
PARSE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["-x"],
    ["--", "twist", "139", "9", "7", "1"],
    ["twist"],
    ["twist", "139", "9"],
    ["twist", "x", "9", "7", "1"],
    ["twist", "139", "9", "7", "1", "--mode", "bogus"],
    ["twist", "139", "9", "7", "1", "--mo", "wr"],
    ["twist", "139", "9", "7", "1", "--mode=wr"],
    ["twist", "--mode", "wr", "139", "9", "7", "1"],
    ["twist", "139", "9", "7", "1", "stray"],
    ["twist", "139", "9", "7", "1", "--", "stray"],
    ["twist", "--", "139", "9", "7", "1"],
    ["twist", "-h"],
    ["twist", "139", "9", "7", "1", "-h"],
    ["twist", "1327", "39", "38", "1"],
    ["survey", "10", "6", "stray"],
    ["survey", "10", "6", "--filter"],
    ["survey", "10", "6", "--filter", "wr"],
    ["geodesic", "5", "1", "0", "1", "--samples", "3", "stray"],
    ["geodesic", "5", "1", "0", "1", "--samples", "3", "--format", "json"],
    ["verify-examples", "stray"],
    ["verify-examples", "-h"],
]


def _outcome(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda a: " ".join(a) or "-")
def test_parse_paths_agree(capsys, argv):
    def full():
        args = cli.build_parser().parse_args(argv)
        return args.func(args)

    assert _outcome(capsys, lambda: main(argv)) == _outcome(capsys, full)


def test_a_command_is_parsed_by_its_own_parser(capsys, monkeypatch):
    parser, _ = cli._shared_parsers()

    def full_parse(argv):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(parser, "parse_args", full_parse)
    code, out, _ = run_cli(capsys, "twist", "139", "9", "7", "1", "--mode", "wr")
    assert code == EXIT_OK
    assert json.loads(out)["wr_twistable"] is True
