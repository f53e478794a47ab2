import csv
import hashlib
import io
import json
import random
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest

from quadtwist import cli, ideals
from quadtwist.cli import EXIT_INVALID, EXIT_OK, EXIT_VERIFY_FAILED, main
from quadtwist import twist
from quadtwist.ideals import CanonicalBasisError, CanonicalIdeal, enumerate_canonical
from quadtwist.lattice2 import _twist_ints
from quadtwist.quadfield import CertificateError, _rat
from quadtwist.twist import (
    stable_bound_filter,
    stable_twist,
    wr_bound_filter,
    wr_twist,
)
from support import PERFBENCH, ROOT, run_python


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

    @pytest.mark.parametrize("mode", ["wr", "stable", "all"])
    def test_one_cone_test_per_query(self, capsys, monkeypatch, mode):
        # under --mode stable and all the printed stable_bound_filter is
        # read off stable_twist's report, whose first step is the cone test
        ideals = enumerate_canonical(139, 30)
        want = [stable_bound_filter(I) for I in ideals]
        assert set(want) == {True, False}
        calls = []
        real = twist._stable_cone

        def counted(u, v, D):
            calls.append((u, v, D))
            return real(u, v, D)

        monkeypatch.setattr(twist, "_stable_cone", counted)
        for I, cone in zip(ideals, want):
            calls.clear()
            _, out, _ = run_cli(capsys, "twist", *map(str, (I.D, I.a, I.b, I.g)),
                                "--mode", mode)
            assert len(calls) == 1, I
            assert json.loads(out)["stable_bound_filter"] is cone, I

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
    def test_builds_an_ideal_per_class_and_per_recheck(
            self, capsys, monkeypatch, flag):
        # the row loop's work budget: one ideal per similarity class inside
        # the height bound 9a^2 < 4*Delta (its primitive part, g == 1,
        # printed or not) and one per printed multiple whose WR twist or
        # stable witness is re-checked on its own Gram; every ideal is
        # built through ideals._derive, and a class past the bound builds
        # none
        _, full, _ = run_cli(capsys, "survey", "139", "30")
        built = []
        real = ideals._derive

        def counted(I, z2):
            built.append((I.a, I.b, I.g))
            return real(I, z2)

        monkeypatch.setattr(ideals, "_derive", counted)
        _, out, _ = run_cli(capsys, "survey", "139", "30", "--filter", flag)
        classes = {(r["a"], r["b"], 1) for r in map(json.loads,
                                                    full.splitlines())
                   if r["g"] == 1}
        inside = {c for c in classes if 9 * c[0] ** 2 < 4 * (4 * 139)}
        rechecked = {(r["a"], r["b"], r["g"])
                     for r in map(json.loads, out.splitlines())
                     if r["g"] > 1 and (r["wr_twistable"]
                                        or r["stable_witness_t"] is not None)}
        assert built == sorted(inside | rechecked)
        if flag == "all":
            assert (len(full.splitlines()), len(classes), len(inside),
                    len(built)) == (129, 36, 18, 27)

    @pytest.mark.parametrize("flag", ["all", "wr", "stable"])
    @pytest.mark.parametrize("D", [2, 5, 13, 21, 139, 141, 199, 997, 998])
    def test_same_bytes_as_deciding_every_row(self, capsys, D, flag):
        # D = 5, 13, 21, 141, 997 are 1 mod 4, where even g meets e = 2;
        # over D = 997 (Delta = 997) and D = 998 (Delta = 3992) the height
        # bound 9a^2 < 4*Delta ends inside a <= 50, after a = 21 and a = 42
        _, out, _ = run_cli(capsys, "survey", str(D), "50", "--filter", flag)
        assert out == _ref_survey(D, 50, flag)

    def test_positive_rows_are_rechecked_on_their_own_ideal(
            self, capsys, monkeypatch):
        twisted = set()

        # both certificates twist I by p/q + sqrt(D) on its pencil integers
        def recorded(I, p, q):
            twisted.add((I.a, I.b, I.g, Fraction(p, q)))
            return _twist_ints(I, p, q)

        monkeypatch.setattr(twist, "_twist_ints", recorded)
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

    def test_stdout_digest(self, capsys):
        # every verdict line and note, byte for byte; elapsed: varies
        code, out, _ = run_cli(capsys, "verify-examples")
        assert code == EXIT_OK
        body = "".join(l for l in out.splitlines(True)
                       if not l.startswith("elapsed:"))
        assert hashlib.sha256(body.encode()).hexdigest() == \
            "34577c84c9f2aabb855583226e6c379dbce1e6c16adfedcb269615e43792e99c"

    # (row of the table, index into its arguments, corrupted value): the
    # exact t, the float sqrt(lambda_1^2), sqrt(det) and cosine checks
    @pytest.mark.parametrize("row, arg, value", [
        (0, 4, Fraction(1947, 107)),
        (1, 7, 32.2516),
        (3, 6, 146048.5),
        (4, 7, 0.48538),
    ])
    def test_corrupted_expectation_fails(self, capsys, monkeypatch, row, arg,
                                         value):
        table = list(cli._EXAMPLES)
        name, check, args, note = table[row]
        table[row] = (name, check, args[:arg] + (value,) + args[arg + 1:], note)
        monkeypatch.setattr(cli, "_EXAMPLES", tuple(table))
        code, out, _ = run_cli(capsys, "verify-examples")
        assert code == EXIT_VERIFY_FAILED
        verdicts = [l.split("  ", 1) for l in out.splitlines()
                    if l.startswith(("PASS", "FAIL"))]
        assert verdicts == [["FAIL" if i == row else "PASS", r[0]]
                            for i, r in enumerate(table)]


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
    # recorded before canonical argv skipped argparse
    ("survey", "139", "30", "--filter", "stable"):
        "3e9f066dd965dae1a06b34e3a1a5920fa8242c08ff2f937dc8fb1945e13bca65",
    # the default filter spelled out: the same bytes as without it
    ("survey", "139", "30", "--filter", "all"):
        "5efef7d9b1df372bd2be6b45f87d8c79cc5e24e6be3a12652b24dfcf9bdb6da7",
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
    # the failure reason alone: no stable block and no Gram
    ("twist", "5", "11", "3", "1", "--mode", "wr"):
        "c9c5812c31ec2457ee0e7ea6e16b59ecbebbae3677341fc5507374b532ed03c1",
    # "stable_intervals": [] and a null witness
    ("twist", "5", "11", "3", "1", "--mode", "stable"):
        "dc584c7d94e7dc921c253d55ce11e2942faac379a5da2fc07a1973a1f007f171",
    # an unbounded interval ("hi": "inf", "hi_float": null), and the Gram of
    # the stable witness
    ("twist", "3", "2", "1", "1", "--mode", "stable"):
        "396b9ead8f750d8defa4032da30909b80c36af3e95899def107d8802ec683c58",
    ("geodesic", "5", "1", "0", "1", "--samples", "4", "--format", "json"):
        "9332d303beab77803200f5447eb06af2292c53918dde4ea356aea9bb73f68c15",
    # an "inf" string, and a t past the int-to-str digit limit
    ("geodesic", "9999991", "1", "0", "1", "--samples", "2", "--format",
     "json"):
        "4263acf8fc49f135ce70f8e9431494645091a446c4c89df23e88cd88983b0585",
    ("geodesic", "9999991", "1", "0", "1", "--samples", "3", "--format",
     "json"):
        "f8980b3535b2b21a8c70d57b25795dac85a2c147955cf65f6da6792ff1b1744e",
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


# the body pip writes into the `quadtwist` console script
CONSOLE_SCRIPT = "import sys; from quadtwist.cli import main; sys.exit(main())"

# argv as a shell passes them, "--option=value" too
CONSOLE_ARGV = [
    "twist 1327 39 38 1 --mode all",
    "twist 1327 39 38 1 --mode=all",
    "twist 139 9 7 1 --mode wr",
    "twist 5 11 3 1 --mode stable",
    "survey 139 30",
    "survey 139 30 --filter stable",
    "survey 139 30 --filter=all",
    "geodesic 5 1 0 1 --samples 4",
    "geodesic 5 1 0 1 --samples=4",
    "geodesic 5 1 0 1 --samples 4 --format json",
]


def console(flags, *argv):
    """The console script in its own interpreter with `src` on the path,
    stdout on a pipe."""
    return run_python("-c", CONSOLE_SCRIPT, *argv, flags=flags,
                      capture_output=True)


def test_the_console_script_runs_cli_main():
    # read as text: Python 3.10 has no tomllib
    with open(ROOT / "pyproject.toml") as f:
        assert '[project.scripts]\nquadtwist = "quadtwist.cli:main"\n' \
            in f.read()


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("line", CONSOLE_ARGV)
def test_console_script_stdout_bytes(flags, line):
    # stdout is the real text-mode stream, not capsys
    pinned = []
    for word in line.split():
        pinned += word.split("=", 1) if word.startswith("--") else [word]
    proc = console(flags, *line.split())
    assert proc.returncode == EXIT_OK
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        STDOUT_SHA256[tuple(pinned)]


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_console_script_exit_codes(flags):
    # a usage error: argparse exits 2
    assert console(flags, "twist", "139", "9", "7", "1", "--mode",
                   "bogus").returncode == 2
    # the paper's worked examples: exit 0 and exactly five PASS lines
    proc = console(flags, "verify-examples")
    assert proc.returncode == EXIT_OK
    assert sum(line.startswith(b"PASS")
               for line in proc.stdout.splitlines()) == 5


SURVEY_REFERENCE = PERFBENCH / "reference" / "survey.json"


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


QUERY_REFERENCE = PERFBENCH / "reference" / "query.json"


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


def _round_trips(out):
    # the reports are written as text; json.dumps(..., indent=2) of what
    # they parse to must give back every byte
    return json.dumps(json.loads(out), indent=2) + "\n" == out


@pytest.mark.parametrize(
    "argv", [argv for argv in sorted(STDOUT_SHA256)
             if argv[0] == "twist" or "json" in argv], ids=" ".join)
def test_pinned_json_reports_are_json_dumps_indent_2(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert _round_trips(out)


@pytest.mark.parametrize("mode", ["wr", "stable", "all"])
def test_query_reports_are_json_dumps_indent_2(capsys, mode):
    with open(QUERY_REFERENCE) as f:
        pool = json.load(f)
    wrong = []
    for D, a, b, _ in random.Random(0).sample(pool, 256):
        code, out, _ = run_cli(capsys, "twist", str(D), str(a), str(b), "1",
                               "--mode", mode)
        if code != EXIT_OK or not _round_trips(out):
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


# main settles a canonical twist or survey argv by a strict match and hands
# any other to the full parser; every outcome must be that of the full
# parser alone.
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
    # where int() and a naive digit check disagree with the strict match
    ["twist", "139", "+9", "7", "1"],
    ["twist", "139", "9", "7", "1_0"],
    ["twist", "139", "\u0669", "7", "1"],
    ["twist", "139", "\u00b2", "7", "1"],
    ["twist", "2", "1" * 4301, "0", "1"],
    ["twist", "139", "9", "7", "1", "--mode", "wr", "--mode", "stable"],
    ["survey", "10", "6", "stray"],
    ["survey", "10", "6", "--filter"],
    ["survey", "10", "6", "--filter", "wr"],
    ["survey", "139", "3", "--filter=wr"],
    ["survey", "139", "3", "--fil", "wr"],
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
    except TypeError as exc:  # argparse itself fails on a non-str entry
        code = (type(exc), str(exc))
    out = capsys.readouterr()
    return code, out.out, out.err


def _full(argv):
    """main(argv) with the full parser alone."""
    with mock.patch.object(cli, "_parse",
                           lambda a: cli.build_parser().parse_args(a)):
        return main(argv)


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda a: " ".join(
    x if len(x) < 40 else f"<{len(x)} chars>" for x in a) or "-")
def test_parse_paths_agree(capsys, argv):
    assert _outcome(capsys, lambda: main(argv)) == \
        _outcome(capsys, lambda: _full(argv))


def test_a_canonical_argv_reaches_no_parser(capsys, monkeypatch):
    # a declined argv is parsed by argparse
    code, out, _ = run_cli(capsys, "geodesic", "5", "1", "0", "1",
                           "--samples", "4")
    assert code == EXIT_OK
    digest = STDOUT_SHA256["geodesic", "5", "1", "0", "1", "--samples", "4"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest

    def refuse():
        raise AssertionError("argparse ran")

    monkeypatch.setattr(cli, "build_parser", refuse)
    wr = ("twist", "139", "9", "7", "1", "--mode", "wr")
    every = ("twist", "1327", "39", "38", "1", "--mode", "all")
    survey = ("survey", "139", "30")
    stable = survey + ("--filter", "stable")
    # without --mode, twist prints the report of its default, --mode all
    for argv, pinned in [(wr, wr), (every[:5], every), (survey, survey),
                         (stable, stable)]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == \
            STDOUT_SHA256[pinned]


# Canonical argv of twist and survey, and the spellings the strict match
# must leave to argparse: not a str, not decimal digits, too long for int(),
# an option abbreviated, joined by "=", repeated, misplaced or unknown.
_ODD_INTS = ["+9", "-5", "1_0", " 9", "", "x", "\u0669", "\u00b2",
             "1" * 4301, 9, b"9", None]
_SHAPES = {"twist": [["5", "139", "141", "12"], ["1", "9", "5", "3"],
                     ["0", "7", "4", "8"], ["1", "2"]],
           "survey": [["5", "10", "139", "12"], ["0", "1", "3", "03"]]}


def _corpus(count: int, seed: int):
    """`count` argv: half canonical, half with one or two mutations."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(sorted(_SHAPES))
        option, choices = cli._CANONICAL[command][2:4]
        ints = [rng.choice(pool) for pool in _SHAPES[command]]
        tail = rng.choice([[], [option, rng.choice(choices)]])
        for _ in range(rng.choice([0, 0, 1, 2])):
            kind = rng.randrange(4)
            if kind == 0:
                ints[rng.randrange(len(ints))] = rng.choice(_ODD_INTS)
            elif kind == 1:
                c, c2 = rng.choice(choices), rng.choice(choices)
                tail = rng.choice([[option, "bogus"], [f"{option}={c}"],
                                   [option[:4], c], [option],
                                   [option, c, option, c2]])
            elif kind == 2:
                ints, tail = tail + ints, []
            else:
                ints.insert(rng.randrange(len(ints) + 1),
                            rng.choice(["--", "-h", "stray", "3", 7]))
        yield [command] + ints + tail


def test_strict_match_agrees_with_argparse(capsys):
    full = cli.build_parser()
    matched = declined = 0
    for argv in _corpus(1000, 25):
        args = cli._match(argv)
        if args is not None:
            matched += 1
            assert args == full.parse_args(argv), argv
            continue
        declined += 1
        via_main = _outcome(capsys, lambda: main(argv))
        assert via_main == _outcome(capsys, lambda: _full(argv)), argv
    assert matched > 300 and declined > 300
