import csv
import hashlib
import io
import json

import pytest

from quadtwist import cli
from quadtwist.cli import EXIT_INVALID, EXIT_OK, EXIT_VERIFY_FAILED, main
from quadtwist.quadfield import CertificateError


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


# sha256 of stdout, recorded from the Fraction-based implementation: the
# integer surd core must reproduce every byte.
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
}


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256), ids=" ".join)
def test_stdout_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


def test_certificate_failure_exits_3(capsys, monkeypatch):
    def broken(I):
        raise CertificateError("re-check failed")

    monkeypatch.setattr(cli, "stable_twist", broken)
    code, out, err = run_cli(capsys, "twist", "1327", "39", "38", "1")
    assert code == EXIT_VERIFY_FAILED
    assert out == ""
    assert json.loads(err) == {"error": "re-check failed",
                               "condition": "certificate"}
