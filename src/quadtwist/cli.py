"""Command-line surface with byte-deterministic JSON/CSV reports.

Exit codes: 0 success, 2 invalid input (a rejected field or ideal triple,
or geodesic --samples below 1), 3 verification failure (a verify-examples
mismatch, or a computed result whose exact certificate re-check fails,
reported as a JSON message on stderr).  Any other exception propagates.
Exact rationals are serialized as "numerator/denominator" strings; floats are
companions with 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from fractions import Fraction
from typing import Optional

from .geodesic import sample_at, sample_orbit
from .ideals import CanonicalBasisError, CanonicalIdeal, enumerate_canonical
from .lattice2 import (
    _stable_reduced,
    _wr_reduced,
    gram_of_twist,
    is_lagrange_reduced,
    is_paper_reduced,
    is_stable,
    is_wr,
    lagrange_reduce,
    minima_brute_force,
    successive_minima,
)
from .quadfield import CertificateError, InvalidFieldError, QuadElem
from .twist import stable_twist, wr_bound_filter, wr_twist, stable_bound_filter

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3


def _rat(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _flt(x: float) -> float:
    return float(f"{x:.12g}")


def _alpha_str(alpha: QuadElem) -> str:
    return f"{_rat(alpha.x)} + sqrt({alpha.D})" if alpha.y == 1 else str(alpha)


def _gram_json(G) -> dict:
    return {
        "g11": _rat(G.g11),
        "g12": _rat(G.g12),
        "g22": _rat(G.g22),
        "det": _rat(G.det()),
        "det_sqrt_float": _flt(math.sqrt(G.det())),
    }


def _twist_report(D: int, a: int, b: int, g: int, mode: str) -> dict:
    I = CanonicalIdeal(D, a, b, g)
    report: dict = {
        "command": "twist",
        "inputs": {"D": D, "a": a, "b": b, "g": g, "mode": mode},
        "ideal_norm": I.norm(),
        "wr_bound_filter": wr_bound_filter(I),
        "stable_bound_filter": stable_bound_filter(I),
    }
    verdict = wr_twist(I)
    report["wr_twistable"] = verdict.wr_twistable
    if not verdict.wr_twistable:
        report["wr_failure_reason"] = verdict.reason

    alpha: Optional[QuadElem] = None
    if mode in ("wr", "all") and verdict.wr_twistable:
        alpha = verdict.alpha
    if mode in ("stable", "all"):
        fr = stable_twist(I)
        report["stable_feasible"] = fr.feasible_real
        report["stable_intervals"] = [
            {
                "lo": str(iv.lo),
                "hi": "inf" if iv.hi is None else str(iv.hi),
                "lo_float": _flt(float(iv.lo)),
                "hi_float": None if iv.hi is None else _flt(float(iv.hi)),
                "lo_closed": iv.lo_closed,
                "hi_closed": iv.hi_closed,
            }
            for iv in fr.intervals
        ]
        report["witness_t"] = None if fr.witness_t is None else _rat(fr.witness_t)
        if alpha is None and fr.witness_alpha is not None:
            alpha = fr.witness_alpha

    if alpha is not None:
        G = gram_of_twist(I, alpha)
        R, _ = lagrange_reduce(G)
        l1, l2 = R.g11, R.g22
        cos_f = float(G.g12) / math.sqrt(float(G.g11) * float(G.g22))
        report.update(
            {
                "alpha": _alpha_str(alpha),
                "gram": _gram_json(G),
                "reduced_gram": _gram_json(R),
                "minima_sq": [_rat(l1), _rat(l2)],
                "minima_float": [_flt(math.sqrt(l1)), _flt(math.sqrt(l2))],
                "basis_norms_sq": [_rat(G.g11), _rat(G.g22)],
                "cosine_float": _flt(cos_f),
                "is_wr": _wr_reduced(R),
                "is_stable": _stable_reduced(R),
                "is_paper_reduced": is_paper_reduced(G),
                "is_lagrange_reduced": is_lagrange_reduced(G),
            }
        )
        if G.g11 == G.g22:
            report["cosine"] = _rat(G.g12 / G.g11)
    return report


def cmd_twist(args) -> int:
    report = _twist_report(args.D, args.a, args.b, args.g, args.mode)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_survey(args) -> int:
    ideals = enumerate_canonical(args.D, args.max_a)
    for I in ideals:
        verdict = wr_twist(I)
        fr = stable_twist(I)
        if args.filter == "wr" and not verdict.wr_twistable:
            continue
        if args.filter == "stable" and not fr.feasible_real:
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
            "alpha": None if verdict.alpha is None else _alpha_str(verdict.alpha),
            "stable_feasible": fr.feasible_real,
            "stable_witness_t": None if fr.witness_t is None else _rat(fr.witness_t),
        }
        sys.stdout.write(json.dumps(row) + "\n")
    return EXIT_OK


def cmd_geodesic(args) -> int:
    I = CanonicalIdeal(args.D, args.a, args.b, args.g)
    if args.samples < 1:
        return _invalid_input(f"need --samples >= 1, got {args.samples}")
    samples = sample_orbit(I, args.samples)
    wr_crossings = sum(1 for s in samples if s.is_wr)
    if args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["s", "t", "x", "y_sq", "is_wr", "is_stable"])
        for s in samples:
            w.writerow(
                [
                    _flt(s.s),
                    _flt(float(s.alpha.x)),
                    _flt(float(s.tau.x)),
                    _flt(float(s.tau.y_sq)),
                    s.is_wr,
                    s.is_stable,
                ]
            )
    else:
        out = {
            "command": "geodesic",
            "inputs": {"D": args.D, "a": args.a, "b": args.b, "g": args.g,
                       "samples": args.samples},
            "rows": [
                {
                    "s": _flt(s.s),
                    "t": _rat(s.alpha.x),
                    "x": _rat(s.tau.x),
                    "y_sq": _rat(s.tau.y_sq),
                    "x_float": _flt(float(s.tau.x)),
                    "y_sq_float": _flt(float(s.tau.y_sq)),
                    "is_wr": s.is_wr,
                    "is_stable": s.is_stable,
                }
                for s in samples
            ],
            "wr_crossings": wr_crossings,
        }
        json.dump(out, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Worked-example verification harness
# ---------------------------------------------------------------------------

def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * abs(y)


def _verify_wr_example(D, a, b, g, t_expect: Fraction, minima_sq: Fraction,
                       cosine: Fraction, decimal: float) -> bool:
    I = CanonicalIdeal(D, a, b, g)
    v = wr_twist(I)
    ok = (
        v.wr_twistable
        and v.t_star == t_expect
        and v.gram.g11 == minima_sq
        and v.gram.g22 == minima_sq
        and v.gram.g12 / v.gram.g11 == cosine
        and _close(math.sqrt(minima_sq), decimal, 1e-8)
    )
    l1, l2 = successive_minima(v.gram)
    ok = ok and l1 == minima_sq and l2 == minima_sq
    return ok


def _verify_stable_example(D, a, b, g, t_expect: int, gram_expect, det_decimal,
                           cos_decimal, classical_minima, quoted_l2,
                           notes: list) -> bool:
    I = CanonicalIdeal(D, a, b, g)
    fr = stable_twist(I)
    if not (fr.feasible_real and fr.contains_t(Fraction(t_expect))):
        return False
    alpha = QuadElem(D, Fraction(t_expect), Fraction(1))
    G = gram_of_twist(I, alpha)
    if (G.g11, G.g12, G.g22) != tuple(Fraction(v) for v in gram_expect):
        return False
    if not _close(math.sqrt(G.det()), det_decimal, 1e-6):
        return False
    cos_f = float(G.g12) / math.sqrt(float(G.g11) * float(G.g22))
    if not _close(cos_f, cos_decimal, 1e-8):
        return False
    if not (is_stable(G) and not is_wr(G) and not wr_bound_filter(I)):
        return False
    l1, l2 = successive_minima(G)
    bf = minima_brute_force(G, box=5)
    if (l1, l2) != tuple(Fraction(v) for v in classical_minima) or bf != (l1, l2):
        return False
    notes.append(
        f"  note: D={D} classical lambda2^2 = {l2}; the basis norm "
        f"{quoted_l2} quoted as the second minimum is the reduced-basis "
        f"vector norm under the weak reduction condition"
    )
    return True


def cmd_verify_examples(_args=None) -> int:
    start = time.monotonic()
    notes: list[str] = []
    cases = [
        (
            "D=139 WR twist (9, 7-sqrt(139))",
            lambda: _verify_wr_example(
                139, 9, 7, 1, Fraction(1946, 107), Fraction(315252, 107),
                Fraction(-1, 14), 54.27964973),
        ),
        (
            "D=141 WR twist (5, 4+(1-sqrt(141))/2)",
            lambda: _verify_wr_example(
                141, 5, 4, 1, Fraction(1269, 61), Fraction(63450, 61),
                Fraction(2, 9), 32.25157258),
        ),
        (
            "D=5 WR twist of O_K (alpha = 5+sqrt(5))",
            lambda: _verify_wr_example(
                5, 1, 0, 1, Fraction(5), Fraction(10), Fraction(0), math.sqrt(10)),
        ),
        (
            "D=1327 stable twist (39, 38-sqrt(1327))",
            lambda: _verify_stable_example(
                1327, 39, 38, 1, 63, (191646, 83226, 147442), 146048.2881,
                0.4951063950, (147442, 172636), "sqrt(191646)", notes),
        ),
        (
            "D=125173 stable twist (183, 182+(1-sqrt(125173))/2)",
            lambda: _verify_stable_example(
                125173, 183, 182, 1, 611, (40923558, 17905086, 33252444),
                32252383.1, 0.4853755919, (33252444, 38365830),
                "sqrt(40923558)", notes),
        ),
    ]
    failed = 0
    for name, run in cases:
        ok = run()
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failed += 1
    for n in notes:
        print(n)
    print(f"elapsed: {time.monotonic() - start:.2f}s")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quadtwist",
        description="WR and stable twists of canonical ideal bases in real "
        "quadratic fields, in exact arithmetic.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("survey", help="enumerate canonical ideals and verdicts")
    s.add_argument("D", type=int)
    s.add_argument("max_a", type=int)
    s.add_argument("--filter", choices=["all", "wr", "stable"], default="all")
    s.set_defaults(func=cmd_survey)

    t = sub.add_parser("twist", help="decide twistability of one ideal")
    t.add_argument("D", type=int)
    t.add_argument("a", type=int)
    t.add_argument("b", type=int)
    t.add_argument("g", type=int)
    t.add_argument("--mode", choices=["wr", "stable", "all"], default="all")
    t.set_defaults(func=cmd_twist)

    g = sub.add_parser("geodesic", help="sample the similarity-class orbit")
    g.add_argument("D", type=int)
    g.add_argument("a", type=int)
    g.add_argument("b", type=int)
    g.add_argument("g", type=int)
    g.add_argument("--samples", type=int, default=64)
    g.add_argument("--format", choices=["csv", "json"], default="csv")
    g.set_defaults(func=cmd_geodesic)

    v = sub.add_parser("verify-examples", help="recompute the worked examples")
    v.set_defaults(func=cmd_verify_examples)
    return p


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built once per process and reused: parse_args does not change it.
    return build_parser()


def _invalid_input(error: str, condition: Optional[str] = None) -> int:
    print(json.dumps({"error": error, "condition": condition}), file=sys.stderr)
    return EXIT_INVALID


def main(argv=None) -> int:
    """Run one command.  Only a rejected field or ideal triple, or an option
    the command rejects, is invalid input (exit 2); any other exception from
    the library propagates."""
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except CertificateError as exc:
        print(json.dumps({"error": str(exc), "condition": "certificate"}),
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except CanonicalBasisError as exc:
        return _invalid_input(str(exc), exc.condition)
    except InvalidFieldError as exc:
        return _invalid_input(str(exc))


if __name__ == "__main__":
    sys.exit(main())
