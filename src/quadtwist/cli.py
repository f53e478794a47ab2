"""Command-line surface with byte-deterministic JSON/CSV reports.

Exit codes: 0 success, 2 invalid input (a rejected field or ideal triple,
survey max_a below 1, or geodesic --samples below 1), 3 verification
failure (a verify-examples mismatch, or a computed result whose exact
certificate re-check fails, reported as a JSON message on stderr).  Any
other exception propagates.  Exact rationals are serialized as
"numerator/denominator" strings of any size; floats are companions with 12
significant digits, and a companion beyond float range is the string "inf".
Each companion is computed from the integers it stands for
(`quadfield._float`), so no step of it can overflow.

A call pays for one parse by its command's own parser (the full parser runs
only for usage errors and help).  The indented JSON of `twist` and
`geodesic --format json` has one emitter, `_json`, which writes what
`json.dumps(obj, indent=2)` writes, ints of any size included; the report
goes to stdout in one write.  The `twist` report reads its Grams' integers:
one Lagrange reduction, one gcd per printed ratio.  `survey` decides each
similarity class once: an ideal (a, b, g) takes the verdicts of its
primitive part (a/g, b/g, 1), and every positive certificate is re-checked
on the printed row's own ideal.  Its rows share one encoded tail per class
and are written in one write, after the last row or at the first error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _esc
from typing import Optional

from .geodesic import sample_orbit
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
from .quadfield import CertificateError, InvalidFieldError, QuadElem, _float, _int, _rat, _ratio
from .twist import (
    _certify_stable,
    _certify_wr,
    stable_bound_filter,
    stable_twist,
    wr_bound_filter,
    wr_twist,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3


def _flt(x: float):
    """x to 12 significant digits, or "inf" beyond float range."""
    return "inf" if x == math.inf else float(f"{x:.12g}")


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2, allow_nan=False) of dicts with str keys,
    lists, str, int, float, bool and None, with ints of any size."""
    if isinstance(obj, str):
        return _esc(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return _int(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"float {obj!r} is not JSON compliant")
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        ends = "{}"
        items = [f"{_esc(k)}: {_json(v, inner)}" for k, v in obj.items()]
    elif isinstance(obj, list):
        ends, items = "[]", [_json(v, inner) for v in obj]
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    if not items:
        return ends
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{pad}{ends[1]}"


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
        # wr_twist already built and re-checked this Gram
        alpha, G = verdict.alpha, verdict.gram
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
            G = gram_of_twist(I, alpha)

    if alpha is not None:
        R, _ = lagrange_reduce(G)
        report["alpha"] = str(alpha)
        # read off the integers [[n11, n12], [n12, n22]]/den; int / int rounds
        # correctly, as float() of the Fraction does
        for key, M in (("gram", G), ("reduced_gram", R)):
            n11, n12, n22, den = M._n11, M._n12, M._n22, M._den
            det = n11 * n22 - n12 * n12
            report[key] = {
                "g11": _ratio(n11, den), "g12": _ratio(n12, den),
                "g22": _ratio(n22, den), "det": _ratio(det, den * den),
                "det_sqrt_float": _flt(_float(0, 1, det, den)),
            }
        gram, reduced = report["gram"], report["reduced_gram"]
        r11, r12, r22, rden = R._n11, R._n12, R._n22, R._den
        n11, n12, n22, den = G._n11, G._n12, G._n22, G._den
        report.update(
            {
                "minima_sq": [reduced["g11"], reduced["g22"]],
                "minima_float": [_flt(_float(0, 1, r11 * rden, rden)),
                                 _flt(_float(0, 1, r22 * rden, rden))],
                "basis_norms_sq": [gram["g11"], gram["g22"]],
                "cosine_float": _flt(_float(0, n12, n11 * n22, n11 * n22)),
                "is_wr": _wr_reduced(r11, r12, r22),
                "is_stable": _stable_reduced(r11, r12, r22),
                "is_paper_reduced": is_paper_reduced(G),
                "is_lagrange_reduced": is_lagrange_reduced(G),
            }
        )
        if n11 == n22:
            report["cosine"] = _ratio(n12, n11)
    return report


def cmd_twist(args) -> int:
    report = _twist_report(args.D, args.a, args.b, args.g, args.mode)
    sys.stdout.write(_json(report) + "\n")
    return EXIT_OK


def cmd_survey(args) -> int:
    """One JSON line per canonical ideal over D with a <= max_a, in (a, b, g)
    order.

    I = (a, b, g) is g times its primitive part J = (a/g, b/g, 1): the pencil
    of I is g^2 times that of J, and WR, reducedness and stability do not
    see the factor, so I has J's forced ratio t*, feasibility set and
    witness.  Each similarity class is therefore decided once, on J, for the
    duration of this call; J's stable verdict is computed only when a row of
    its class is printed.  A multiple's positive verdicts are re-checked on
    its own Gram, so every printed certificate is one of the row's ideal.
    The fields after ideal_norm are the class's, so they are encoded once
    per class; the rows are written in one write, at the end or at an error.
    """
    if args.max_a < 1:
        return _invalid_input(f"need max_a >= 1, got {args.max_a}")
    # (a/g, b/g) -> [J, wr_twist(J), stable_twist(J) and the encoded row
    # tail, both None until needed]; the ideals come sorted by (a, b, g), so
    # J precedes its multiples
    classes: dict = {}
    lines: list = []
    try:
        for I in enumerate_canonical(args.D, args.max_a):
            D, a, b, g = I.D, I.a, I.b, I.g
            if g == 1:
                cls = classes[a, b] = [I, wr_twist(I), None, None]
            else:
                cls = classes[a // g, b // g]
            J, verdict, fr, tail = cls
            if args.filter == "wr" and not verdict.wr_twistable:
                continue
            if fr is None:
                fr = stable_twist(J)
                tail = json.dumps({
                    "wr_bound_filter": wr_bound_filter(J),
                    "stable_bound_filter": stable_bound_filter(J),
                    "wr_twistable": verdict.wr_twistable,
                    "alpha": None if verdict.alpha is None else str(verdict.alpha),
                    "stable_feasible": fr.feasible_real,
                    "stable_witness_t":
                        None if fr.witness_t is None else _rat(fr.witness_t),
                })[1:]
                cls[2:] = fr, tail
            if args.filter == "stable" and not fr.feasible_real:
                continue
            if g > 1:
                if verdict.wr_twistable:
                    _certify_wr(I, verdict.t_star, verdict.alpha)
                if fr.witness_t is not None:
                    _certify_stable(I, fr.witness_t, fr.witness_alpha)
            # ints print as their JSON; the tail holds the rest of the object
            lines.append(f'{{"D": {D}, "a": {a}, "b": {b}, "g": {g}, '
                         f'"ideal_norm": {a * g}, {tail}\n')
    finally:
        sys.stdout.write("".join(lines))
    return EXIT_OK


def cmd_geodesic(args) -> int:
    I = CanonicalIdeal(args.D, args.a, args.b, args.g)
    if args.samples < 1:
        return _invalid_input(f"need --samples >= 1, got {args.samples}")
    samples = sample_orbit(I, args.samples)
    if args.format == "csv":
        rows = [("s", "t", "x", "y_sq", "is_wr", "is_stable")]
        rows += [(_flt(s.s), _flt(float(s.alpha.x)), _flt(float(s.tau.x)),
                  _flt(float(s.tau.y_sq)), s.is_wr, s.is_stable)
                 for s in samples]
        sys.stdout.write("".join(",".join(map(str, row)) + "\n"
                                 for row in rows))
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
            "wr_crossings": sum(1 for s in samples if s.is_wr),
        }
        sys.stdout.write(_json(out) + "\n")
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
    bf = minima_brute_force(G)
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


def build_parser(commands: Optional[dict] = None) -> argparse.ArgumentParser:
    """The `quadtwist` parser.  If `commands` is given, each command's own
    parser is stored in it under the command's name."""
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
    if commands is not None:
        commands.update({"survey": s, "twist": t, "geodesic": g,
                         "verify-examples": v})
    return p


@functools.cache
def _shared_parsers() -> tuple[argparse.ArgumentParser, dict]:
    # Built once per process and reused: parsing does not change them.
    commands: dict = {}
    return build_parser(commands), commands


def _parse(argv: list) -> argparse.Namespace:
    """The namespace of build_parser().parse_args(argv), parsed by the
    command's own parser alone where that settles it.

    The full parser hands every argument after the command to the command's
    parser, so the two agree whenever that parser leaves nothing over.
    Anything else (no command, an unknown one, a top-level option, or a
    stray argument) goes through the full parser, which prints the same
    usage errors as before.
    """
    parser, commands = _shared_parsers()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def _invalid_input(error: str, condition: Optional[str] = None) -> int:
    print(json.dumps({"error": error, "condition": condition}), file=sys.stderr)
    return EXIT_INVALID


def main(argv=None) -> int:
    """Run one command.  Only a rejected field or ideal triple, or an option
    the command rejects, is invalid input (exit 2); any other exception from
    the library propagates."""
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
