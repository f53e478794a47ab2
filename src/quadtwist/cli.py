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

`_parse` takes one of two paths: a strict match settles a canonical `twist`
or `survey` argv, and argparse parses any other, so help and usage errors
keep one source.  `twist` and `geodesic --format json` write their reports
straight to text, one f-string per block in a fixed key order: the bytes
`json.dumps(report, indent=2)` would write, ints of any size included, with
no report object in between.  Each report goes to stdout in one write.
The `twist` report reads its Grams' integers: one Lagrange reduction, and
each printed ratio and float companion computed once.  R = U^t G U shares
G's det and denominator, and a WR report has one minimum; its stable bound
filter is read off `stable_twist`'s report when that runs.  `survey`
decides each similarity class once: an ideal (a, b, g) takes the verdicts
of its primitive part (a/g, b/g, 1), and every positive certificate is
re-checked on the printed row's own ideal, the only ideal a multiple's row
builds.  A class past the paper's finiteness bound 9(a/g)^2 >= 4*Delta
has neither twist and builds no ideal.  Its rows share one encoded tail per
class and are written in one write, after the last row or at the first
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _esc

from .geodesic import sample_orbit
from .ideals import (
    CanonicalBasisError,
    CanonicalIdeal,
    _canonical,
    _canonical_triples,
    _z2,
)
from .lattice2 import (
    _reduce,
    _stable_reduced,
    _wr_reduced,
    gram_of_twist,
    is_lagrange_reduced,
    is_paper_reduced,
    is_stable,
    is_wr,
    minima_brute_force,
    successive_minima,
)
from .quadfield import (
    CertificateError,
    InvalidFieldError,
    QuadElem,
    _discriminant,
    _float,
    _int,
    _rat,
    _ratio,
)
from .twist import (
    _certify_stable,
    _certify_wr,
    _past_height,
    _stable_cone,
    _wr_cone,
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


def _flt_json(x: float) -> str:
    """The JSON of _flt(x): a number, or the string "inf"."""
    return '"inf"' if x == math.inf else float.__repr__(float(f"{x:.12g}"))


def _gram_json(g11: str, g12: str, g22: str, det: str) -> str:
    """The JSON object, at depth 1, of a Gram whose entries print as the
    ratios g11, g12 and g22, closed by det, its encoded "det" and
    "det_sqrt_float" members."""
    return (f'{{\n    "g11": "{g11}",\n    "g12": "{g12}",'
            f'\n    "g22": "{g22}",{det}\n  }}')


def cmd_twist(args) -> int:
    """The report of one ideal, written as json.dumps(report, indent=2)
    writes it: one f-string per block, in the report's key order."""
    D, a, b, g, mode = args.D, args.a, args.b, args.g, args.mode
    I = CanonicalIdeal(D, a, b, g)
    verdict = wr_twist(I)
    fr = None if mode == "wr" else stable_twist(I)
    # stable_twist runs the cone test first and empties at index 0 exactly
    # when it fails, so its report carries the printed filter
    stable_filter = stable_bound_filter(I) if fr is None else fr.emptied_by != 0
    parts = [
        f'{{\n  "command": "twist",'
        f'\n  "inputs": {{\n    "D": {_int(D)},\n    "a": {_int(a)},'
        f'\n    "b": {_int(b)},\n    "g": {_int(g)},'
        f'\n    "mode": {_esc(mode)}\n  }},'
        f'\n  "ideal_norm": {_int(I.norm())},'
        f'\n  "wr_bound_filter": {"true" if wr_bound_filter(I) else "false"},'
        f'\n  "stable_bound_filter": {"true" if stable_filter else "false"},'
        f'\n  "wr_twistable": {"true" if verdict.wr_twistable else "false"}']
    if not verdict.wr_twistable:
        parts.append(f',\n  "wr_failure_reason": {_esc(verdict.reason)}')

    alpha: QuadElem | None = None
    if mode in ("wr", "all") and verdict.wr_twistable:
        # wr_twist already built and re-checked this Gram
        alpha, G = verdict.alpha, verdict.gram
    if fr is not None:
        intervals = ",\n    ".join(
            f'{{\n      "lo": "{iv.lo}",'
            f'\n      "hi": "{"inf" if iv.hi is None else iv.hi}",'
            f'\n      "lo_float": {_flt_json(float(iv.lo))},'
            '\n      "hi_float": '
            f'{"null" if iv.hi is None else _flt_json(float(iv.hi))},'
            f'\n      "lo_closed": {"true" if iv.lo_closed else "false"},'
            f'\n      "hi_closed": {"true" if iv.hi_closed else "false"}'
            '\n    }' for iv in fr.intervals)
        intervals = f"[\n    {intervals}\n  ]" if intervals else "[]"
        t = fr.witness_t
        parts.append(
            f',\n  "stable_feasible": {"true" if fr.feasible_real else "false"},'
            f'\n  "stable_intervals": {intervals},'
            f'\n  "witness_t": {"null" if t is None else _esc(_rat(t))}')
        if alpha is None and fr.witness_alpha is not None:
            alpha = fr.witness_alpha
            G = gram_of_twist(I, alpha)

    if alpha is not None:
        # one Lagrange reduction, of G's integers over G's denominator; R =
        # U^t G U with det U = +-1 shares G's det and denominator
        n11, n12, n22, den = G._n11, G._n12, G._n22, G._den
        r11, r12, r22 = _reduce(n11, n12, n22)[:3]
        wr, stable = _wr_reduced(r11, r12, r22), _stable_reduced(r11, r12, r22)
        det = n11 * n22 - n12 * n12
        det_json = (
            f'\n    "det": "{_ratio(det, den * den)}",'
            f'\n    "det_sqrt_float": {_flt_json(_float(0, 1, det, den))}')
        g11, g22 = _ratio(n11, den), _ratio(n22, den)
        m1 = _ratio(r11, den)
        f1 = _flt_json(_float(0, 1, r11 * den, den))
        if wr:
            m2, f2 = m1, f1
        else:
            m2, f2 = _ratio(r22, den), _flt_json(_float(0, 1, r22 * den, den))
        cosine = _float(0, n12, n11 * n22, n11 * n22)
        parts.append(
            f',\n  "alpha": {_esc(str(alpha))},'
            f'\n  "gram": {_gram_json(g11, _ratio(n12, den), g22, det_json)},'
            '\n  "reduced_gram": '
            f'{_gram_json(m1, _ratio(r12, den), m2, det_json)},'
            f'\n  "minima_sq": [\n    "{m1}",\n    "{m2}"\n  ],'
            f'\n  "minima_float": [\n    {f1},\n    {f2}\n  ],'
            f'\n  "basis_norms_sq": [\n    "{g11}",\n    "{g22}"\n  ],'
            f'\n  "cosine_float": {_flt_json(cosine)},'
            f'\n  "is_wr": {"true" if wr else "false"},'
            f'\n  "is_stable": {"true" if stable else "false"},'
            '\n  "is_paper_reduced": '
            f'{"true" if is_paper_reduced(G) else "false"},'
            '\n  "is_lagrange_reduced": '
            f'{"true" if is_lagrange_reduced(G) else "false"}')
        if n11 == n22:
            parts.append(f',\n  "cosine": "{_ratio(n12, n11)}"')
    parts.append("\n}\n")
    sys.stdout.write("".join(parts))
    return EXIT_OK


def _survey_class(D: int, a: int, b: int, disc: int, flt: str):
    """How the rows of the class of the primitive ideal (a, b, 1) over D,
    of discriminant disc, print under the filter flt: None when they do
    not, else (the row tail after ideal_norm, the (t*, alpha) a multiple's
    row re-checks by `_certify_wr` or None, the (t, alpha) it re-checks by
    `_certify_stable` or None).

    Past the height bound (`_past_height`) neither twist exists, so the
    class is decided by its two cone tests and builds no ideal."""
    wr = stable = None
    if _past_height(a, 1, disc):
        if flt != "all":
            return None
        verdicts = ('"wr_twistable": false, "alpha": null, '
                    '"stable_feasible": false, "stable_witness_t": null}')
    else:
        J = _canonical(D, a, b, 1)
        verdict = wr_twist(J)
        if flt == "wr" and not verdict.wr_twistable:
            return None
        fr = stable_twist(J)
        if flt == "stable" and not fr.feasible_real:
            return None
        alpha, t = verdict.alpha, fr.witness_t
        if alpha is not None:
            wr = verdict.t_star, alpha
        if t is not None:
            stable = t, fr.witness_alpha
        # json.dumps of the class's fields, written out: bools as
        # true/false, None as null, strings through _esc
        verdicts = (
            '"wr_twistable": '
            f'{"true" if verdict.wr_twistable else "false"}, '
            f'"alpha": {"null" if alpha is None else _esc(str(alpha))}, '
            '"stable_feasible": '
            f'{"true" if fr.feasible_real else "false"}, '
            f'"stable_witness_t": {"null" if t is None else _esc(_rat(t))}}}')
    u, v, _, _ = _z2(D, b, 1)
    return ('"wr_bound_filter": '
            f'{"true" if _wr_cone(u, v, D) else "false"}, '
            '"stable_bound_filter": '
            f'{"true" if _stable_cone(u, v, D) else "false"}, {verdicts}',
            wr, stable)


def cmd_survey(args) -> int:
    """One JSON line per canonical ideal over D with a <= max_a, in (a, b, g)
    order.

    I = (a, b, g) is g times its primitive part J = (a/g, b/g, 1): the pencil
    of I is g^2 times that of J, and WR, reducedness and stability do not
    see the factor, so I has J's forced ratio t*, feasibility set and
    witness.  The filter sees only these verdicts, so each similarity class
    is decided once, on J, at its first row (J precedes its multiples):
    whether its rows print, their encoded tail, and which certificates they
    re-check (`_survey_class`).  A class past the paper's finiteness bound,
    9(a/g)^2 >= 4*Delta, has neither twist and is settled by two integer
    comparisons and its two cone tests; any other class builds J and runs
    `wr_twist`, and `stable_twist` only when its rows can print.  A multiple
    of a class that does not print costs one dict lookup.  A printed
    multiple with a positive verdict builds its own ideal, and the verdict
    is re-checked on that ideal's Gram, so every printed certificate is one
    of the row's ideal.  Each row is one f-string, and the rows are written
    in one write, at the end or at an error.
    """
    if args.max_a < 1:
        return _invalid_input(f"need max_a >= 1, got {args.max_a}")
    D, flt = args.D, args.filter
    disc = _discriminant(D)
    # (a/g, b/g) -> _survey_class of the primitive part
    classes: dict = {}
    lines: list = []
    try:
        for a, b, g in _canonical_triples(D, args.max_a):
            if g == 1:
                cls = classes[a, b] = _survey_class(D, a, b, disc, flt)
            else:
                cls = classes[a // g, b // g]
            if cls is None:
                continue
            tail, wr, stable = cls
            if g > 1 and (wr or stable):
                I = _canonical(D, a, b, g)
                if wr:
                    _certify_wr(I, *wr)
                if stable:
                    _certify_stable(I, *stable)
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
        rows = ",\n    ".join(
            f'{{\n      "s": {_flt_json(s.s)},'
            f'\n      "t": "{_rat(s.alpha.x)}",'
            f'\n      "x": "{_rat(s.tau.x)}",'
            f'\n      "y_sq": "{_rat(s.tau.y_sq)}",'
            f'\n      "x_float": {_flt_json(float(s.tau.x))},'
            f'\n      "y_sq_float": {_flt_json(float(s.tau.y_sq))},'
            f'\n      "is_wr": {"true" if s.is_wr else "false"},'
            f'\n      "is_stable": {"true" if s.is_stable else "false"}'
            '\n    }' for s in samples)
        # sample_orbit returns args.samples >= 1 rows: the list is not empty
        sys.stdout.write(
            f'{{\n  "command": "geodesic",'
            f'\n  "inputs": {{\n    "D": {_int(args.D)},'
            f'\n    "a": {_int(args.a)},\n    "b": {_int(args.b)},'
            f'\n    "g": {_int(args.g)},'
            f'\n    "samples": {_int(args.samples)}\n  }},'
            f'\n  "rows": [\n    {rows}\n  ],'
            f'\n  "wr_crossings": {sum(1 for s in samples if s.is_wr)}\n}}\n')
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
    G = v.gram
    return (
        v.wr_twistable
        and v.t_star == t_expect
        and G.g11 == minima_sq
        and G.g22 == minima_sq
        and G.g12 / G.g11 == cosine
        and _close(_float(0, 1, G._n11 * G._den, G._den), decimal, 1e-8)
        and successive_minima(G) == (minima_sq, minima_sq)
    )


def _verify_stable_example(D, a, b, g, t_expect: int, gram_expect, det_decimal,
                           cos_decimal, classical_minima) -> bool:
    I = CanonicalIdeal(D, a, b, g)
    fr = stable_twist(I)
    if not (fr.feasible_real and fr.contains_t(Fraction(t_expect))):
        return False
    G = gram_of_twist(I, QuadElem(D, Fraction(t_expect), Fraction(1)))
    if (G.g11, G.g12, G.g22) != tuple(Fraction(v) for v in gram_expect):
        return False
    n11, n12, n22, den = G._n11, G._n12, G._n22, G._den
    if not (_close(_float(0, 1, n11 * n22 - n12 * n12, den), det_decimal, 1e-6)
            and _close(_float(0, n12, n11 * n22, n11 * n22), cos_decimal, 1e-8)):
        return False
    if not (is_stable(G) and not is_wr(G) and not wr_bound_filter(I)):
        return False
    minima = successive_minima(G)
    return (minima == tuple(Fraction(v) for v in classical_minima)
            and minima_brute_force(G) == minima)


# The paper's worked examples: (name, check, its arguments, and the note
# printed when it passes).  The stable examples quote the basis norm
# sqrt(g11) as the second minimum; the classical lambda2^2 is smaller.
_EXAMPLES = (
    ("D=139 WR twist (9, 7-sqrt(139))", _verify_wr_example,
     (139, 9, 7, 1, Fraction(1946, 107), Fraction(315252, 107),
      Fraction(-1, 14), 54.27964973), None),
    ("D=141 WR twist (5, 4+(1-sqrt(141))/2)", _verify_wr_example,
     (141, 5, 4, 1, Fraction(1269, 61), Fraction(63450, 61), Fraction(2, 9),
      32.25157258), None),
    ("D=5 WR twist of O_K (alpha = 5+sqrt(5))", _verify_wr_example,
     (5, 1, 0, 1, Fraction(5), Fraction(10), Fraction(0), math.sqrt(10)), None),
    ("D=1327 stable twist (39, 38-sqrt(1327))", _verify_stable_example,
     (1327, 39, 38, 1, 63, (191646, 83226, 147442), 146048.2881, 0.4951063950,
      (147442, 172636)),
     "D=1327 classical lambda2^2 = 172636; the basis norm sqrt(191646) quoted "
     "as the second minimum is the reduced-basis vector norm under the weak "
     "reduction condition"),
    ("D=125173 stable twist (183, 182+(1-sqrt(125173))/2)",
     _verify_stable_example,
     (125173, 183, 182, 1, 611, (40923558, 17905086, 33252444), 32252383.1,
      0.4853755919, (33252444, 38365830)),
     "D=125173 classical lambda2^2 = 38365830; the basis norm sqrt(40923558) "
     "quoted as the second minimum is the reduced-basis vector norm under the "
     "weak reduction condition"),
)


def cmd_verify_examples(_args=None) -> int:
    start = time.monotonic()
    notes: list[str] = []
    failed = 0
    for name, check, args, note in _EXAMPLES:
        ok = check(*args)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failed += 1
        elif note is not None:
            notes.append(note)
    for n in notes:
        print(f"  note: {n}")
    print(f"elapsed: {time.monotonic() - start:.2f}s")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


# command -> (help, int positionals, option, its choices, default, handler)
_CANONICAL = {
    "survey": ("enumerate canonical ideals and verdicts", ("D", "max_a"),
               "--filter", ("all", "wr", "stable"), "all", cmd_survey),
    "twist": ("decide twistability of one ideal", ("D", "a", "b", "g"),
              "--mode", ("wr", "stable", "all"), "all", cmd_twist),
}


def build_parser() -> argparse.ArgumentParser:
    """The `quadtwist` parser."""
    p = argparse.ArgumentParser(
        prog="quadtwist",
        description="WR and stable twists of canonical ideal bases in real "
        "quadratic fields, in exact arithmetic.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for cmd, (text, names, opt, choices, default, func) in _CANONICAL.items():
        c = sub.add_parser(cmd, help=text)
        for name in names:
            c.add_argument(name, type=int)
        c.add_argument(opt, choices=choices, default=default)
        c.set_defaults(func=func)

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


def _match(argv: list) -> argparse.Namespace | None:
    """argparse's namespace for `command ints... [option choice]` of
    `_CANONICAL`, with str entries and decimal-digit ints; else None."""
    if set(map(type, argv)) != {str} or argv[0] not in _CANONICAL:
        return None
    _, names, opt, choices, value, func = _CANONICAL[argv[0]]
    k = len(names) + 1
    if len(argv) == k + 2 and argv[k] == opt and argv[k + 1] in choices:
        value, argv = argv[k + 1], argv[:k]
    digits = "".join(argv[1:])
    if len(argv) != k or not digits.isdigit():
        return None
    # int, as argparse's type, reads any decimal digit ("\u0669" is 9); an
    # empty int, a digit that is not decimal ("\u00b2") or one past the
    # int-to-str digit limit raises
    try:
        ints = dict(zip(names, map(int, argv[1:])))
    except ValueError:
        return None
    args = argparse.Namespace()
    args.__dict__.update(ints, command=argv[0], func=func, **{opt[2:]: value})
    return args


def _parse(argv: list) -> argparse.Namespace:
    """build_parser().parse_args(argv), by one of two paths: `_match` settles
    `twist D a b g [--mode M]` and `survey D A [--filter F]`; the full parser
    takes any argv it declines (`--mode=wr`, `--mo`, `+9`, `-h`, `geodesic`),
    so help and usage errors come from argparse alone."""
    if (args := _match(argv)) is not None:
        return args
    return build_parser().parse_args(argv)


def _invalid_input(error: str, condition: str | None = None) -> int:
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
