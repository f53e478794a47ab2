"""Seeded inputs, operations and output checks of the benchmark workloads.

survey  `quadtwist survey D 50` for every squarefree D <= 200, in seeded order:
        the batch sweep over all canonical ideals of many small fields.
query   `quadtwist twist D a b 1 --mode all` on single ideals with
        10^5 <= D < 10^7: the interactive one-ideal certificate.
orbit   sample_orbit, wr_intersection_classes, tau_min_search and
        min_abs_norm on O_K and one canonical ideal (a <= 12) of fields with
        D <= 1000: the orbit geometry of `geodesic` and `applications`.

A run is a fixed list of ops, run once in order: `setup(workload, seed,
seconds)` sizes it to take about `seconds` at the reference speed (see
run.py), so the same seed always runs the same ops.

An op is one call into quadtwist through a public name, looked up at call
time so that the tracer's rebinding is seen.  Each op is checked against
digests recorded from the reference commit (reference/*.json, written by
record_reference.py), except sample_orbit and tau_min_search, which are
checked by invariants so that a corrected implementation still passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

import quadtwist as qt
from quadtwist import cli

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
WORKLOADS = ("survey", "query", "orbit")

SURVEY_MAX_D = 200
SURVEY_MAX_A = 50
QUERY_D_RANGE = (10**5, 10**7)
ORBIT_MAX_D = 1000
ORBIT_MAX_A = 12
ORBIT_SAMPLES = 64
ORBIT_CALLS = ("sample_orbit", "wr_intersection_classes", "tau_min_search",
               "min_abs_norm")
# Fields whose O_K orbit raised ZeroDivisionError at the reference commit;
# every orbit run starts with them so that the defect always shows in
# error_rate.
ORBIT_MUST_SHOW = (151, 166, 199)
# Run sizes: ops (fields for orbit) per second of --seconds.  At the
# reference speed a 20 s run then takes 16-21 s of op time (survey 242 ops,
# ~75 ms each; query 8192, ~2 ms; orbit 48 fields, ~0.44 s for the 8 ops
# of one).
SURVEY_OPS_PER_S = 11.5
QUERY_OPS_PER_S = 350
ORBIT_FIELDS_PER_S = 2.4
HEXAGONAL_TAU_SQ = Fraction(4, 27)
_GOLDEN = (math.sqrt(5) - 1) / 2


class Op:
    """One call into quadtwist, with the check of its output.

    `check(result)` returns None when the output is right, else a failure
    kind.  `known` is the failure kind this input had at the reference
    commit, if any; `units(result)` counts the work a passing op completed.
    """

    __slots__ = ("label", "call", "check", "known", "units")

    def __init__(self, label, call, check, known=None, units=None):
        self.label = label
        self.call = call
        self.check = check
        self.known = known
        self.units = units or (lambda result: 1)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload: str):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as f:
        return json.load(f)


def is_squarefree(n: int) -> bool:
    """Trial division, independent of quadtwist (used to generate inputs)."""
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True


def squarefree_range(lo: int, hi: int) -> list[int]:
    return [D for D in range(lo, hi) if is_squarefree(D)]


def low_discrepancy_order(items: list, cost, rng: random.Random) -> list:
    """items ranked by cost, visited in the order of frac(rank * golden + u)
    with u seeded.  Every prefix of the result is then a stratified sample
    over cheap and expensive items, so a run shorter than a pass sees a
    similar mix whatever the seed."""
    ranked = sorted(items, key=cost)
    u = rng.random()
    order = sorted(range(len(ranked)), key=lambda j: (j * _GOLDEN + u) % 1.0)
    return [ranked[j] for j in order]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_check(expected: str):
    def check(result):
        code, out = result
        if code != 0:
            return f"exit_{code}"
        return None if digest(out) == expected else "digest_mismatch"
    return check


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

def survey_argv(D: int) -> list[str]:
    return ["survey", str(D), str(SURVEY_MAX_A)]


def survey_ops(seed: int, seconds: float) -> list[Op]:
    """About SURVEY_OPS_PER_S * seconds surveys, cycling over every field in
    a seeded low-discrepancy order."""
    ref = load_reference("survey")
    fields = low_discrepancy_order(
        [(int(D), rec) for D, rec in ref.items()],
        lambda f: (f[1]["cost_ms"], f[0]), random.Random(seed))
    ops = [
        Op(f"survey {D} {SURVEY_MAX_A}",
           lambda argv=survey_argv(D): run_cli(argv),
           _cli_check(rec["digest"]),
           units=lambda result: result[1].count("\n"))
        for D, rec in fields
    ]
    return whole_passes(ops, round(SURVEY_OPS_PER_S * seconds))


def whole_passes(ops: list, n: int) -> list:
    """max(1, n) ops cycling over ops, with n rounded to whole passes once it
    reaches half a pass: then every input runs equally often, and runs of
    different seeds hold the same inputs, only in another order."""
    if 2 * n >= len(ops):
        n = len(ops) * max(1, round(n / len(ops)))
    return [ops[i % len(ops)] for i in range(max(1, n))]


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def _basis_norm(D: int, b: int) -> int:
    """N(b + delta) for g = 1, in plain integers."""
    if D % 4 == 1:
        return ((2 * b + 1) ** 2 - D) // 4
    return b * b - D


def query_inputs(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """n ideals (D, a, b) with g = 1, distinct squarefree D in QUERY_D_RANGE,
    a in [sqrt(D)/2, 2 sqrt(D)) and b a root of a | N(b + delta), b < a."""
    out = []
    used = set()
    while len(out) < n:
        D = rng.randrange(*QUERY_D_RANGE)
        if D in used or not is_squarefree(D):
            continue
        r = math.isqrt(D)
        a = rng.randrange(r // 2, 2 * r + 2)
        if 4 * a * a < D or a * a >= 4 * D:
            continue
        roots = [b for b in range(a) if _basis_norm(D, b) % a == 0]
        if not roots:
            continue
        used.add(D)
        out.append((D, a, rng.choice(roots)))
    return out


def query_argv(D: int, a: int, b: int) -> list[str]:
    return ["twist", str(D), str(a), str(b), "1", "--mode", "all"]


def query_ops(seed: int, seconds: float) -> list[Op]:
    """About QUERY_OPS_PER_S * seconds queries, cycling over a seeded
    permutation of the recorded pool."""
    pool = load_reference("query")
    random.Random(seed).shuffle(pool)
    ops = [
        Op(f"twist {D} {a} {b} 1",
           lambda argv=query_argv(D, a, b): run_cli(argv),
           _cli_check(expected))
        for D, a, b, expected in pool
    ]
    return whole_passes(ops, round(QUERY_OPS_PER_S * seconds))


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def wr_classes_text(result) -> str:
    count, values = result
    return f"{count}:" + ",".join(str(v) for v in sorted(values))


def min_abs_norm_text(result) -> str:
    w = result.witness
    return f"{result.m}:{result.coeffs}:{w.x},{w.y}:{result.attains_ideal_norm}"


# the orbit calls checked against a recorded digest of this text
DIGESTED = {"wr_intersection_classes": wr_classes_text, "min_abs_norm": min_abs_norm_text}


def check_orbit_samples(samples) -> str | None:
    """Invariants of one sampled period, decided from the exact tau.

    The per-sample checks come first, so that they still run on the
    samples of fields whose t values the reference commit duplicated."""
    if len(samples) != ORBIT_SAMPLES:
        return "sample_count"
    for s in samples:
        x, y_sq = s.tau.x, s.tau.y_sq
        if not (0 <= x <= Fraction(1, 2) and y_sq > 0 and x * x + y_sq >= 1):
            return "tau_outside_domain"
        # reduced tau = (g12/g11, det/g11^2): WR iff |tau| = 1, stable iff
        # det <= lambda_1^4 iff y^2 <= 1
        if s.is_wr != (x * x + y_sq == 1) or s.is_stable != (y_sq <= 1):
            return "flag_mismatch"
    if len({s.alpha.x for s in samples}) != len(samples):
        return "duplicate_samples"
    ratios = [s.s for s in samples]
    if ratios[0] <= 1 or any(b <= a for a, b in zip(ratios, ratios[1:])):
        return "s_not_increasing"
    return None


def check_thickness(I, result) -> str | None:
    alpha = qt.QuadElem(I.D, result.argmin_t, Fraction(1))
    exact = result.exact_tau_sq_at_argmin
    if qt.hermite_thickness_sq(qt.gram_of_twist(I, alpha)) != exact:
        return "thickness_mismatch"
    return None if exact >= HEXAGONAL_TAU_SQ else "below_hexagonal"


def _digest_check(text_of, expected: str):
    return lambda result: None if digest(text_of(result)) == expected else "digest_mismatch"


def orbit_calls(I) -> dict:
    """The ORBIT_CALLS on ideal I, as zero-argument callables."""
    return {
        "sample_orbit": lambda: qt.sample_orbit(I, ORBIT_SAMPLES),
        "wr_intersection_classes": lambda: qt.wr_intersection_classes(I),
        "tau_min_search": lambda: qt.tau_min_search(I),
        "min_abs_norm": lambda: qt.min_abs_norm(I),
    }


def orbit_ideal_ops(D: int, rec: dict) -> list[Op]:
    """The four orbit ops on one ideal; rec is its reference record."""
    a, b, g = rec["abg"]
    I = qt.validate_canonical(D, a, b, g)
    known = rec.get("failures", {})
    checks = {
        "sample_orbit": check_orbit_samples,
        "tau_min_search": lambda result: check_thickness(I, result),
    }
    for name, text_of in DIGESTED.items():
        checks[name] = _digest_check(text_of, rec.get(name))
    calls = orbit_calls(I)
    return [Op(f"{name}({D}, {a}, {b}, {g})", calls[name], checks[name], known.get(name))
            for name in ORBIT_CALLS]


def failure_class(field: dict) -> str:
    """How the field's O_K failed at the reference commit ("" if it did not);
    every recorded ideal of a field fails the same way."""
    return "/".join(sorted(f"{k}={v}" for k, v in
                           field["ideals"][0].get("failures", {}).items()))


def stratified_pick(items: list, k: int, cost) -> list:
    """k of items, ranked by cost, at ranks floor((i + 1/2) * len / k): the
    middle item of each of k equal cost strata."""
    ranked = sorted(items, key=cost)
    return [ranked[int((i + 0.5) * len(ranked) / k)] for i in range(k)]


def orbit_fields(n: int) -> list[dict]:
    """n fields: the ORBIT_MUST_SHOW ones, then the rest split over the
    failure classes of the reference commit in proportion to their sizes
    (largest remainder), each class sampled by cost strata.

    The fields do not depend on the seed.  The latency tail (p90) of an
    orbit run lies where wr_intersection_classes' costs are sparse, so a
    seeded field sample moved it by ~6 % (interquartile range over seeds)
    from the inputs alone; the seed picks each field's ideal and the order.
    How many fields of each class a run holds, and so its count of failed
    ops at the reference commit, is the same for every seed."""
    fields = load_reference("orbit")
    must = [f for f in fields if f["D"] in ORBIT_MUST_SHOW]
    classes: dict[str, list] = {}
    for f in fields:
        if f["D"] not in ORBIT_MUST_SHOW:
            classes.setdefault(failure_class(f), []).append(f)
    rest = max(0, n - len(must))
    total = sum(len(c) for c in classes.values())
    shares = {name: rest * len(c) / total for name, c in sorted(classes.items())}
    counts = {name: int(x) for name, x in shares.items()}
    by_remainder = sorted(shares, key=lambda name: (counts[name] - shares[name], name))
    for name in by_remainder[:rest - sum(counts.values())]:
        counts[name] += 1
    picked = []
    for name, members in sorted(classes.items()):
        if counts[name]:
            picked += stratified_pick(
                members, counts[name],
                lambda f: (sum(i["cost_ms"] for i in f["ideals"]), f["D"]))
    return must + picked


def orbit_ops(seed: int, seconds: float) -> list[Op]:
    """The ORBIT_CALLS on O_K and one seeded ideal of each of
    round(ORBIT_FIELDS_PER_S * seconds) fields (at least the
    ORBIT_MUST_SHOW ones, which come first; the others in seeded order)."""
    rng = random.Random(seed)
    fields = orbit_fields(round(ORBIT_FIELDS_PER_S * seconds))
    must, rest = fields[:len(ORBIT_MUST_SHOW)], fields[len(ORBIT_MUST_SHOW):]
    rng.shuffle(rest)
    ops = []
    for field in must + rest:
        ring, *candidates = field["ideals"]
        pick = rng.choice(candidates)
        ops += orbit_ideal_ops(field["D"], ring) + orbit_ideal_ops(field["D"], pick)
    return ops


# ---------------------------------------------------------------------------

MAKE_OPS = {"survey": survey_ops, "query": query_ops, "orbit": orbit_ops}

# One fixed untimed op per workload, so that set-up time does not depend on
# the seed.  The orbit one reaches fundamental_unit for D = 1 (mod 4), whose
# lazy mpmath import thereby lands in set-up.
WARM_UP = {
    "survey": lambda: run_cli(survey_argv(5)),
    "query": lambda: run_cli(query_argv(125173, 183, 182)),
    "orbit": lambda: qt.tau_min_search(qt.ring_of_integers(5)),
}


def setup(workload: str, seed: int, seconds: float) -> list[Op]:
    """Inputs of one run plus the warm-up op: everything set-up time covers."""
    ops = MAKE_OPS[workload](seed, seconds)
    WARM_UP[workload]()
    return ops
