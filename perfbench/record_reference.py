"""Record the reference outputs the benchmark checks against.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py [survey|query|orbit ...]

It writes perfbench/reference/<workload>.json:
  survey.json  {D: digest of `quadtwist survey D 50` stdout and its cost
               in ms (used only to order fields, see
               workloads.low_discrepancy_order)}
  query.json   [[D, a, b, digest of `quadtwist twist D a b 1 --mode all`]]
               for a fixed pool of QUERY_POOL ideals
  orbit.json   per squarefree D <= 1000: O_K and ORBIT_CANDIDATES canonical
               ideals with a <= 12, each with the digests of
               wr_intersection_classes and min_abs_norm, the failure kind of
               every call that failed, and its cost in ms (used only to pick
               fields by cost strata, see workloads.orbit_fields).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

from run import import_workloads

wl = import_workloads()

QUERY_POOL = 8192
ORBIT_CANDIDATES = 2
POOL_SEED = 20180827


def _write(workload: str, data) -> None:
    path = os.path.join(wl.REFERENCE_DIR, f"{workload}.json")
    with open(path, "w") as f:
        json.dump(data, f, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {path}")


def record_survey() -> None:
    out = {}
    for D in wl.squarefree_range(2, wl.SURVEY_MAX_D + 1):
        start = time.perf_counter()
        code, text = wl.run_cli(wl.survey_argv(D))
        cost_ms = round((time.perf_counter() - start) * 1000, 1)
        if code != 0:
            raise SystemExit(f"survey {D} exited {code}")
        out[str(D)] = {"digest": wl.digest(text), "cost_ms": cost_ms}
    _write("survey", out)


def record_query() -> None:
    rng = random.Random(POOL_SEED)
    pool = []
    wr = witness = 0
    for D, a, b in wl.query_inputs(rng, QUERY_POOL):
        code, text = wl.run_cli(wl.query_argv(D, a, b))
        if code != 0:
            raise SystemExit(f"twist {D} {a} {b} 1 exited {code}")
        pool.append([D, a, b, wl.digest(text)])
        wr += '"wr_twistable": true' in text
        witness += '"witness_t": null' not in text
    print(f"query pool: {len(pool)} ideals, {wr} WR-twistable, {witness} with a stable witness")
    _write("query", pool)


def _orbit_record(I) -> dict:
    rec = {"abg": [I.a, I.b, I.g]}
    failures = {}
    calls = wl.orbit_calls(I)
    start = time.perf_counter()
    for name in wl.ORBIT_CALLS:
        try:
            result = calls[name]()
        except Exception as exc:  # a seed defect: recorded, not fatal
            failures[name] = type(exc).__name__
            continue
        if name in wl.DIGESTED:
            rec[name] = wl.digest(wl.DIGESTED[name](result))
            kind = None
        elif name == "sample_orbit":
            kind = wl.check_orbit_samples(result)
        else:
            kind = wl.check_thickness(I, result)
        if kind is not None:
            failures[name] = kind
    rec["cost_ms"] = round((time.perf_counter() - start) * 1000, 1)
    if failures:
        rec["failures"] = failures
    return rec


def record_orbit() -> None:
    rng = random.Random(POOL_SEED)
    fields = []
    for D in wl.squarefree_range(2, wl.ORBIT_MAX_D + 1):
        ring, *others = wl.qt.enumerate_canonical(D, wl.ORBIT_MAX_A)
        picks = rng.sample(others, min(ORBIT_CANDIDATES, len(others)))
        fields.append({"D": D, "ideals": [_orbit_record(I) for I in [ring] + picks]})
        print(f"orbit D={D}", file=sys.stderr, flush=True)
    _write("orbit", fields)


RECORDERS = {"survey": record_survey, "query": record_query, "orbit": record_orbit}

if __name__ == "__main__":
    for name in sys.argv[1:] or wl.WORKLOADS:
        RECORDERS[name]()
