"""The committed benchmark records BENCH_<n>.json at the repo root.

Each record compares a baseline commit with a change over alternating runs
of `python3 perfbench/run.py` and keeps, per workload, what a speed claim
rests on: the commits, the seeds, the medians, IQRs and win counts of the
end-to-end metrics, the attempted and failed op counts, the traced per-layer
calls and self times, and the machine and Python version.
"""

import copy
import glob
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
WORKLOADS = ("survey", "query", "orbit")
END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms",
              "peak_rss_mb")
SUMMARY = ("baseline_median", "baseline_iqr", "change_median", "change_iqr",
           "change_wins", "pairs")


def problems(rec):
    """Every missing or malformed part of one record, as messages."""
    out = []
    for side in ("baseline", "change"):
        if not isinstance(rec.get(side, {}).get("commit"), str):
            out.append(f"no {side} commit")
    machine = rec.get("machine", {})
    for key in ("python", "platform", "cpu_count"):
        if key not in machine:
            out.append(f"machine lacks {key}")
    for w in WORKLOADS:
        wl = rec.get("workloads", {}).get(w)
        if wl is None:
            out.append(f"no workload {w}")
            continue
        seeds = wl.get("seeds", [])
        if len(seeds) < 5 or len(set(seeds)) != len(seeds):
            out.append(f"{w}: need >= 5 distinct seeds, got {seeds}")
        for m in END_TO_END:
            row = wl.get("end_to_end", {}).get(m)
            if row is None:
                out.append(f"{w}: no metric {m}")
                continue
            out += [f"{w}.{m}: no {k}" for k in SUMMARY
                    if not isinstance(row.get(k), (int, float))]
            if row.get("pairs") != len(seeds):
                out.append(f"{w}.{m}: pairs != number of seeds")
            for side in ("baseline", "change"):
                runs = wl.get(side, {}).get("runs", {}).get(m, [])
                if len(runs) != len(seeds):
                    out.append(f"{w}.{m}: {side} has {len(runs)} runs")
        for side in ("baseline", "change"):
            counts = wl.get(side, {})
            for key in ("attempted", "failed"):
                if len(counts.get(key, [])) != len(seeds):
                    out.append(f"{w}: {side} {key} per run missing")
            traced = wl.get("trace", {}).get(side, {})
            for key in ("attempted", "failed"):
                if not isinstance(traced.get(key), int):
                    out.append(f"{w}: traced {side} lacks {key}")
            metrics = traced.get("metrics", {})
            calls = [k for k in metrics if k.endswith(".calls")]
            if not calls:
                out.append(f"{w}: traced {side} has no .calls")
            out += [f"{w}: traced {side} lacks {k[:-6]}.self_s"
                    for k in calls if k[:-6] + ".self_s" not in metrics]
    return out


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_is_complete(path):
    with open(path) as f:
        rec = json.load(f)
    assert problems(rec) == []


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_a_missing_metric_is_caught(path):
    with open(path) as f:
        rec = json.load(f)
    for w in WORKLOADS:
        for m in END_TO_END:
            broken = copy.deepcopy(rec)
            del broken["workloads"][w]["end_to_end"][m]
            assert f"{w}: no metric {m}" in problems(broken)
        broken = copy.deepcopy(rec)
        del broken["workloads"][w]["trace"]["change"]["metrics"][
            "twist.stable_twist.self_s"]
        assert problems(broken) == [
            f"{w}: traced change lacks twist.stable_twist.self_s"]
