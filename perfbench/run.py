"""quadtwist benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload survey|query|orbit --seed N \
        --seconds S --trace 0|1

One client sends the next op when the previous one has returned.  A run is
a fixed list of ops made from the seed and sized to take about S seconds at
the reference speed (workloads.setup), so the same seed always runs the same
ops and counts the same failures.  Every op output is checked (see
workloads.py); an exception or a check mismatch is a failed op.  The last
stdout line is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it print the same metrics, and their wall-clock
values, for people.

Times are given at the reference speed.  The shared host's CPU changes speed
under a run (by up to ~1.7x within minutes), so between ops the run times a
fixed piece of pure-Python work, the speed burst, and scales each op time
by CAL_REF_S / (median time of the bursts around it): what the op would
have taken at the reference speed, at which a burst takes CAL_REF_S.

--trace 0  measures the end-to-end metrics:
  setup_s         median over SETUP_SAMPLES set-ups (fresh interpreters):
                  import of quadtwist, input generation, one warm-up op
  ops_per_s       units of work of ops that passed their check, per second
                  of op time (survey: output rows, i.e. ideals decided)
  latency_p50_ms, latency_tail_ms
                  per op, over ops that returned; the tail is the highest
                  percentile of TAIL_PERCENTILES with >= 10 samples beyond it
  peak_rss_mb     peak resident set of this process
  error_rate = failed / attempted is printed; the JSON carries both counts.
--trace 1  runs the ops of a run of TRACE_SHARE * S seconds with every layer
  boundary wrapped in a span, then the same ops untraced, and reports
  per-layer calls and self time (wall clock) plus the tracing overhead.
  Spans go to .bench_trace/ at the root.

`correct` is false when an op fails in a way it did not fail at the
reference commit, whose outputs reference/ holds (see NOTES.md); failures
that commit already had (the orbit sampler defects) count in `failed` but
leave `correct` true.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

SETUP_SAMPLES = 5
TAIL_PERCENTILES = (99.0, 90.0)
# the traced run's ops are those of a run this share of --seconds long;
# traced and untraced pass together take about --seconds
TRACE_SHARE = 0.4

# speed bursts: time of one at the reference speed, op time between two,
# and how many on each side of an op give its speed
CAL_REF_S = 0.001
CAL_INTERVAL_S = 0.05
CAL_WINDOW = 5
SETUP_BURSTS = 9


def _burst_work() -> int:
    x = Fraction(1, 3)
    seen = {}
    for i in range(2, 122):
        x = (x * Fraction(7, 5) + Fraction(1, i)) % 5
        seen[i % 17] = x.numerator % 97
    return len(seen)


def speed_burst() -> float:
    """Seconds a fixed piece of pure-Python work takes, of the kinds the
    program does most: Fraction arithmetic, small-integer gcds, dict stores.
    It runs once untimed first, so that what the last op left in the caches
    does not count."""
    _burst_work()
    start = perf_counter()
    _burst_work()
    return perf_counter() - start


def setup_speed() -> float:
    """Reference-speed scale of this process right now."""
    return CAL_REF_S / statistics.median(speed_burst() for _ in range(SETUP_BURSTS))


def import_workloads():
    """Import quadtwist from this checkout's src/ and the workload module."""
    package = os.path.join(SRC, "quadtwist")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no quadtwist package under {SRC}")
    sys.path.insert(0, SRC)
    import quadtwist
    if os.path.dirname(os.path.abspath(quadtwist.__file__)) != package:
        raise SystemExit(f"perfbench: imported quadtwist from {quadtwist.__file__}")
    import workloads
    return workloads


def timed_setup(workload: str, seed: int, seconds: float):
    """Set up a run in this process; returns (ops, wall seconds taken)."""
    start = perf_counter()
    wl = import_workloads()
    ops = wl.setup(workload, seed, seconds)
    return ops, perf_counter() - start


def setup_samples(workload: str, seed: int, seconds: float, n: int) -> list[tuple]:
    """(wall seconds, speed scale) of n set-ups in fresh interpreters, one
    after the other."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, probe, workload, str(seed), str(seconds)],
                              capture_output=True, text=True, timeout=120, check=True)
        wall, scale = proc.stdout.split()[-2:]
        out.append((float(wall), float(scale)))
    return out


class Tally:
    """Outcomes of a loop of ops: per op its wall time, the speed bursts
    taken before it, whether it returned and the units it passed."""

    def __init__(self):
        self.wall_s = array("d")
        self.bursts_before = array("q")
        self.returned = bytearray()
        self.units = array("q")
        self.bursts = array("d")  # speed burst seconds, in order
        self.failures = Counter()  # failed ops by kind
        self.new_failures = []  # "label: kind", failures new since the reference commit

    def add(self, op, seconds: float, returned: bool, kind, units: int) -> None:
        self.wall_s.append(seconds)
        self.bursts_before.append(len(self.bursts))
        self.returned.append(returned)
        self.units.append(units)
        if kind is not None:
            self.failures[kind] += 1
            if kind != op.known:
                self.new_failures.append(f"{op.label}: {kind}")

    @property
    def attempted(self) -> int:
        return len(self.wall_s)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def scales(self) -> list[float]:
        """Per op, CAL_REF_S / median of the CAL_WINDOW bursts on each side
        of it."""
        local = {}
        for b in set(self.bursts_before):
            window = self.bursts[max(0, b - CAL_WINDOW):b + CAL_WINDOW]
            local[b] = CAL_REF_S / statistics.median(window)
        return [local[b] for b in self.bursts_before]

    def ops_per_s(self, scales) -> float:
        return sum(self.units) / sum(t * k for t, k in zip(self.wall_s, scales))

    def latencies_ms(self, scales) -> list[float]:
        """Sorted scaled times of the ops that returned."""
        return sorted(t * k * 1000 for t, k, r in
                      zip(self.wall_s, scales, self.returned) if r)


def run_ops(ops, *, tracer=None, calibrate=False) -> Tally:
    """Closed loop over ops, once each, in order.  Checks run outside the
    op time and, when tracing, with the tracer paused.  With `calibrate` a
    speed burst runs first, after every CAL_INTERVAL_S of op time and last."""
    tally = Tally()
    if calibrate:
        tally.bursts.append(speed_burst())
    since_burst = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            result = op.call()
            returned, kind = True, None
        except Exception as exc:  # the op failed; count it by type and go on
            returned, kind = False, type(exc).__name__
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.paused = True
        if returned:
            kind = op.check(result)
        units = op.units(result) if kind is None else 0
        if tracer is not None:
            tracer.paused = False
        tally.add(op, elapsed, returned, kind, units)
        since_burst += elapsed
        if calibrate and (since_burst >= CAL_INTERVAL_S or i == len(ops) - 1):
            tally.bursts.append(speed_burst())
            since_burst = 0.0
    return tally


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile of TAIL_PERCENTILES with >= 10 samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50.0


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    ops, own_setup = timed_setup(workload, seed, seconds)
    setups = [(own_setup, setup_speed())]
    setups += setup_samples(workload, seed, seconds, SETUP_SAMPLES - 1)
    t = run_ops(ops, calibrate=True)
    scales = t.scales()
    lat = t.latencies_ms(scales)
    wall_lat = t.latencies_ms([1.0] * t.attempted)
    tail = tail_percentile(len(lat))
    metrics = {
        "setup_s": (statistics.median(s * k for s, k in setups), "s"),
        "ops_per_s": (t.ops_per_s(scales), "1/s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_tail_ms": (percentile(lat, tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {workload}, seed {seed}: {t.attempted} ops in "
          f"{sum(t.wall_s):.3f} s of op time, {sum(t.units)} units passed")
    print(f"speed vs reference over {len(t.bursts)} bursts: median "
          f"{statistics.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}")
    print(f"wall clock: setup_s {statistics.median(s for s, _ in setups):.6g}, "
          f"ops_per_s {t.ops_per_s([1.0] * t.attempted):.6g}, "
          f"latency_p50_ms {percentile(wall_lat, 50):.6g}, "
          f"latency_tail_ms {percentile(wall_lat, tail):.6g}")
    print(f"latency_tail_ms is p{tail:g} over {len(lat)} samples "
          f"({len(lat) - math.ceil(tail / 100 * len(lat))} beyond it)")
    print(f"error_rate {t.failed / t.attempted:.6f} ratio "
          f"({t.failed} of {t.attempted} ops failed)")
    return metrics, t


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    from tracer import Tracer

    ops, _ = timed_setup(workload, seed, TRACE_SHARE * seconds)
    tracer = Tracer()
    tracer.install()
    try:
        t = run_ops(ops, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced = run_ops(ops)
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.jsonl")
    kept = tracer.write_spans(path)
    metrics = tracer.metrics()
    wall = [1.0] * t.attempted
    metrics["trace.ops_per_s"] = (t.ops_per_s(wall), "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced.ops_per_s(wall), "1/s")
    metrics["trace.overhead"] = (sum(t.wall_s) / sum(untraced.wall_s) - 1, "ratio")
    print(f"workload {workload}, seed {seed}: {len(ops)} ops traced, "
          f"{tracer.spans_total} spans, {kept} written to {path}")
    print(f"tracing overhead: {metrics['trace.ops_per_s'][0]:.4f} traced vs "
          f"{metrics['trace.untraced_ops_per_s'][0]:.4f} untraced ops_per_s")
    return metrics, t


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("survey", "query", "orbit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    run = traced if args.trace else end_to_end
    metrics, t = run(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if t.failures:
        print("failures by kind: " + ", ".join(f"{k}={n}" for k, n in sorted(t.failures.items())))
    for line in t.new_failures[:10]:
        print(f"failure the reference commit did not have: {line}")
    print(json.dumps({
        "correct": not t.new_failures,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
