"""Cross-check of the benchmark against the ROADMAP baseline (re-anchor 1):

    survey of every canonical ideal, squarefree D <= 200, a <= 50:
        0.5-0.66 ms per ideal (20,892 ideals)
    stable_twist(125173, 183, 182, 1): 3.4 ms
    wr_intersection_classes(O_K(139)): 225-370 ms

Each case runs untraced and then under the tracer; the traced pass prints
the layers with the most self time.  Results are recorded in NOTES.md.

    python3 perfbench/baseline.py
"""

import statistics
from time import perf_counter

from run import import_workloads

wl = import_workloads()
qt = wl.qt
from tracer import Tracer  # noqa: E402


def survey_all() -> int:
    rows = 0
    for D in wl.squarefree_range(2, wl.SURVEY_MAX_D + 1):
        rows += wl.run_cli(wl.survey_argv(D))[1].count("\n")
    return rows


CASES = (
    # name, call, repeats, whether to divide by the count the call returns
    ("survey D <= 200, a <= 50 (ms per ideal)", survey_all, 1, True),
    ("stable_twist(125173, 183, 182, 1) (ms)",
     lambda: qt.stable_twist(qt.validate_canonical(125173, 183, 182, 1)), 50, False),
    ("wr_intersection_classes(O_K(139)) (ms)",
     lambda: qt.wr_intersection_classes(qt.ring_of_integers(139)), 5, False),
)


def timed_ms(call, repeats, per_unit):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        units = call()
        ms = (perf_counter() - start) * 1000
        times.append(ms / units if per_unit else ms)
    return statistics.median(times)


def main():
    for name, call, repeats, per_unit in CASES:
        untraced = timed_ms(call, repeats, per_unit)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_ms(call, repeats, per_unit)
        finally:
            tracer.uninstall()
        print(f"{name}: {untraced:.4f} untraced, {traced:.4f} traced")
        top = sorted(zip(tracer.self_s, tracer.calls, tracer.targets), reverse=True)[:4]
        for self_s, calls, target in top:
            print(f"    {target}: {calls / repeats:.0f} calls, "
                  f"{self_s * 1000 / repeats:.2f} ms self per run")


if __name__ == "__main__":
    main()
