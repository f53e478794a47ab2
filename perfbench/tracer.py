"""Span tracing of quadtwist layers from outside the package.

`Tracer.install()` rebinds each traced public name, in every quadtwist module
namespace (or class) that binds it, to a wrapper that records a span;
`uninstall()` puts the original objects back.  Per name it keeps the call
count, the self time (span time minus the time of its child spans) and the
number of calls that raised.  Spans themselves are kept in memory, up to
MAX_SPANS, and written out by `write_spans()` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# The layer boundaries, as <module>.<public name> under quadtwist.
TARGETS = (
    "quadfield.is_squarefree",
    "quadfield.check_field",
    "quadfield.surd_compare",
    "quadfield.QuadElem.__mul__",
    "quadfield.fundamental_unit",
    "ideals.enumerate_canonical",
    "lattice2.gram_of_twist",
    "lattice2.lagrange_reduce",
    "lattice2.similarity_point",
    "twist.wr_twist",
    "twist.stable_twist",
    "twist.intersect_interval_lists",
    "twist.simplest_rational_in",
    "geodesic.sample_orbit",
    "geodesic.wr_intersection_classes",
    "applications.tau_min_search",
    "applications.form_minimum",
    "applications.min_abs_norm",
    "cli.build_parser",
    "cli.main",
)
MAX_SPANS = 200_000


def _resolve(target: str):
    """(owner, original object) of a target; the owner is a module or class."""
    module_name, _, qualname = target.partition(".")
    owner = sys.modules[f"quadtwist.{module_name}"]
    *classes, attr = qualname.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = vars(owner)[attr]
    return owner, original


def _namespaces(owner):
    """Where to rebind: every quadtwist module for a function, the owning
    class for a method."""
    mods = [m for name, m in sys.modules.items()
            if name == "quadtwist" or name.startswith("quadtwist.")]
    return mods if isinstance(owner, type(sys)) else [owner]


class Tracer:
    def __init__(self):
        self.targets = TARGETS
        n = len(self.targets)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.stable_witnesses = 0
        self.paused = False
        self.op = -1  # index of the benchmark op the spans belong to
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._next_id = 0
        # span columns: id, name index, parent id, op, start, end
        self._spans = (array("q"), array("H"), array("q"), array("q"),
                       array("d"), array("d"))
        self._saved: list[tuple[object, str, object]] = []

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for idx, target in enumerate(self.targets):
            owner, original = _resolve(target)
            wrapper = self._wrap(idx, original)
            for ns in _namespaces(owner):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._saved.append((ns, key, original))

    def uninstall(self) -> None:
        while self._saved:
            ns, key, original = self._saved.pop()
            setattr(ns, key, original)

    def _wrap(self, idx: int, fn):
        tracer = self
        counts_witness = self.targets[idx] == "twist.stable_twist"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[idx] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.calls[idx] += 1
                tracer.self_s[idx] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                tracer._record(sid, idx, parent, start, end)
            if counts_witness and result.witness_t is not None:
                tracer.stable_witnesses += 1
            return result

        return span

    # -- spans -------------------------------------------------------------

    def _record(self, sid, idx, parent, start, end) -> None:
        cols = self._spans
        if len(cols[0]) < MAX_SPANS:
            for col, value in zip(cols, (sid, idx, parent, self.op, start, end)):
                col.append(value)

    @property
    def spans_total(self) -> int:
        return self._next_id

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines, returning how many: a header
        naming the columns and targets, then one array per span."""
        with open(path, "w") as f:
            f.write(json.dumps({
                "columns": ["id", "name", "parent", "op", "start", "end"],
                "names": self.targets, "spans_total": self.spans_total,
            }) + "\n")
            for row in zip(*self._spans):
                f.write(json.dumps(row) + "\n")
        return len(self._spans[0])

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for idx, target in enumerate(self.targets):
            out[f"{target}.calls"] = (self.calls[idx], "count")
            out[f"{target}.self_s"] = (self.self_s[idx], "s")
        stable = self.calls[self.targets.index("twist.stable_twist")]
        out["twist.stable_twist.witness_ratio"] = (
            self.stable_witnesses / stable if stable else 0.0, "ratio")
        out["geodesic.sample_orbit.errors"] = (
            self.errors[self.targets.index("geodesic.sample_orbit")], "count")
        return out
