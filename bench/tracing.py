"""Per-layer tracing from outside the program.

Wraps the entry points of each qhaar module, from the benchmark's own files,
by rebinding every name in every loaded qhaar module (and every class
attribute) that refers to the original function.  A span records (name,
start, end, parent) in memory; a counter only counts calls.  Spans are
written out after the timed phase, and a layer's self time is its spans'
time minus the time of their child spans.  Untraced runs import nothing
from here and patch nothing.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (span name, module, attribute); a dotted attribute names a class method.
# The freeness entry points the workloads call directly (counterexample,
# crossing_pairing_present, infinitesimal_check, E and E') are spans too, so
# that the time spent inside them is charged to freeness, not to the benchmark.
SPANS = (
    ("opvalued.constrained_sum", "qhaar.opvalued", "constrained_sum"),
    ("opvalued.functional_e", "qhaar.opvalued", "functional_e"),
    ("opvalued.matmul", "qhaar.opvalued", "BMatrix.__matmul__"),
    ("opvalued.norm", "qhaar.opvalued", "CoefficientAlgebra.norm_float"),
    ("opvalued.norm", "qhaar.opvalued", "BMatrix.norm_float"),
    ("exactalg.invert", "qhaar.exactalg", "FieldMatrix.invert"),
    ("exactalg.interpolate", "qhaar.exactalg", "interpolate_rational"),
    ("exactalg.laurent", "qhaar.exactalg", "laurent_at_infinity"),
    ("partitions.enumerate_family", "qhaar.partitions", "enumerate_family"),
    ("weingarten.build_table", "qhaar.weingarten", "build_table"),
    ("weingarten.west_expansion", "qhaar.weingarten", "west_expansion"),
    ("freeness.lhs_exact", "qhaar.freeness", "lhs_exact"),
    ("freeness.limit_formula", "qhaar.freeness", "limit_formula"),
    ("freeness.word_build", "qhaar.freeness", "counterexample_word"),
    ("freeness.word_build", "qhaar.freeness", "Scenario.word_at"),
    ("freeness.word_build", "qhaar.freeness", "InfinitesimalPair.realize"),
    ("freeness.counterexample", "qhaar.freeness", "counterexample"),
    ("freeness.crossing_pairing_present", "qhaar.freeness", "crossing_pairing_present"),
    ("freeness.infinitesimal_check", "qhaar.freeness", "infinitesimal_check"),
    ("freeness.infinitesimal_pair", "qhaar.freeness", "InfinitesimalPair.e_value"),
    ("freeness.infinitesimal_pair", "qhaar.freeness", "InfinitesimalPair.e_prime"),
    ("cli.main", "qhaar.cli", "main"),
)

COUNTS = (
    ("exactalg.gauss_mul", "qhaar.exactalg", "GaussianRational.__mul__"),
    ("partitions.leq", "qhaar.partitions", "leq"),
    ("partitions.join_full", "qhaar.partitions", "join_full"),
    ("freeness.pair_weights", "qhaar.freeness", "_pair_weights"),
)

LAYERS = ("opvalued", "exactalg", "partitions", "weingarten", "freeness", "cli")
ROOT_SPAN = "bench.timed_phase"


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if metric.endswith((".calls", ".misses", ".total")):
        return "count"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, probe=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = probe() if probe is not None else 0
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                counts[name + ".misses"] += probe() - before
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, name: str, fn, on_result=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if on_result is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        return wrapper

    def _hooks(self, name: str) -> dict:
        counts = self.counts
        if name == "opvalued.constrained_sum":
            def nonzero(result):
                if result:
                    counts["opvalued.constrained_sum.nonzero"] += 1
            return {"on_result": nonzero}
        if name == "freeness.pair_weights":
            def pairs(result):
                counts["freeness.pairs.total"] += len(result)
            return {"on_result": pairs}
        if name == "weingarten.build_table":
            cache = importlib.import_module("qhaar.weingarten")._TABLE_CACHE
            return {"probe": lambda: len(cache)}
        if name == "freeness.lhs_exact":
            cache = importlib.import_module("qhaar.freeness")._WEIGHT_CACHE
            return {"probe": lambda: len(cache)}
        return {}

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        replace = {}
        for name, module, attr in SPANS:
            fn = _resolve(module, attr)
            replace[id(fn)] = (fn, self._span(name, fn, **self._hooks(name)))
        for name, module, attr in COUNTS:
            fn = _resolve(module, attr)
            replace[id(fn)] = (fn, self._count(name, fn, **self._hooks(name)))
        owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "qhaar"]
        owners += [v for m in list(owners) for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.split(".")[0] == "qhaar"]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def run_root(self, fn):
        """Run fn() as the root span; returns its result and duration."""
        if self.spans:
            raise RuntimeError("the root span must be the first span")
        result = self._span(ROOT_SPAN, fn)()
        _, start, end, _ = self.spans[0]
        return result, end - start

    # -- results -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    def metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        sums_in_lhs = 0
        for i, (name, start, end, parent) in enumerate(spans):
            self_time[name.split(".")[0]] += end - start - child[i]
            calls[name] += 1
            if name == "opvalued.constrained_sum" and parent >= 0 \
                    and spans[parent][0] == "freeness.lhs_exact":
                sums_in_lhs += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        c = self.counts
        out = {}

        def timed(name):
            out[name + ".calls"] = calls[name]
            out[name + ".s"] = inclusive[name]

        timed("opvalued.constrained_sum")
        out["opvalued.constrained_sum.nonzero_ratio"] = (
            c["opvalued.constrained_sum.nonzero"] / calls["opvalued.constrained_sum"]
            if calls["opvalued.constrained_sum"] else 0.0
        )
        for name in ("opvalued.functional_e", "opvalued.matmul", "opvalued.norm",
                     "exactalg.invert", "exactalg.interpolate", "exactalg.laurent",
                     "partitions.enumerate_family"):
            timed(name)
        out["exactalg.gauss_mul.calls"] = c["exactalg.gauss_mul"]
        out["partitions.leq.calls"] = c["partitions.leq"]
        out["partitions.join_full.calls"] = c["partitions.join_full"]
        timed("weingarten.build_table")
        out["weingarten.build_table.misses"] = c["weingarten.build_table.misses"]
        timed("weingarten.west_expansion")
        timed("freeness.lhs_exact")
        out["freeness.weight_cache.misses"] = c["freeness.lhs_exact.misses"]
        out["freeness.pairs.total"] = c["freeness.pairs.total"]
        out["freeness.pairs.nonzero_ratio"] = (
            sums_in_lhs / c["freeness.pairs.total"] if c["freeness.pairs.total"] else 0.0
        )
        timed("freeness.limit_formula")
        out["freeness.word_build.s"] = inclusive["freeness.word_build"]
        timed("cli.main")
        for layer in LAYERS:
            out[layer + ".self_s"] = self_time[layer]
        out["bench.self_s"] = self_time["bench"]
        out["trace.wall_s"] = inclusive[ROOT_SPAN]
        return out
