"""Traced mode: spans around the library's public functions, per layer.

`install` wraps every function of FUNCTIONS and rebinds the wrapper in
each module that imported the function (for example `solve_shifted` in
`iterations`, `flows` and `regularized`), and wraps
`HilbertVector.__post_init__` and `LinearMap.from_matrix` on their
classes.  A `Tracer` keeps the spans of one operation in memory as
(name, start, end, parent) with per-name counts and self times; a span's
self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, namedtuple
from time import perf_counter

# (module, function, span name); one span name may cover several functions
FUNCTIONS = (
    ("monoreg.core", "solve_shifted", "core.solve_shifted"),
    ("monoreg.bench", "hammerstein_apply", "bench.apply"),
    ("monoreg.bench", "hammerstein_derivative", "bench.derivative"),
    ("monoreg.regularized", "solve_regularized", "regularized.solve"),
    ("monoreg.discrepancy", "solve_dp", "discrepancy.solve_dp"),
    ("monoreg.iterations", "iter_newton", "iterations"),
    ("monoreg.flows", "flow_newton", "flows"),
    ("monoreg.flows", "flow_gradient", "flows"),
    ("monoreg.flows", "flow_simple", "flows"),
    ("monoreg.flows", "init_u0", "flows.init_u0"),
    ("monoreg.inequalities", "bound_continuous", "inequalities.bound_continuous"),
    ("monoreg.inequalities", "bound_discrete", "inequalities.bound_discrete"),
    ("monoreg.inequalities", "evolution_norm_bound", "inequalities.evolution"),
    ("monoreg.inequalities", "precondition_margins", "inequalities.precondition"),
    ("monoreg.inequalities", "discrete_precondition_margins",
     "inequalities.precondition"),
    ("monoreg.schedules", "find_continuous", "schedules.search"),
    ("monoreg.schedules", "validate_conditions", "schedules.validate"),
)

# Per-layer metrics, each per operation.  "<span>.count" and
# "<span>.self_ms" come from the spans; the other names are counters.
PER_LAYER = (
    ("core.vector.count", "count"),
    ("core.vector.self_ms", "ms"),
    ("core.solve_shifted.count", "count"),
    ("core.solve_shifted.cg_count", "count"),
    ("core.solve_shifted.self_ms", "ms"),
    ("core.from_matrix.self_ms", "ms"),
    ("bench.apply.count", "count"),
    ("bench.apply.self_ms", "ms"),
    ("bench.derivative.count", "count"),
    ("bench.derivative.self_ms", "ms"),
    ("regularized.solve.count", "count"),
    ("regularized.solve.self_ms", "ms"),
    ("regularized.inner_iterations", "count"),
    ("discrepancy.solve_dp.self_ms", "ms"),
    ("discrepancy.bracket_evals", "count"),
    ("iterations.steps", "count"),
    ("iterations.self_ms", "ms"),
    ("flows.steps", "count"),
    ("flows.apply_per_step", "apply/step"),
    ("flows.self_ms", "ms"),
    ("flows.init_u0.self_ms", "ms"),
    ("inequalities.bound_continuous.self_ms", "ms"),
    ("inequalities.bound_discrete.self_ms", "ms"),
    ("inequalities.evolution.self_ms", "ms"),
    ("inequalities.precondition.self_ms", "ms"),
    ("schedules.search.self_ms", "ms"),
    ("schedules.validate.count", "count"),
    ("trace.overhead_ms", "ms"),
)


# What the tracer recorded for one operation that started at `start`.
OpTrace = namedtuple("OpTrace", "start spans counts self_s counters")


class Tracer:
    """Spans, counts and self times of the operation in progress."""

    def __init__(self):
        self.begin()

    def begin(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self._stack = []  # [span index, time covered by children]
        self._open = Counter()

    def wrap(self, name, fn, on_call=None, on_result=None):
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1][0] if self._stack else None]
            self.spans.append(span)
            frame = [index, 0.0]
            self._stack.append(frame)
            self._open[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                duration = end - span[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.counts[name] += 1
                self.self_s[name] += duration - frame[1]
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, start) -> OpTrace:
        return OpTrace(start, self.spans, self.counts, self.self_s,
                       self.counters)


def _count_cg(tracer, args):
    if args[0].dimension > sys.modules["monoreg.core"].DENSE_LIMIT:
        tracer.counters["core.solve_shifted.cg_count"] += 1


def _count_flow_apply(tracer, args):
    if tracer._open["flows"]:
        tracer.counters["flows.apply_calls"] += 1


def _counter(key, attr):
    def on_result(tracer, result):
        tracer.counters[key] += getattr(result, attr)
    return on_result


HOOKS = {
    "core.solve_shifted": (_count_cg, None),
    "bench.apply": (_count_flow_apply, None),
    "regularized.solve": (None, _counter("regularized.inner_iterations",
                                         "inner_iterations")),
    "discrepancy.solve_dp": (None, _counter("discrepancy.bracket_evals",
                                            "bracket_evals")),
    "iterations": (None, _counter("iterations.steps", "steps_taken")),
    "flows": (None, _counter("flows.steps", "steps_taken")),
}


def install(tracer: Tracer, namespaces=()) -> None:
    """Wrap the traced functions in every monoreg module and in the given
    extra namespaces (modules that imported them by name)."""
    from monoreg.core import HilbertVector, LinearMap

    targets = [m for n, m in sorted(sys.modules.items())
               if n == "monoreg" or n.startswith("monoreg.")]
    targets += list(namespaces)
    for module, attr, name in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        traced = tracer.wrap(name, original, *HOOKS.get(name, (None, None)))
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, traced)
    HilbertVector.__post_init__ = tracer.wrap("core.vector",
                                              HilbertVector.__post_init__)
    LinearMap.from_matrix = staticmethod(
        tracer.wrap("core.from_matrix", LinearMap.from_matrix))


def layer_metrics(traces: list, overhead_ms: float) -> dict:
    """Per-operation means over the OpTraces of the kept repeats."""
    counts, self_s, counters = Counter(), Counter(), Counter()
    for trace in traces:
        counts.update(trace.counts)
        self_s.update(trace.self_s)
        counters.update(trace.counters)
    n = len(traces)
    out = {}
    for name, unit in PER_LAYER:
        if name.endswith(".count"):
            value = counts[name[:-len(".count")]] / n
        elif name.endswith(".self_ms"):
            value = 1e3 * self_s[name[:-len(".self_ms")]] / n
        else:
            value = counters[name] / n
        out[name] = {"value": value, "unit": unit}
    steps = counters["flows.steps"]
    out["flows.apply_per_step"]["value"] = (
        counters["flows.apply_calls"] / steps if steps else 0.0)
    out["trace.overhead_ms"]["value"] = overhead_ms
    return out


def write_spans(path, named_traces) -> None:
    """One JSON line per span of each (input name, OpTrace); times are ms
    from the start of that operation."""
    with open(path, "w") as fh:
        for op, (input_name, trace) in enumerate(named_traces):
            t0 = trace.start
            for index, (name, start, end, parent) in enumerate(trace.spans):
                fh.write(json.dumps({
                    "op": op, "input": input_name, "span": index,
                    "name": name, "parent": parent,
                    "start_ms": 1e3 * (start - t0), "end_ms": 1e3 * (end - t0),
                }) + "\n")
