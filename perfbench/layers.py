"""Spans around the package's layer functions, and per-layer metrics.

The benchmark traces from outside the package: ``patched`` replaces each
public layer function in the namespace of the module that calls it
(``pipeline.decode``, ``shrink.section_sizes``, ``interp.invoke``, ...)
with a wrapper that records a span, then restores the originals. The
real ``debloat_module`` then runs unchanged, so the spans follow
whatever the pipeline actually calls. A function that a later version no
longer has, or no longer calls, simply records no span and its metrics
read 0.

A span is [name, start, end, parent index, op id, attrs]. A span's self
time is its duration minus its children's; each span's self time goes to
one layer bucket, so the buckets of an op add up to the op's duration.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); the span name's prefix is the layer
WRAPPED = (
    ("pipeline", "decode", "decode.decode"),
    ("pipeline", "validate_module", "validate.validate_module"),
    ("pipeline", "run_workload", "interp.run_workload"),
    ("pipeline", "consolidate", "plan.consolidate"),
    ("pipeline", "close_references", "plan.close_references"),
    ("pipeline", "apply_plan", "shrink.apply_plan"),
    ("pipeline", "encode", "encode.encode"),
    ("pipeline", "compare_logs", "pipeline.compare_logs"),
    ("pipeline", "shrink_stats", "shrink.shrink_stats"),
    ("pipeline", "build_report", "pipeline.build_report"),
    ("shrink", "decode", "decode.decode"),
    ("shrink", "section_sizes", "decode.section_sizes"),
    ("interp", "fnv1a_64", "interp.fnv1a_64"),
    ("interp", "invoke", "interp.invoke"),
)

# span name -> bucket; run_workload and invoke are resolved per op
BUCKET = {
    "decode.decode": "decode.s",
    "decode.section_sizes": "decode.s",
    "validate.validate_module": "validate.s",
    "interp.fnv1a_64": "interp.digest_s",
    "plan.consolidate": "plan.consolidate_s",
    "plan.close_references": "plan.close_s",
    "shrink.apply_plan": "shrink.apply_s",
    "shrink.shrink_stats": "shrink.stats_s",
    "encode.encode": "encode.s",
    "pipeline.compare_logs": "pipeline.compare_s",
    "pipeline.build_report": "pipeline.report_s",
    "documents.workload_from_document": "documents.parse_s",
    "documents.report_to_document": "documents.render_s",
    "pipeline.debloat_module": "pipeline.self_s",
    "op": "pipeline.self_s",
}
# the first run_workload of an op traces, the second replays
RUN_BUCKETS = ("interp.trace_s", "interp.replay_s")

# per-layer metrics: (name, unit, better), in report order
PER_LAYER = (
    ("decode.s", "s", "lower"),
    ("decode.calls", "count", "lower"),
    ("decode.mb_per_s", "MB/s", "higher"),
    ("validate.s", "s", "lower"),
    ("validate.calls", "count", "lower"),
    ("interp.trace_s", "s", "lower"),
    ("interp.replay_s", "s", "lower"),
    ("interp.instructions", "count", "lower"),
    ("interp.instr_per_s", "1/s", "higher"),
    ("interp.digest_s", "s", "lower"),
    ("interp.digest_calls", "count", "lower"),
    ("interp.invocations", "count", "lower"),
    ("interp.host_calls", "count", "lower"),
    ("plan.consolidate_s", "s", "lower"),
    ("plan.close_s", "s", "lower"),
    ("plan.kept_body", "count", "lower"),
    ("plan.stubbed", "count", "lower"),
    ("plan.removed", "count", "higher"),
    ("shrink.apply_s", "s", "lower"),
    ("shrink.stats_s", "s", "lower"),
    ("encode.s", "s", "lower"),
    ("encode.mb_per_s", "MB/s", "higher"),
    ("documents.parse_s", "s", "lower"),
    ("documents.render_s", "s", "lower"),
    ("pipeline.compare_s", "s", "lower"),
    ("pipeline.report_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.untraced_op_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# counts that must repeat exactly from op to op
EXACT = (
    "decode.calls",
    "validate.calls",
    "interp.instructions",
    "interp.digest_calls",
    "interp.invocations",
    "interp.host_calls",
    "plan.kept_body",
    "plan.stubbed",
    "plan.removed",
    "output.bytes",
)

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory spans of the traced ops of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, {}])
        self._open.append(index)
        return index

    def end(self, index: int) -> dict:
        self.spans[index][END] = perf_counter()
        self._open.pop()
        return self.spans[index][ATTRS]

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                attrs = self.end(index)
            if name == "decode.decode" and args:
                attrs["bytes"] = len(args[0])
            elif name == "encode.encode":
                attrs["bytes"] = len(result)
            return result

        return traced

    def wrap_invoke(self, fn, default_fuel):
        """``interp.invoke(inst, export_name, args=(), fuel=...)``: its
        instructions are the fuel given minus ``inst.fuel`` afterwards."""

        def traced(inst, *args, **kwargs):
            fuel = args[2] if len(args) > 2 else kwargs.get("fuel", default_fuel)
            log = getattr(inst, "host_log", None)
            mark = len(log) if log is not None else 0
            index = self.begin("interp.invoke")
            try:
                return fn(inst, *args, **kwargs)
            finally:
                attrs = self.end(index)
                left = getattr(inst, "fuel", None)
                if isinstance(fuel, int) and isinstance(left, int):
                    attrs["instructions"] = fuel - left
                if log is not None:
                    attrs["host_calls"] = len(log) - mark

        return traced

    def write(self, path) -> None:
        """One JSON list per line: name, start, end, parent, op, attrs."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


@contextmanager
def patched(tracer: Tracer, modules: dict):
    """Wrap every function of WRAPPED that the modules still have."""
    saved = []
    try:
        for mod_name, attr, span_name in WRAPPED:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            saved.append((mod, attr, fn))
            if span_name == "interp.invoke":
                wrapper = tracer.wrap_invoke(fn, getattr(mod, "DEFAULT_FUEL", None))
            else:
                wrapper = tracer.wrap(span_name, fn)
            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def op_metrics(spans: list[list], first: int) -> dict[str, float]:
    """Per-layer metrics of the op whose root span is ``spans[first]``."""
    op_id = spans[first][OP]
    idx = [i for i in range(first, len(spans)) if spans[i][OP] == op_id]
    dur = {i: spans[i][END] - spans[i][START] for i in idx}
    self_time = dict(dur)
    for i in idx:
        parent = spans[i][PARENT]
        if parent in self_time:
            self_time[parent] -= dur[i]

    out = {name: 0 if unit == "count" else 0.0 for name, unit, _ in PER_LAYER}
    bucket: dict[int, str] = {}
    runs = 0
    counts = {"decode.bytes": 0, "encode.bytes": 0, "decode.time": 0.0,
              "encode.time": 0.0, "invoke.time": 0.0}
    for i in idx:  # parents come before their children
        name, parent, attrs = spans[i][NAME], spans[i][PARENT], spans[i][ATTRS]
        if name == "interp.run_workload":
            bucket[i] = RUN_BUCKETS[min(runs, 1)]
            runs += 1
        elif name == "interp.invoke":
            bucket[i] = bucket.get(parent, "pipeline.self_s")
            out["interp.invocations"] += 1
            out["interp.instructions"] += attrs.get("instructions", 0)
            out["interp.host_calls"] += attrs.get("host_calls", 0)
            counts["invoke.time"] += dur[i]
        else:
            bucket[i] = BUCKET[name]
        out[bucket[i]] += self_time[i]
        if name == "decode.decode":
            out["decode.calls"] += 1
            counts["decode.bytes"] += attrs.get("bytes", 0)
            counts["decode.time"] += dur[i]
        elif name == "validate.validate_module":
            out["validate.calls"] += 1
        elif name == "interp.fnv1a_64":
            out["interp.digest_calls"] += 1
        elif name == "encode.encode":
            counts["encode.bytes"] += attrs.get("bytes", 0)
            counts["encode.time"] += dur[i]

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out["decode.mb_per_s"] = rate(counts["decode.bytes"] / 1e6, counts["decode.time"])
    out["encode.mb_per_s"] = rate(counts["encode.bytes"] / 1e6, counts["encode.time"])
    out["interp.instr_per_s"] = rate(out["interp.instructions"], counts["invoke.time"])
    out["trace.op_s"] = dur[first]
    return out
