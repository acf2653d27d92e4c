"""Debloat benchmark for wasmdebloat.

    python3 perfbench/run.py --workload loop-heavy --seed 1 --seconds 30 --trace 0

One client runs debloat operations back to back (a closed loop) in this
process for ``--seconds``. A debloat operation is what ``wasm-debloat
debloat`` does without the disk I/O: ``workload_from_document`` on the
workload text, ``debloat_module`` on the module bytes, and
``report_to_document`` on the report. The inputs come from wasmgen.py,
seeded by ``--seed``; the package sees only the bytes and the text.

``--trace 0`` prints the end-to-end metrics. Each op is paired with the
same op run by ``wasmdebloat_reference``, a frozen copy of the package
that never changes, and ``debloat_rel`` is the median ratio of the two
times: that cancels the machine's changing speed, which raw wall times
do not. ``--trace 1`` alternates untraced and traced operations, prints
the per-layer metrics of layers.py and writes the spans to
``.perfbench_spans/`` in the checkout.
Either way the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

An operation fails if it raises, if its verdict is not fully_ok, if its
output differs from the first operation's, or if that output does not do
what wasmgen computed the workload must do (checked once per run, outside
the timed region).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import layers
import wasmgen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_spans"
REFERENCE = Path(__file__).resolve().parent / "wasmdebloat_reference"
REFERENCE_SHA256 = "b2359ac4d2a7d6d352978f3c5ede90a712ee6236facbce05d9830bf6def5ee94"

SETUP_RUNS = 11

END_TO_END = (
    ("debloat_rel", "ratio"),
    ("debloat_rel_tail", "ratio"),
    ("out_size_ratio", "ratio"),
    ("code_size_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports wasmdebloat,
    which every CLI call pays; the first, untimed, start writes the
    bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import wasmdebloat"]
    subprocess.run(cmd, env=env, check=True)
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def load_package() -> dict:
    sys.path.insert(0, str(SRC))
    names = ("documents", "pipeline", "shrink", "interp", "decode", "validate", "module")
    return {n: importlib.import_module(f"wasmdebloat.{n}") for n in names}


def load_reference() -> dict:
    """The frozen copy of the package that debloat_rel divides by."""
    digest = hashlib.sha256()
    for path in sorted(REFERENCE.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    if digest.hexdigest() != REFERENCE_SHA256:
        raise SystemExit(f"{REFERENCE} changed, so debloat_rel would not compare with earlier runs")
    names = ("documents", "pipeline")
    return {n: importlib.import_module(f"{REFERENCE.name}.{n}") for n in names}


def run_op(mods: dict, case: wasmgen.Case, tracer: layers.Tracer | None = None):
    """One debloat operation; returns (seconds, output bytes, report)."""
    documents, pipeline = mods["documents"], mods["pipeline"]
    if tracer is None:
        start = perf_counter()
        w = documents.workload_from_document(case.workload)
        out, report = pipeline.debloat_module(case.module, w)
        documents.report_to_document(report)
        return perf_counter() - start, out, report
    with layers.patched(tracer, mods):
        start = perf_counter()
        with tracer.span("op"):
            with tracer.span("documents.workload_from_document"):
                w = documents.workload_from_document(case.workload)
            with tracer.span("pipeline.debloat_module"):
                out, report = pipeline.debloat_module(case.module, w)
            with tracer.span("documents.report_to_document"):
                documents.report_to_document(report)
        return perf_counter() - start, out, report


def behaviour_errors(mods: dict, case: wasmgen.Case, module: bytes) -> list[str]:
    """Run ``module`` on the case's workload and compare with what
    wasmgen computed: results, host calls and final memory."""
    interp = mods["interp"]
    m = mods["decode"].decode(module)
    report = mods["validate"].validate_module(m)
    if not report.ok:
        return [f"invalid module: {report.errors[0]}"]
    calls = []

    def host_fn(name, params):
        def call(args):
            calls.append((name, tuple((v.type, v.bits) for v in args)))
            return ()

        return interp.HostFunc(mods["module"].FuncType(params, ()), call)

    host = {
        ("env", "log"): host_fn("env.log", ("i32",)),
        ("env", "log64"): host_fn("env.log64", ("i64",)),
    }
    inst = interp.instantiate(m, host, case.fuel)
    errors = []
    for i, (name, args) in enumerate(case.invocations):
        mark = len(calls)
        values = tuple(interp.Value(t, bits) for t, bits in args)
        outcome = interp.invoke(inst, name, values, case.fuel)
        if isinstance(outcome, interp.Results):
            got = tuple((v.type, v.bits) for v in outcome.values)
        else:
            got = repr(outcome)
        if got != case.results[i]:
            errors.append(f"invocation {i}: result {got}, expected {case.results[i]}")
        if tuple(calls[mark:]) != case.host_calls[i]:
            errors.append(
                f"invocation {i}: host calls {calls[mark:]}, expected {case.host_calls[i]}"
            )
        if len(errors) >= 5:
            return errors
    if case.memory is not None:
        mem = bytes(inst.mem) if inst.mem is not None else None
        if mem != case.memory:
            where = "size" if mem is None or len(mem) != len(case.memory) else next(
                i for i, (a, b) in enumerate(zip(mem, case.memory)) if a != b
            )
            errors.append(f"final memory differs at {where}")
    return errors


def tail(ordered: list[float]) -> tuple[float, float]:
    """The highest percentile of sorted values with at least ten values
    beyond it, and its value; with ten values or fewer, the maximum."""
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Run:
    """Counts and checks of one benchmark run."""

    def __init__(self, mods: dict, case: wasmgen.Case):
        self.mods = mods
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.first_output: bytes | None = None
        self.first_ok = False

    def warm_up(self) -> None:
        """An untimed op that lets lazy set-up finish; its output, checked
        against wasmgen's expectations, is what every later op must match."""
        try:
            _, out, report = run_op(self.mods, self.case)
            errors = behaviour_errors(self.mods, self.case, out)
        except Exception:
            traceback.print_exc()
            return
        if not report.validation.fully_ok:
            errors.append(f"verdict not fully_ok: {report.validation.mismatches[:3]}")
        for e in errors:
            print(f"CHECK FAILED: {e}", file=sys.stderr)
        self.first_output = out
        self.first_ok = not errors

    def op(self, tracer: layers.Tracer | None = None):
        """Time one op and check it; returns (seconds, output, report, ok),
        or None when it raised."""
        gc.collect()
        self.attempted += 1
        try:
            seconds, out, report = run_op(self.mods, self.case, tracer)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        ok = self.first_ok and report.validation.fully_ok and out == self.first_output
        self.failed += not ok
        return seconds, out, report, ok


def measure_end_to_end(run: Run, reference: dict, seconds: float) -> dict[str, float]:
    """Pairs of ops, one by the package and one by the reference copy,
    in alternating order; an op's relative time divides by its pair's."""
    times, rel = [], []
    out = None
    run_op(reference, run.case)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        if run.attempted % 2:
            gc.collect()
            reference_s = run_op(reference, run.case)[0]
            result = run.op()
        else:
            result = run.op()
            gc.collect()
            reference_s = run_op(reference, run.case)[0]
        if result is None:
            continue
        op_s, out, _, _ = result
        times.append(op_s)
        rel.append(op_s / reference_s)
    if not times:
        raise SystemExit("no operation completed")
    times.sort()
    rel.sort()
    percentile, tail_s = tail(times)
    _, tail_rel = tail(rel)
    print(f"debloat_s {statistics.median(times):.6g} s, its p{percentile:.1f} "
          f"{tail_s:.6g} s (wall time over {len(times)} ops; not gated, as it "
          f"moves with the load other processes put on the machine)")
    return {
        "debloat_rel": statistics.median(rel),
        "debloat_rel_tail": tail_rel,
        "out_size_ratio": len(out) / len(run.case.module),
        "code_size_ratio": wasmgen.code_section_size(out)
        / wasmgen.code_section_size(run.case.module),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }


def measure_layers(run: Run, seconds: float, workload: str, seed: int) -> dict[str, float]:
    tracer = layers.Tracer()
    plain, per_op = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        result = run.op()
        if result is not None:
            plain.append(result[0])
        first = len(tracer.spans)
        result = run.op(tracer)
        tracer.op += 1
        if result is None:
            continue
        _, out, report, ok = result
        row = layers.op_metrics(tracer.spans, first)
        row["plan.kept_body"] = report.stats.functions_kept_body
        row["plan.stubbed"] = report.stats.functions_stubbed
        row["plan.removed"] = report.stats.functions_removed
        row["output.bytes"] = len(out)
        row["ok"] = ok
        per_op.append(row)
    if not per_op:
        raise SystemExit("no traced operation completed")
    tracer.write(SPAN_DIR / f"{workload}-seed{seed}.jsonl.gz")

    for name in layers.EXACT:
        seen = sorted({row[name] for row in per_op})
        if len(seen) > 1:
            print(f"COUNT DRIFT: {name} took the values {seen}", file=sys.stderr)
            for row in per_op:
                if row["ok"] and row[name] != per_op[0][name]:
                    row["ok"] = False
                    run.failed += 1
    metrics = {
        name: statistics.median(row[name] for row in per_op)
        for name, _, _ in layers.PER_LAYER
    }
    metrics["trace.untraced_op_s"] = statistics.median(plain) if plain else 0.0
    metrics["trace.overhead_s"] = metrics["trace.op_s"] - metrics["trace.untraced_op_s"]
    print(f"{len(per_op)} traced and {len(plain)} untraced ops")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wasmgen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wasmdebloat" / "__init__.py").is_file():
        print(f"wasmdebloat sources not found under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup() if not args.trace else None
    mods = load_package()
    case = wasmgen.GENERATORS[args.workload](args.seed)
    run = Run(mods, case)
    run.warm_up()

    if args.trace:
        metrics = measure_layers(run, args.seconds, args.workload, args.seed)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        # before the reference copy is loaded or run, so it is the package's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = measure_end_to_end(run, load_reference(), args.seconds)
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["setup_s"] = setup_s
        units = dict(END_TO_END)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"fail_ratio {run.failed / run.attempted:.4g} "
          f"({run.failed} failed of {run.attempted} attempted)")
    for name, unit in units.items():
        share = ""
        if args.trace and unit == "s" and metrics["trace.op_s"] > 0:
            share = f"  {100 * metrics[name] / metrics['trace.op_s']:5.1f}% of the traced op"
        print(f"  {name:<22} {metrics[name]:<12.6g} {unit}{share}")
    ok = run.failed == 0 and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
