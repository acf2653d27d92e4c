"""Whole programs, original and debloated, checked against V8.

Replay runs the interpreter that traced, so an interpreter bug shows on
both sides of ``behavioral_ok`` and cancels out. This test runs every
workload of a corpus on the original and on the debloated module twice:
through ``run_workload``, and under ``node`` (V8) in one process. It
compares, per invocation, the results (i64 through BigInt), whether it
trapped, and the host calls with their arguments; per run, whether
instantiation failed to link or trapped, the host calls the start
function made, and the final memory (its size and SHA-256; the test
exports the memory as ``__mem`` to read it).

The corpus is ``fixturelib.PAIRS`` and ``generate_pair`` seeds 0-499,
with and without ``trap_free``, with and without ``control_flow``: the
second mode reaches every branch exit of the interpreter. A second test
runs ``fixturelib.straight_line_module``'s lines, which the interpreter
cuts into runs, the same way, and a third the real cjs-module-lexer of
``test_real_binaries`` on its workload.

V8 has no fuel and another stack limit. An invocation that ends here
with ``fuel-exhausted`` or ``stack-exhausted`` is excluded, and so is
everything after it in that run, the final memory included.

NaN bits. WebAssembly lets an arithmetic operator return any NaN, and V8
on x86 returns another one than the canonical NaN this interpreter
writes. A float result crosses into JavaScript as a Number, which keeps
no NaN bits, so two float results agree when both are NaNs. An integer
result or host argument that differs agrees only when both read as NaNs
of their width (an ``iN.reinterpret_fN`` of two NaNs); each such
difference is counted, and the count is pinned. Memory must match byte
for byte. The ``control_flow`` mode lets no NaN's bits escape. The test
is skipped when ``node`` is not installed.
"""

import base64
import hashlib
import json
import shutil
import subprocess
import time
from dataclasses import replace

import pytest

import fixturelib as fx
import modulegen
from test_real_binaries import LEXER_WORKLOAD, read
from wasmdebloat import debloat_module, decode, encode
from wasmdebloat.documents import workload_from_document
from wasmdebloat.interp import LinkFailure, Results, run_workload
from wasmdebloat.module import Export

NODE = shutil.which("node")
pytestmark = pytest.mark.skipif(NODE is None, reason="node (V8) is not installed")

HARNESS = r"""
const fs = require("fs");
const crypto = require("crypto");
const runs = JSON.parse(fs.readFileSync(process.argv[2], "utf8"));
const view = new DataView(new ArrayBuffer(8));
const ABORT = new Error("env.abort");

function toJs(t, bits) {
  if (t === "i64") return BigInt(bits);
  if (t === "i32") return Number(bits);
  if (t === "f32") { view.setUint32(0, Number(bits)); return view.getFloat32(0); }
  view.setBigUint64(0, BigInt(bits)); return view.getFloat64(0);
}

function fromJs(t, v) {
  if (t === "i64") return BigInt.asUintN(64, v).toString();
  if (t === "i32") return String(v >>> 0);
  if (Number.isNaN(v)) return "nan";
  if (t === "f32") { view.setFloat32(0, v); return String(view.getUint32(0)); }
  view.setFloat64(0, v); return view.getBigUint64(0).toString();
}

function failure(e) {
  if (e === ABORT || e instanceof WebAssembly.RuntimeError) return "trap";
  if (e instanceof RangeError) return "trap";  // the stack overflowed
  if (e instanceof WebAssembly.LinkError || e instanceof TypeError) return "link";
  throw e;
}

function run({ wasm, invocations }) {
  let calls = [];
  const env = {
    log: (x) => { calls.push(["env.log", [String(x >>> 0)]]); },
    log64: (x) => { calls.push(["env.log64", [BigInt.asUintN(64, x).toString()]]); },
    abort: () => { calls.push(["env.abort", []]); throw ABORT; },
  };
  let inst;
  try {
    inst = new WebAssembly.Instance(new WebAssembly.Module(Buffer.from(wasm, "base64")), { env });
  } catch (e) {
    return { init: failure(e), init_calls: calls };
  }
  const init_calls = calls;
  const records = invocations.map(([name, args, results]) => {
    calls = [];
    let outcome;
    try {
      const r = inst.exports[name](...args.map(([t, bits]) => toJs(t, bits)));
      outcome = ["ok", results.map((t) => fromJs(t, r))];
    } catch (e) {
      outcome = [failure(e)];
    }
    return [outcome, calls];
  });
  const mem = inst.exports.__mem;
  const digest = (buf) => crypto.createHash("sha256").update(new Uint8Array(buf)).digest("hex");
  const memory = mem ? [mem.buffer.byteLength, digest(mem.buffer)] : null;
  return { init: null, init_calls, records, memory };
}

process.stdout.write(JSON.stringify(runs.map(run)));
"""

# how our run ends an invocation that V8 cannot end the same way
EXCLUDED = ("fuel-exhausted", "stack-exhausted")


def _is_nan(width, bits):
    """Whether ``bits`` read as a float of ``width`` bits is a NaN."""
    if width == 32:
        return bits & 0x7F800000 == 0x7F800000 and bits & 0x7FFFFF != 0
    return bits & 0x7FF0000000000000 == 0x7FF0000000000000 and bits & 0xFFFFFFFFFFFFF != 0


def _value(v):
    """A value as the harness prints it: its bits, or "nan" for a float NaN."""
    if v.type in ("f32", "f64") and _is_nan(int(v.type[1:]), v.bits):
        return "nan"
    return str(v.bits)


def corpus():
    """(name, module bytes, workload) for every original module."""
    for name, m, w in fx.PAIRS:
        yield name, encode(m), w
    for control_flow in (False, True):
        for trap_free in (False, True):
            for seed in range(500):
                m, w = modulegen.generate_pair(seed, trap_free=trap_free, control_flow=control_flow)
                yield f"seed {seed} trap_free={trap_free} control_flow={control_flow}", encode(m), w


def for_v8(data, w):
    """The run as the harness reads it: the module with its memory
    exported as ``__mem``, and each invocation's export, raw arguments
    and result types."""
    m = decode(data)
    if m.num_memories:
        m = replace(m, exports=m.exports + (Export("__mem", "memory", 0),))
        data = encode(m)
    func_exports = {e.name: e.index for e in m.exports if e.kind == "func"}
    invocations = [
        (
            inv.func,
            [(v.type, str(v.bits)) for v in inv.args],
            list(m.func_type_of(func_exports[inv.func]).results),
        )
        for inv in w.invocations
    ]
    return {"wasm": base64.b64encode(data).decode(), "invocations": invocations}


class Tally:
    """What the comparison found over all runs: the mismatches, the NaN
    differences it accepted, and the counts the test pins."""

    def __init__(self):
        self.mismatches = []
        self.nan_accepted = []
        self.excluded = 0
        self.compared = 0
        self.init_traps = 0
        self.link_failures = 0

    def values(self, where, ours, theirs):
        """Compare our ``Value``s with the values the harness printed."""
        printed = list(map(_value, ours))
        if len(printed) != len(theirs):
            self.mismatches.append(f"{where}: ours {printed}, V8 {theirs}")
            return
        for v, a, b in zip(ours, printed, theirs):
            if a == b:
                continue
            width = int(v.type[1:])
            integer = v.type in ("i32", "i64") and "nan" not in (a, b)
            if integer and _is_nan(width, int(a)) and _is_nan(width, int(b)):
                self.nan_accepted.append(f"{where}: ours {a}, V8 {b}")
                continue
            self.mismatches.append(f"{where}: ours {a}, V8 {b} ({v.type})")

    def host_calls(self, where, ours, theirs):
        if [c.name for c in ours] != [c[0] for c in theirs]:
            self.mismatches.append(f"{where} host calls: ours {ours}, V8 {theirs}")
            return
        for i, (c, (_, args)) in enumerate(zip(ours, theirs)):
            self.values(f"{where} host call {i}", c.args, args)

    def run(self, name, log, theirs):
        """Compare one run: our observation log against V8's."""
        failure = log.instantiation_error
        linked = not isinstance(failure, LinkFailure)
        if failure is not None and linked and failure.kind in EXCLUDED:
            self.excluded += 1
            return
        ours_init = None if failure is None else "trap" if linked else "link"
        if ours_init != theirs["init"]:
            self.mismatches.append(f"{name}: instantiation ours {failure}, V8 {theirs['init']}")
            return
        self.init_traps += ours_init == "trap"
        self.link_failures += ours_init == "link"
        self.host_calls(f"{name} start", log.instantiation_host_calls, theirs["init_calls"])
        if failure is not None:
            return
        for i, (record, (outcome, calls)) in enumerate(zip(log.records, theirs["records"])):
            where = f"{name} invocation {i} {record.invocation.func}"
            if not isinstance(record.outcome, Results):
                if record.outcome.kind in EXCLUDED:
                    self.excluded += 1
                    return
                if outcome != ["trap"]:
                    self.mismatches.append(f"{where}: ours {record.outcome}, V8 {outcome}")
            elif outcome[0] != "ok":
                self.mismatches.append(f"{where}: ours {record.outcome}, V8 {outcome}")
            else:
                self.values(where, record.outcome.values, outcome[1])
            self.host_calls(where, record.host_calls, calls)
            self.compared += 1
        memory = log.final_memory
        ours_memory = None if memory is None else [len(memory), hashlib.sha256(memory).hexdigest()]
        if ours_memory != theirs["memory"]:
            theirs_memory = theirs["memory"]
            self.mismatches.append(f"{name}: final memory ours {ours_memory}, V8 {theirs_memory}")


def compare_with_v8(tmp_path, runs, logs):
    """Run each (name, module bytes, workload) of ``runs`` under the
    harness, and compare V8's runs with ours, ``logs``."""
    (tmp_path / "runs.json").write_text(json.dumps([for_v8(data, w) for _, data, w in runs]))
    (tmp_path / "harness.js").write_text(HARNESS)
    done = subprocess.run(
        [NODE, str(tmp_path / "harness.js"), str(tmp_path / "runs.json")],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    tally = Tally()
    for (name, _, _), log, theirs in zip(runs, logs, json.loads(done.stdout)):
        tally.run(name, log, theirs)
    return tally


def test_whole_programs_original_and_debloated_agree_with_v8(tmp_path):
    start = time.perf_counter()
    runs, logs = [], []
    for name, data, w in corpus():
        out, _ = debloat_module(data, w)
        for side, module_bytes in (("original", data), ("debloated", out)):
            runs.append((f"{name} {side}", module_bytes, w))
            logs.append(run_workload(decode(module_bytes), w)[0])
    ours_s = time.perf_counter() - start
    tally = compare_with_v8(tmp_path, runs, logs)
    print(
        f"{len(runs)} runs, {tally.compared} invocations compared, {tally.excluded} excluded, "
        f"{tally.init_traps} instantiation traps, {tally.link_failures} link failures, "
        f"{len(tally.nan_accepted)} NaN differences accepted; ours {ours_s:.1f} s, "
        f"{time.perf_counter() - start:.1f} s in all"
    )
    print("\n".join(tally.nan_accepted + tally.mismatches[:40]))
    assert not tally.mismatches, f"{len(tally.mismatches)} mismatches, first: {tally.mismatches[0]}"
    # pinned, so that a run, an exclusion or an accepted difference that
    # comes or goes shows
    counts = (len(runs), tally.compared, tally.excluded, tally.init_traps, tally.link_failures)
    assert counts == (4060, 11650, 2, 104, 0)
    # fn0 returns an i64.reinterpret_f64 of an arithmetic NaN
    assert tally.nan_accepted == [
        f"seed 446 trap_free=False control_flow=False {side} invocation 0 fn0: "
        f"ours {0x7FF8000000000000}, V8 {0xFFF8000000000000}"
        for side in ("original", "debloated")
    ]


def test_long_straight_lines_agree_with_v8(tmp_path):
    # each line of fx.straight_line_module, original and debloated, with
    # an address that loads and one that traps
    w = fx.wl(fx.inv("f", fx.i32v(0)), fx.inv("f", fx.i32v(65533)))
    runs, logs = [], []
    for n in fx.STRAIGHT_LINES:
        data = encode(fx.straight_line_module(n)[0])
        out, _ = debloat_module(data, w)
        for side, module_bytes in (("original", data), ("debloated", out)):
            runs.append((f"line of {n} {side}", module_bytes, w))
            logs.append(run_workload(decode(module_bytes), w)[0])
    tally = compare_with_v8(tmp_path, runs, logs)
    assert not tally.mismatches, tally.mismatches
    counts = (len(runs), tally.compared, tally.excluded, tally.init_traps, tally.link_failures)
    assert counts == (8, 16, 0, 0, 0)
    assert not tally.nan_accepted


def test_the_real_lexer_original_and_debloated_agree_with_v8(tmp_path):
    data = read("cjs_lexer.wasm")
    w = workload_from_document(LEXER_WORKLOAD.read_text("utf-8"))
    out, report = debloat_module(data, w)
    assert report.validation.behavioral_ok
    runs = [("lexer original", data, w), ("lexer debloated", out, w)]
    logs = [run_workload(decode(module_bytes), w)[0] for _, module_bytes, _ in runs]
    tally = compare_with_v8(tmp_path, runs, logs)
    assert not tally.mismatches, tally.mismatches
    counts = (len(runs), tally.compared, tally.excluded, tally.init_traps, tally.link_failures)
    assert counts == (2, 10, 0, 0, 0)
    assert not tally.nan_accepted
