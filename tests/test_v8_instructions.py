"""Every numeric instruction, load and store, checked against V8.

Self-replay runs one interpreter twice, so an operator bug shows on both
sides and cancels out. This test builds one module with an export per
numeric opcode, per load and per store, runs each export on an edge grid
of operands under ``node`` (V8) and through ``instantiate``/``invoke``,
and compares the results.

Parameters and results are raw bits: float operands enter through
``fN.reinterpret_iN`` and float results leave through
``iN.reinterpret_fN``, so NaN payloads reach the operator. The rule is
the spec's (WebAssembly Core Specification 1.0, section 4.3.3): a float
result of an arithmetic operator may be any NaN when it is a NaN, so two
NaNs agree whatever their bits. Every other result, ``abs``, ``neg``,
``copysign``, the reinterprets and the loads included, must match bit for
bit, and a trap must be a trap on both sides. The test is skipped when
``node`` is not installed.
"""

import json
import shutil
import struct
import subprocess

import pytest

from fixturelib import ins
from wasmdebloat import decode, encode, validate_module
from wasmdebloat import opcodes as op
from wasmdebloat.interp import Results, Value, instantiate, invoke
from wasmdebloat.module import (
    DataSegment,
    Export,
    FuncType,
    Function,
    Limits,
    Module,
    PAGE_SIZE,
)

NODE = shutil.which("node")
pytestmark = pytest.mark.skipif(NODE is None, reason="node (V8) is not installed")

# the integer type that carries a value type's bits across the boundary
RAW = {"i32": "i32", "i64": "i64", "f32": "i32", "f64": "i64"}
# the float operators that only move bits: their results must match bit
# for bit even when they are NaNs
EXACT_FLOAT_OPS = ("abs", "neg", "copysign", "reinterpret")

HARNESS = r"""
const fs = require("fs");
const [wasmPath, callsPath] = process.argv.slice(2);
const { sigs, calls } = JSON.parse(fs.readFileSync(callsPath, "utf8"));
const inst = new WebAssembly.Instance(new WebAssembly.Module(fs.readFileSync(wasmPath)), {});
const out = calls.map(([name, args]) => {
  const [params, result] = sigs[name];
  try {
    const r = inst.exports[name](...args.map((a, i) => (params[i] === "i64" ? BigInt(a) : Number(a))));
    if (result === null) return "";
    return result === "i64" ? BigInt.asUintN(64, r).toString() : String(r >>> 0);
  } catch (e) {
    if (e instanceof WebAssembly.RuntimeError) return "trap";
    throw e;
  }
});
process.stdout.write(JSON.stringify(out));
"""


def _f32(x):
    return struct.unpack("<I", struct.pack("<f", x))[0]


def _f64(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


# 28 operands per type: zeros, ones, the width's extremes, shift counts
# around the width, NaNs with payloads, infinities, rounding ties and the
# boundaries of every truncation. i64 has four more, after the rest so the
# CONST_POSITIONS keep their operands: integers whose f32 conversion, if
# rounded to f64 first, lands on a tie and rounds the wrong way
FLOATS = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.5, 2.5, -2.5, float("inf"), float("-inf"))
GRID = {
    "i32": (
        0, 1, 2, 3, 5, 31, 32, 33, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF,
        0x10000, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF, 0xFFFFFFFE,
        0xFFFFFFE0, 0xFFFFFFDF, 0xFFFF8000, 0xFFFFFF80, 0x12345678, 0x9ABCDEF0,
        0x00F0F0F0, 0xDEADBEEF,
    ),
    "i64": (
        0, 1, 2, 3, 63, 64, 65, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x100000000,
        0x7FFFFFFFFFFFFFFF, 0x8000000000000000, 0x8000000000000001,
        0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFC0,
        0xFFFFFFFFFFFFFFBF, 0xFFFFFFFF80000000, 0xFFFFFFFF7FFFFFFF,
        0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x00000000DEADBEEF,
        0xDEADBEEF00000000, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA, 0xFF, 0x8000,
        0x0020000020000001, 0xFFDFFFFFDFFFFFFF, 0x8000008000000001,
        0xFFFFFF7FFFFFFFFF,
    ),
    "f32": tuple(map(_f32, FLOATS))
    + (
        0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7F800001, 0x00000001, 0x80000001,
        0x7F7FFFFF, 0x4F000000, 0x4EFFFFFF, 0xCF000000, 0xCF000001, 0x4F800000,
        0x5F000000, 0x5EFFFFFF, 0x5F800000, 0xBF7FFFFF, 0x3EFFFFFF,
    ),
    "f64": tuple(map(_f64, FLOATS))
    + (
        0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
        0x7FF0000000000001, 0x0000000000000001, 0x47EFFFFFE0000000,
        _f64(2.0**31 - 0.5), 0x41E0000000000000, _f64(-(2.0**31) - 1),
        _f64(2.0**32 - 0.5), 0x41F0000000000000, 0x43E0000000000000,
        0x43DFFFFFFFFFFFFF, 0x43F0000000000000, 0x43EFFFFFFFFFFFFF,
        0xBFEFFFFFFFFFFFFF, 0x3FDFFFFFFFFFFFFF,
    ),
}
# grid positions whose operands also become a binop's constant operand,
# which the interpreter fuses with the ops before it
CONST_POSITIONS = (3, 16, 20)

# the bytes at both ends of the one-page memory the loads read, and the
# values each store writes: full-width patterns, and NaNs with payloads
PATTERN = bytes.fromhex("807fff01fe00817ec33ca55af00f8877")
STORED = {
    "i32": (0x12345678, 0x9ABCDEF0),
    "i64": (0x0123456789ABCDEF, 0xFEDCBA9876543210),
    "f32": (0x7FC00001, 0xFF800001),
    "f64": (0x7FF8000000000001, 0xFFF0000000000001),
}


def _is_nan(t, bits):
    if t == "f32":
        return bits & 0x7F800000 == 0x7F800000 and bits & 0x7FFFFF != 0
    return bits & 0x7FF0000000000000 == 0x7FF0000000000000 and bits & 0xFFFFFFFFFFFFF != 0


def _body(params, push, result):
    """Read each raw parameter as its value type, run ``push``, and return
    the result's raw bits."""
    body = []
    for i, t in enumerate(params):
        body.append(ins("local.get", i))
        if t != RAW[t]:
            body.append(ins(f"{t}.reinterpret_{RAW[t]}"))
    body += push
    if result is not None and result != RAW[result]:
        body.append(ins(f"{RAW[result]}.reinterpret_{result}"))
    return tuple(body)


def build():
    """The module, each export's (param types, result type) in raw
    types, the calls to make, and the exports whose results must match
    bit for bit even when they are NaNs."""
    types, functions, exports, sigs, calls, exact = [], [], [], {}, [], set()

    def add(name, params, result, push):
        ft = FuncType(tuple(RAW[t] for t in params), () if result is None else (RAW[result],))
        if ft not in types:
            types.append(ft)
        functions.append(Function(types.index(ft), (), _body(params, push, result)))
        exports.append(Export(name, "func", len(functions) - 1))
        sigs[name] = (list(ft.params), ft.results[0] if ft.results else None)

    for info in op.OPS.values():
        if info.imm or info.pops is None:
            continue
        name, result = info.name, info.pushes[0]
        t = info.pops[0]
        if result in ("i32", "i64") or name.split(".")[1].startswith(EXACT_FLOAT_OPS):
            exact.add(name)
        add(name, info.pops, result, [ins(name)])
        if len(info.pops) == 1:
            calls += [(name, (a,)) for a in GRID[t]]
            continue
        calls += [(name, (a, b)) for a in GRID[t] for b in GRID[t]]
        for pos in CONST_POSITIONS:
            c = GRID[t][pos]
            fused = f"{name}/{c:x}"
            if t in ("i32", "i64") and c >> (int(t[1:]) - 1):
                c -= 1 << int(t[1:])  # integer immediates are signed
            add(fused, (t,), result, [ins(f"{t}.const", c), ins(name)])
            calls += [(fused, (a,)) for a in GRID[t]]
            if name in exact:
                exact.add(fused)

    # loads and stores near both ends of the page, up to the first address
    # that traps; "peek" reads back the 8 bytes a store may have written
    add("peek", ("i32",), "i64", [ins("i64.load", 0, 0)])
    for info in op.OPS.values():
        if info.imm != "memarg":
            continue
        name, w = info.name, info.width
        last = PAGE_SIZE - w
        if info.pushes:
            add(name, ("i32",), info.pushes[0], [ins(name, 0, 0)])
            exact.add(name)
            for addr in (*range(len(PATTERN) - w + 1), *range(last - 12, last + 2), 0xFFFFFFFF):
                calls.append((name, (addr,)))
            continue
        t = info.pops[1]
        add(name, ("i32", t), None, [ins(name, 0, 0)])
        for addr in (0, 1, 5, last - 1, last, last + 1):
            for value in STORED[t]:
                calls.append((name, (addr, value)))
                calls.append(("peek", (min(addr, PAGE_SIZE - 8),)))

    m = Module(
        types=tuple(types),
        functions=tuple(functions),
        memories=(Limits(1, 1),),
        exports=tuple(exports),
        data=(
            DataSegment(0, (ins("i32.const", 0),), PATTERN),
            DataSegment(0, (ins("i32.const", PAGE_SIZE - len(PATTERN)),), PATTERN),
        ),
    )
    assert validate_module(m).ok, validate_module(m).errors
    return encode(m), sigs, calls, exact


def _ours(data, sigs, calls):
    inst = instantiate(decode(data))
    out = []
    for name, args in calls:
        params, result = sigs[name]
        got = invoke(inst, name, tuple(map(Value, params, args)))
        if not isinstance(got, Results):
            out.append("trap")
        else:
            out.append("" if result is None else str(got.values[0].bits))
    return out


def _v8(data, sigs, calls, tmp_path):
    (tmp_path / "m.wasm").write_bytes(data)
    (tmp_path / "calls.json").write_text(
        json.dumps({"sigs": sigs, "calls": [(n, [str(a) for a in args]) for n, args in calls]})
    )
    (tmp_path / "harness.js").write_text(HARNESS)
    done = subprocess.run(
        [NODE, str(tmp_path / "harness.js"), str(tmp_path / "m.wasm"), str(tmp_path / "calls.json")],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_every_numeric_instruction_load_and_store_agrees_with_v8(tmp_path):
    data, sigs, calls, exact = build()
    theirs = _v8(data, sigs, calls, tmp_path)
    ours = _ours(data, sigs, calls)
    # pinned so that a grid or an export that drops out shows
    assert len(theirs) == len(ours) == len(calls) == 74_244
    mismatches, nan_tolerated = [], 0
    for (name, args), a, b in zip(calls, ours, theirs):
        if a == b:
            continue
        t = name.split(".")[0]
        if name not in exact and "trap" not in (a, b) and _is_nan(t, int(a)) and _is_nan(t, int(b)):
            nan_tolerated += 1
            continue
        mismatches.append(f"{name}{tuple(map(hex, args))}: ours {a}, V8 {b}")
    print(f"{len(calls)} calls, {nan_tolerated} NaN results with different bits tolerated")
    assert not mismatches, f"{len(mismatches)} mismatches, first: " + "; ".join(mismatches[:10])
