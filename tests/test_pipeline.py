"""End-to-end debloating and the replay-based behavior check."""

import importlib
import os
import subprocess
import sys
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import pytest

import fixturelib as fx
import modulegen
from fixturelib import ins, inv, wl
import wasmdebloat
from wasmdebloat import (
    MalformedBinary,
    debloat_module,
    decode,
    encode,
    run_workload,
    validate_behavior,
)
from wasmdebloat import interp, validate, validate_module
from wasmdebloat import opcodes as op
from wasmdebloat.decode import MAX_NESTING
from wasmdebloat.interp import ExecutionTrace, Value
from wasmdebloat.module import (
    Export,
    FuncType,
    Function,
    GlobalType,
    Import,
    Instruction,
    Limits,
    Module,
)
from wasmdebloat.pipeline import Mismatch, ValidationVerdict

ADD_WORKLOAD = wl(inv("add", Value.i32(2), Value.i32(3)))


def log_once_module(value, start=False):
    m = Module(
        types=(FuncType(("i32",), ()), FuncType((), ())),
        imports=(Import("env", "log", "func", 0),),
        functions=(Function(1, (), (ins("i32.const", value), ins("call", 0))),),
        exports=(Export("f", "func", 1),),
    )
    return replace(m, start=1) if start else m


def store_module(value, pages=1, addr=0):
    body = (ins("i32.const", addr), ins("i32.const", value), ins("i32.store", 2, 0))
    return Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), body),),
        memories=(Limits(pages, pages),),
        exports=(Export("poke", "func", 0),),
    )


def dup_export_bytes():
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(
            Function(0, (), (ins("i32.const", 1),)),
            Function(0, (), (ins("i32.const", 2),)),
        ),
        exports=(Export("f", "func", 0), Export("f", "func", 1)),
    )
    return encode(m)


def test_identical_modules_fully_ok():
    verdict = validate_behavior(fx.ADD_BYTES, fx.ADD_BYTES, ADD_WORKLOAD)
    assert verdict.syntactic_ok
    assert verdict.behavioral_ok
    assert verdict.fully_ok
    assert verdict.mismatches == ()


def test_outcome_mismatch_rendering():
    stubbed = replace(
        fx.add_module(),
        functions=(Function(0, (), (Instruction(op.UNREACHABLE),)),)
    )
    verdict = validate_behavior(fx.ADD_BYTES, encode(stubbed), ADD_WORKLOAD)
    assert not verdict.behavioral_ok
    assert verdict.syntactic_ok
    assert verdict.mismatches == (
        Mismatch(0, "outcome", "Results[i32:5]", "Trap(unreachable)"),
    )


def test_host_call_mismatch_per_invocation():
    verdict = validate_behavior(
        encode(log_once_module(5)), encode(log_once_module(6)), wl(inv("f"))
    )
    assert verdict.mismatches == (
        Mismatch(0, "hostCalls", "[env.log(i32:5)]", "[env.log(i32:6)]"),
    )


def test_host_call_mismatch_at_instantiation():
    verdict = validate_behavior(
        encode(log_once_module(1, start=True)),
        encode(log_once_module(2, start=True)),
        wl(),
    )
    assert verdict.mismatches == (
        Mismatch(-1, "hostCalls", "[env.log(i32:1)]", "[env.log(i32:2)]"),
    )


def test_memory_digest_mismatch():
    verdict = validate_behavior(
        encode(store_module(5)), encode(store_module(6)), wl(inv("poke"))
    )
    assert verdict.mismatches == (
        Mismatch(
            -1, "finalMemory", "65536 bytes, 0x05 at offset 0", "65536 bytes, 0x06 at offset 0"
        ),
    )


NEAR_END = 4 * 65536 - 4


@pytest.mark.parametrize(
    "original, debloated, rendered",
    [
        (
            store_module(0x11, 4, NEAR_END),
            store_module(0x12, 4, NEAR_END),
            ("262144 bytes, 0x11 at offset 262140", "262144 bytes, 0x12 at offset 262140"),
        ),
        (store_module(5, 1), store_module(5, 2), ("65536 bytes", "131072 bytes")),
        (
            store_module(5, 2),
            store_module(6, 1),
            ("131072 bytes, 0x05 at offset 0", "65536 bytes, 0x06 at offset 0"),
        ),
        (
            store_module(5),
            replace(store_module(5), memories=(), functions=(Function(0, (), ()),)),
            ("65536 bytes", "absent"),
        ),
    ],
    ids=["one-byte-near-the-end", "sizes", "sizes-and-bytes", "absent"],
)
def test_memory_mismatch_gives_sizes_and_first_difference(original, debloated, rendered):
    verdict = validate_behavior(encode(original), encode(debloated), wl(inv("poke")))
    assert verdict.mismatches == (Mismatch(-1, "finalMemory", *rendered),)


def test_instantiation_mismatch_reported_first():
    a = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), (ins("i32.const", 1),)),),
        exports=(Export("f", "func", 0),),
    )
    b = replace(
        a,
        types=a.types + (FuncType((), ()),),
        imports=(Import("env", "nosuch", "func", 1),),
        exports=(Export("f", "func", 1),),
    )
    verdict = validate_behavior(encode(a), encode(b), wl(inv("f")))
    fields = [m.field for m in verdict.mismatches]
    assert fields == ["instantiation", "invocationCount"]
    assert verdict.mismatches[0].original == "ok"
    assert verdict.mismatches[0].debloated == "LinkError(unknown import env.nosuch)"
    assert verdict.mismatches[1].original == "1"
    assert verdict.mismatches[1].debloated == "0"


def test_trap_compared_by_kind_not_index():
    # removing the dead function shifts the trapping function's index;
    # the verdict must not care
    m = Module(
        types=(FuncType((), ("i32",)), FuncType((), ())),
        functions=(
            Function(0, (), (ins("i32.const", 7),)),
            Function(1, (), (Instruction(op.UNREACHABLE),)),
        ),
        exports=(Export("boom", "func", 1),),
    )
    w = wl(inv("boom"))
    out, report = debloat_module(encode(m), w)
    assert report.stats.functions_removed == 1
    assert report.validation.fully_ok
    log_a, _ = run_workload(m, w)
    log_b, _ = run_workload(decode(out), w)
    assert log_a.records[0].outcome.function_index == 1
    assert log_b.records[0].outcome.function_index == 0
    assert log_a.records[0].outcome.kind == log_b.records[0].outcome.kind


def test_invalid_debloated_module_flagged_not_replayed():
    verdict = validate_behavior(fx.ADD_BYTES, dup_export_bytes(), ADD_WORKLOAD)
    assert not verdict.syntactic_ok
    assert not verdict.behavioral_ok
    assert verdict.mismatches == (
        Mismatch(-1, "syntactic", "valid module", "invalid module"),
    )


def test_debloat_rejects_invalid_input():
    with pytest.raises(MalformedBinary) as exc:
        debloat_module(dup_export_bytes(), wl())
    assert exc.value.offset == 0
    assert "input module invalid at export[1]: duplicate export name 'f'" in str(
        exc.value
    )


def test_validate_rejects_invalid_original():
    with pytest.raises(MalformedBinary) as exc:
        validate_behavior(dup_export_bytes(), fx.ADD_BYTES, wl())
    assert "original module invalid at export[1]: duplicate export name 'f'" in str(
        exc.value
    )


def sabotage_apply_plan(monkeypatch):
    from wasmdebloat.shrink import apply_plan as real

    def wrecked(m, plan):
        out = real(m, plan)
        funcs = list(out.functions)
        funcs[0] = replace(funcs[0], locals=(), body=(Instruction(op.UNREACHABLE),))
        return replace(out, functions=tuple(funcs))

    monkeypatch.setattr(wasmdebloat.pipeline, "apply_plan", wrecked)


def test_behavior_change_does_not_raise_by_default(monkeypatch):
    sabotage_apply_plan(monkeypatch)
    out, report = debloat_module(fx.ADD_BYTES, ADD_WORKLOAD)
    assert not report.validation.behavioral_ok
    assert report.validation.syntactic_ok
    assert not report.validation.fully_ok
    assert report.validation.mismatches == (
        Mismatch(0, "outcome", "Results[i32:5]", "Trap(unreachable)"),
    )
    # the artifact is returned for inspection
    wrecked = decode(out)
    assert wrecked.functions[0].body == (Instruction(op.UNREACHABLE),)


def test_clean_runs_are_fully_ok():
    for name, m, w in fx.PAIRS:
        out, report = debloat_module(encode(m), w)
        assert report.validation.fully_ok, name


def test_non_function_imports_survive_a_failed_link():
    # the default host provides no memory, table or global: both runs stop
    # at the first of them, and the debloater keeps all three imports
    imports = (
        Import("env", "mem", "memory", Limits(1)),
        Import("env", "tab", "table", Limits(1, 2)),
        Import("env", "g", "global", GlobalType("i64", False)),
    )
    m = Module(
        types=(FuncType((), ("i32",)),),
        imports=imports,
        functions=(Function(0, (), (ins("i32.const", 1),)),) * 2,
        exports=(Export("f", "func", 0),),
    )
    w = wl(inv("f"))
    out, report = debloat_module(encode(m), w)
    assert report.validation.fully_ok
    assert decode(out).imports == imports
    failure = interp.LinkFailure("unsatisfied memory import env.mem")
    assert run_workload(m, w)[0].instantiation_error == failure
    assert run_workload(decode(out), w)[0].instantiation_error == failure



def test_function_imports_survive_a_failed_link():
    # the default host lacks env.lkg, so nothing runs and the trace is
    # empty; the output must still fail to link on that import
    m = Module(
        types=(FuncType((), ()),),
        imports=(Import("env", "lkg", "func", 0),),
        functions=(Function(0, (), (ins("call", 0),)),),
        exports=(Export("f", "func", 1),),
    )
    w = wl(inv("f"))
    out, report = debloat_module(encode(m), w)
    assert report.validation.behavioral_ok
    assert decode(out).imports == m.imports
    failure = interp.LinkFailure("unknown import env.lkg")
    assert run_workload(m, w)[0].instantiation_error == failure
    assert run_workload(decode(out), w)[0].instantiation_error == failure

# the encoder module, not the ``encode`` function the package re-exports
encode_module = importlib.import_module("wasmdebloat.encode")


def test_verdict_sees_a_wrong_constant_in_the_returned_bytes(monkeypatch):
    data = encode(log_once_module(5))
    real = encode_module.Writer.sleb
    monkeypatch.setattr(encode_module.Writer, "sleb", lambda w, v, bits: real(w, v + 1, bits))
    out, report = debloat_module(data, wl(inv("f")))
    assert decode(out).functions[0].body[0] == ins("i32.const", 6)
    assert report.validation.syntactic_ok
    assert not report.validation.behavioral_ok
    assert report.validation.mismatches == (
        Mismatch(0, "hostCalls", "[env.log(i32:5)]", "[env.log(i32:6)]"),
    )


def test_returned_bytes_that_do_not_decode_raise(monkeypatch):
    data = encode(log_once_module(5))
    real = encode_module.write_expr

    def drop_end(w, body):
        real(w, body)
        del w.buf[-1]

    # the module has one expression, the body of f
    monkeypatch.setattr(encode_module, "write_expr", drop_end)
    with pytest.raises(MalformedBinary, match="unexpected end of input"):
        debloat_module(data, wl(inv("f")))


def test_debloating_generated_pairs_is_idempotent_and_behavior_preserving():
    pairs = [(name, m, w) for name, m, w in fx.PAIRS]
    for seed in range(200):
        for trap_free in (False, True):
            m, w = modulegen.generate_pair(seed, trap_free=trap_free)
            pairs.append((f"seed {seed}, trap_free={trap_free}", m, w))
    for name, m, w in pairs:
        out, report = debloat_module(encode(m), w)
        assert report.validation.behavioral_ok, name
        assert debloat_module(out, w)[0] == out, name
    assert len(pairs) == 430


def test_calculator_report_numbers():
    out, report = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    assert report.keep_ratio == 40.0
    assert report.stub_ratio == 30.0
    assert report.remove_ratio == 30.0
    t = report.trace
    assert (len(t.entered), len(t.call_targets), len(t.table_observed)) == (4, 1, 1)
    assert report.stats.bytes_before == len(encode(fx.calculator_module()))
    assert report.stats.bytes_after == len(out)
    expected_saved = 100.0 * (
        1.0 - report.stats.bytes_after / report.stats.bytes_before
    )
    assert abs(report.bytes_saved_percent - expected_saved) < 1e-12
    assert report.bytes_saved_percent > 0.0
    assert report.tool_version == wasmdebloat.__version__
    datetime.fromisoformat(report.timestamp)  # must parse


def test_empty_module_report_is_all_keep():
    out, report = debloat_module(fx.EMPTY_BYTES, wl())
    assert out == fx.EMPTY_BYTES
    assert report.keep_ratio == 100.0
    assert report.stub_ratio == 0.0
    assert report.remove_ratio == 0.0
    assert report.bytes_saved_percent == 0.0
    assert report.trace == ExecutionTrace(frozenset(), frozenset(), frozenset())
    assert report.validation.fully_ok


def test_half_stub_half_remove_ratios():
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(
            Function(0, (), (ins("i32.const", 1),)),
            Function(0, (), (ins("i32.const", 2),)),
        ),
        exports=(Export("f", "func", 0),),
    )
    out, report = debloat_module(encode(m), wl())
    assert report.keep_ratio == 0.0
    assert report.stub_ratio == 50.0
    assert report.remove_ratio == 50.0
    assert report.validation.fully_ok
    kept = decode(out)
    assert len(kept.functions) == 1
    assert kept.functions[0].body == (Instruction(op.UNREACHABLE),)


def test_debloated_output_is_canonical():
    # re-encoding the decoded output reproduces the bytes exactly
    for name, m, w in fx.PAIRS:
        out, _ = debloat_module(encode(m), w)
        assert encode(decode(out)) == out, name


def test_fully_ok_property():
    # the three states behavior_verdict produces, decided by the mismatches
    def flags(*mismatches):
        v = ValidationVerdict(mismatches)
        return v.syntactic_ok, v.behavioral_ok, v.fully_ok

    invalid = Mismatch(-1, "syntactic", "valid module", "invalid module")
    assert flags() == (True, True, True)
    assert flags(Mismatch(0, "outcome", "a", "b")) == (True, False, False)
    assert flags(invalid) == (False, False, False)


def test_deepest_nesting_decodes_validates_debloats_and_encodes():
    data = fx.nested_blocks_bytes(MAX_NESTING)
    m = decode(data)
    assert validate_module(m).ok
    assert encode(m) == data
    out, report = debloat_module(data, wl(inv("f")))
    assert report.validation.fully_ok
    assert out == data


# runs in a fresh interpreter, so the recursion limit is Python's default
_DEFAULT_LIMIT_SCRIPT = """
import sys
limit = sys.getrecursionlimit()
import wasmdebloat
from wasmdebloat.interp import Invocation, Workload
assert sys.getrecursionlimit() == limit, (limit, sys.getrecursionlimit())
data = sys.stdin.buffer.read()
m = wasmdebloat.decode(data)
assert wasmdebloat.validate_module(m).ok
out, report = wasmdebloat.debloat_module(data, Workload((Invocation("f"),)))
assert report.validation.fully_ok
assert out == data
assert wasmdebloat.encode(m) == data
"""


def test_deepest_nesting_needs_no_recursion_limit():
    # importing the package leaves the recursion limit alone, and the
    # deepest accepted nesting runs the whole pipeline within the default
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _DEFAULT_LIMIT_SCRIPT],
        input=fx.nested_blocks_bytes(MAX_NESTING),
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()


# runs in a fresh interpreter, so its peak RSS is one debloat's
_TABLE_PEAK_SCRIPT = """
import resource, sys
from wasmdebloat import debloat_module, encode
from wasmdebloat.interp import Invocation, Workload
from wasmdebloat.module import Export, FuncType, Function, Limits, Module
m = Module(
    types=(FuncType((), ()),),
    functions=(Function(0, (), ()),),
    tables=(Limits(int(sys.argv[1])),),
    exports=(Export("f", "func", 0),),
)
out, report = debloat_module(encode(m), Workload((Invocation("f"),)))
assert report.validation.fully_ok
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_a_table_costs_only_the_slots_element_segments_fill():
    # both instances of a debloat hold the table; at the most elements
    # validation allows, the peak stays within 5 MB of a 16-element table's
    src = Path(__file__).resolve().parent.parent / "src"
    peaks_kb = []
    for elements in (16, validate.MAX_TABLE_ELEMENTS):
        done = subprocess.run(
            [sys.executable, "-c", _TABLE_PEAK_SCRIPT, str(elements)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        peaks_kb.append(int(done.stdout))
    assert abs(peaks_kb[1] - peaks_kb[0]) < 5 * 1024, peaks_kb
