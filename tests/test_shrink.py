"""Plan application: stubbing, removal, index rewriting, name section."""

import pytest

import fixturelib as fx
from fixturelib import ins, inv, wl
from wasmdebloat import (
    apply_plan,
    close_references,
    consolidate,
    decode,
    encode,
    run_workload,
    section_sizes,
    shrink_stats,
    validate_module,
)
from wasmdebloat import opcodes as op
from wasmdebloat.errors import PlanMismatch
from wasmdebloat.interp import ExecutionTrace, Value
from wasmdebloat.module import Export, FuncType, Function, Instruction, Module


def plan_for(m, w):
    _, t = run_workload(m, w)
    return close_references(m, consolidate(t, m))


def plan_from_trace(m, entered=(), call_targets=(), table_observed=()):
    t = ExecutionTrace(frozenset(entered), frozenset(call_targets), frozenset(table_observed))
    return close_references(m, consolidate(t, m))


def test_stub_body_replaces_body_and_locals():
    # f1 is exported but never runs: its stub keeps its type only
    body = (ins("i32.const", 1), ins("drop"), ins("i32.const", 2))
    m = Module(
        types=(FuncType((), ()), FuncType((), ("i32",))),
        functions=(Function(0, (), ()), Function(1, ("i32", "f64"), body)),
        exports=(Export("f0", "func", 0), Export("f1", "func", 1)),
    )
    stub = apply_plan(m, plan_from_trace(m, entered={0})).functions[1]
    assert stub == Function(1, (), (Instruction(op.UNREACHABLE),))


def test_removal_renumbers_call_sites():
    # f0 keeps its body and calls f2; f1 is removed; f2 becomes index 1
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(
            Function(0, (), (ins("call", 2),)),
            Function(0, (), (ins("i32.const", 1),)),
            Function(0, (), (ins("i32.const", 2),)),
        ),
        exports=(Export("f0", "func", 0),),
    )
    plan = plan_from_trace(m, entered={0}, call_targets={2})
    out = apply_plan(m, plan)
    assert len(out.functions) == 2
    assert out.functions[0].body == (ins("call", 1),)
    assert out.functions[1].body == (ins("i32.const", 2),)
    assert out.exports == (Export("f0", "func", 0),)
    assert validate_module(out).ok


def test_stubbed_functions_get_trap_bodies():
    m = fx.calculator_module()
    out = apply_plan(m, plan_for(m, fx.CALCULATOR_WORKLOAD))
    assert len(out.functions) == 7
    # old indices 2, 3 (mul, div) land at 2, 3; old 6 (abs) lands at 5
    for new_idx in (2, 3, 5):
        assert out.functions[new_idx].body == (Instruction(op.UNREACHABLE),)
        assert out.functions[new_idx].locals == ()
    assert validate_module(out).ok


def test_stubs_keep_their_type_index():
    m = fx.calculator_module()
    plan = plan_for(m, fx.CALCULATOR_WORKLOAD)
    out = apply_plan(m, plan)
    assert out.functions[2].type_index == 0  # mul: (i32,i32)->i32
    assert out.functions[5].type_index == 1  # abs: (i32)->i32


def test_identity_plan_changes_nothing():
    for name, m, w in [p for p in fx.PAIRS if p[0] in ("add", "loop-count", "memory-data")]:
        n = m.num_func_imports
        plan = plan_from_trace(
            m,
            entered=set(range(n, n + len(m.functions))),
            call_targets=set(range(n + len(m.functions))),
        )
        out = apply_plan(m, plan)
        assert out == m, name
        assert encode(out) == encode(m), name


def test_elements_and_exports_remapped():
    m = fx.calculator_module()
    out = apply_plan(m, plan_for(m, fx.CALCULATOR_WORKLOAD))
    exports = {e.name: e.index for e in out.exports}
    assert exports == {"add": 0, "sub": 1, "mul": 2, "div": 3, "dispatch": 6}
    assert out.elements[0].func_indices == (4, 5)  # neg, abs after renumbering
    assert out.tables == m.tables


def test_start_remapped():
    m = fx.start_module()
    plan = plan_from_trace(m, entered={0, 1})
    out = apply_plan(m, plan)
    assert out.start == 0
    # drop the exported getter from the trace: start must survive
    plan = plan_from_trace(m, entered={0})
    out = apply_plan(m, plan)
    assert out.start == 0
    assert len(out.functions) == 2  # getter stubbed, not removed


def test_unused_import_dropped_from_binary():
    m = fx.unused_import_module()
    plan = plan_for(m, wl(inv("add2", Value.i32(2), Value.i32(3))))
    out = apply_plan(m, plan)
    assert out.imports == ()
    assert out.exports == (Export("add2", "func", 0),)
    assert validate_module(out).ok


def test_type_section_compacted():
    # two types; the only traced function uses type 1, and nothing else
    # references type 0, so it disappears and indices shift
    m = Module(
        types=(FuncType(("f64",), ("f64",)), FuncType((), ("i32",))),
        functions=(
            Function(0, (), (ins("local.get", 0),)),
            Function(1, (), (ins("i32.const", 3),)),
        ),
        exports=(Export("g", "func", 1),),
    )
    plan = plan_from_trace(m, entered={1})
    out = apply_plan(m, plan)
    assert out.types == (FuncType((), ("i32",)),)
    assert out.functions[0].type_index == 0


def test_call_indirect_annotation_remapped():
    m = Module(
        types=(FuncType(("f64",), ("f64",)), FuncType((), ("i32",)), FuncType(("i32",), ("i32",))),
        functions=(
            Function(0, (), (ins("local.get", 0),)),
            Function(1, (), (ins("i32.const", 3),)),
            Function(2, (), (ins("local.get", 0), ins("call_indirect", 1))),
        ),
        tables=(fx.TableType(fx.Limits(1)),),
        elements=(fx.ElementSegment(0, (ins("i32.const", 0),), (1,)),),
        exports=(Export("d", "func", 2),),
    )
    plan = plan_from_trace(m, entered={1, 2}, table_observed={1})
    out = apply_plan(m, plan)
    assert out.types == (FuncType((), ("i32",)), FuncType(("i32",), ("i32",)))
    assert out.functions[1].body[-1] == ins("call_indirect", 0)
    assert validate_module(out).ok


def test_plan_mismatch_on_wrong_module():
    m = fx.calculator_module()
    plan = plan_for(m, fx.CALCULATOR_WORKLOAD)
    with pytest.raises(PlanMismatch) as exc:
        apply_plan(fx.add_module(), plan)
    assert "plan covers 10 functions, module has 1" in str(exc.value)


def test_plan_mismatch_on_import_count():
    # same combined function count, but the plan expects one import
    m = fx.used_import_module()
    plan = plan_for(m, wl(inv("notify", Value.i32(1))))
    twin = Module(
        types=(FuncType((), ()), FuncType((), ())),
        functions=(Function(0, (), (ins("nop"),)), Function(1, (), (ins("nop"),))),
    )
    with pytest.raises(PlanMismatch) as exc:
        apply_plan(twin, plan)
    assert str(exc.value) == "plan and module disagree on import count"


def test_name_section_filtered_and_renumbered():
    m = fx.custom_name_module()
    plan = plan_from_trace(m, entered={0})
    out = apply_plan(m, plan)
    assert len(out.custom_sections) == 1
    name, payload = out.custom_sections[0]
    assert name == "name"
    expected = bytes([0x00, 0x05, 0x04]) + b"demo"
    expected += bytes([0x01, 0x08, 0x01, 0x00, 0x05]) + b"alpha"
    assert payload == expected


def test_name_entries_renumbered_to_new_indices():
    # keep only the second function; its name entry moves to index 0
    sub0 = bytes([0x00, 0x05, 0x04]) + b"demo"
    entries = bytes([0x02, 0x00, 0x05]) + b"alpha" + bytes([0x01, 0x04]) + b"beta"
    sub1 = bytes([0x01, len(entries)]) + entries
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(
            Function(0, (), (ins("i32.const", 1),)),
            Function(0, (), (ins("i32.const", 2),)),
        ),
        exports=(Export("second", "func", 1),),
        custom_sections=(("name", sub0 + sub1),),
    )
    plan = plan_from_trace(m, entered={1})
    out = apply_plan(m, plan)
    name, payload = out.custom_sections[0]
    expected = sub0 + bytes([0x01, 0x07, 0x01, 0x00, 0x04]) + b"beta"
    assert payload == expected


def test_junk_custom_sections_dropped():
    m = fx.custom_name_module()
    plan = plan_from_trace(m, entered={0, 1})
    out = apply_plan(m, plan)
    assert [n for n, _ in out.custom_sections] == ["name"]


def test_unparseable_name_section_dropped():
    m = fx.add_module().with_(custom_sections=(("name", b"\xff\xff\xff"),))
    plan = plan_from_trace(m, entered={0})
    out = apply_plan(m, plan)
    assert out.custom_sections == ()


def test_tables_memories_globals_data_pass_through():
    for fixture in (fx.memory_data_module(), fx.exported_kinds_module()):
        n = fixture.num_func_imports
        plan = plan_from_trace(
            fixture, entered=set(range(n, n + len(fixture.functions)))
        )
        out = apply_plan(fixture, plan)
        assert out.tables == fixture.tables
        assert out.memories == fixture.memories
        assert out.globals == fixture.globals
        assert out.data == fixture.data


def test_apply_plan_output_always_validates():
    for name, m, w in fx.PAIRS:
        out = apply_plan(m, plan_for(m, w))
        report = validate_module(out)
        assert report.ok, (name, report.errors)


def test_stub_code_entry_is_four_bytes():
    m = fx.calculator_module()
    before = encode(m)
    after = encode(apply_plan(m, plan_for(m, fx.CALCULATOR_WORKLOAD)))
    # a stub entry encodes as: size 3, zero locals, unreachable, end
    assert bytes.fromhex("03 00 00 0b".replace(" ", "")) in after
    assert len(after) < len(before)


def test_shrink_stats_counts():
    m = fx.calculator_module()
    before = encode(m)
    plan = plan_for(m, fx.CALCULATOR_WORKLOAD)
    after = encode(apply_plan(m, plan))
    stats = shrink_stats(before, after, plan)
    assert stats.functions_kept_body == 4
    assert stats.functions_stubbed == 3
    assert stats.functions_removed == 3
    assert stats.imports_removed == 0
    assert stats.types_removed == 0
    assert stats.bytes_before == len(before)
    assert stats.bytes_after == len(after)
    assert stats.code_bytes_before == section_sizes(before)[op.SEC_CODE]
    assert stats.code_bytes_after == section_sizes(after)[op.SEC_CODE]
    assert stats.code_bytes_after < stats.code_bytes_before


def test_shrink_stats_import_and_type_removal():
    m = fx.unused_import_module()
    before = encode(m)
    plan = plan_for(m, wl(inv("add2", Value.i32(2), Value.i32(3))))
    after = encode(apply_plan(m, plan))
    stats = shrink_stats(before, after, plan)
    assert stats.imports_removed == 1
    assert stats.types_removed == 1  # the import's (i32) -> () type dies with it
    assert stats.bytes_after < stats.bytes_before
