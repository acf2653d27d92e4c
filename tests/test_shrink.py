"""Plan application: stubbing, removal, index rewriting, name section."""

import hashlib
import random
from dataclasses import replace

import pytest

import fixturelib as fx
from fixturelib import ins, inv, wl
from wasmdebloat import (
    apply_plan,
    close_references,
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
    return close_references(m, t)


def plan_from_trace(m, entered=(), call_targets=(), table_observed=()):
    t = ExecutionTrace(frozenset(entered), frozenset(call_targets), frozenset(table_observed))
    return close_references(m, t)


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
        tables=(fx.Limits(1),),
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


@pytest.mark.parametrize("type_index", [3, -1])
def test_plan_mismatch_on_a_type_the_module_lacks(type_index):
    # past the end, the type lookup would raise IndexError; a negative
    # index would copy the last type
    m = replace(fx.add_module(), functions=(Function(type_index, (), ()),))
    plan = plan_from_trace(m, entered={0})
    with pytest.raises(PlanMismatch) as exc:
        apply_plan(m, plan)
    assert str(exc.value) == f"plan keeps type {type_index}, module has 1"


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
    m = replace(fx.add_module(), custom_sections=(("name", b"\xff\xff\xff"),))
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
    stats = shrink_stats(m, plan, before, after)
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
    stats = shrink_stats(m, plan, before, after)
    assert stats.imports_removed == 1
    assert stats.types_removed == 1  # the import's (i32) -> () type dies with it
    assert stats.bytes_after < stats.bytes_before


def _leb(n):
    out = bytearray()
    while True:
        b, n = n & 0x7F, n >> 7
        out.append(b | 0x80 if n else b)
        if not n:
            return bytes(out)


def _name(text):
    raw = text if isinstance(text, bytes) else text.encode("utf-8")
    return _leb(len(raw)) + raw


def _name_corpus_module():
    # 2 imports and 10 defined functions, each calling another, so that a
    # random entered set leaves some kept, some stubbed and some removed
    t = FuncType((), ())
    imports = tuple(fx.Import("env", f"i{k}", "func", 0) for k in range(2))
    functions = tuple(Function(0, (), (ins("call", (5 * k + 3) % 12),)) for k in range(10))
    return Module(
        types=(t,), imports=imports, functions=functions, exports=(Export("f", "func", 2),)
    )


def _name_subsection(rng):
    """One subsection of a name payload, sometimes broken on purpose."""
    kind = rng.randrange(12)
    if kind <= 1:  # module name
        return b"\x00" + _leb(len(body := _name("mod" * rng.randrange(4)))) + body
    if kind <= 7:  # function names
        shape = rng.randrange(5)
        if shape == 0:
            indices = []
        elif shape == 1:  # only indices that no plan maps: past the module's 12
            indices = sorted(rng.sample(range(12, 40), rng.randint(1, 4)))
        else:
            indices = sorted(rng.sample(range(14), rng.randint(1, 8)))
        entries = [(i, f"fn{i}" * rng.randint(0, 2)) for i in indices]
        body = _leb(len(entries)) + b"".join(_leb(i) + _name(s) for i, s in entries)
        if shape == 3 and entries:  # a name that is not UTF-8
            body = _leb(len(entries)) + _leb(indices[0]) + _name(b"\xff\xfe")
        if rng.random() < 0.15:  # trailing bytes inside the subsection
            body += bytes(rng.randrange(256) for _ in range(rng.randint(1, 3)))
        size = _leb(len(body))
        if rng.random() < 0.1:  # a size in a longer LEB128 form than needed
            size = bytes([len(body) | 0x80, 0x00]) if len(body) < 0x80 else size
        return b"\x01" + size + body
    if kind <= 9:  # local names, or an id the format does not define
        sub_id = rng.choice((2, 3, 7, 0x80, 0xFF))
        body = bytes(rng.randrange(256) for _ in range(rng.randint(0, 6)))
        return bytes([sub_id]) + _leb(len(body)) + body
    if kind == 10:  # a size past the end of the payload
        return b"\x01" + _leb(rng.randint(5, 300)) + b"\x01\x00"
    # random junk
    return bytes(rng.randrange(256) for _ in range(rng.randint(0, 8)))


def test_name_sections_of_a_fixed_seed_corpus():
    # the name section's reader and writer, pinned over every shape it
    # meets: which payloads survive, and the bytes of those that do
    rng = random.Random(20261020)
    m = _name_corpus_module()
    digest = hashlib.sha256()
    kept = 0
    for _ in range(3_000):
        payload = b"".join(_name_subsection(rng) for _ in range(rng.randint(0, 4)))
        if payload and rng.random() < 0.1:  # cut at a random byte
            payload = payload[: rng.randrange(len(payload))]
        entered = rng.sample(range(2, 12), rng.randint(0, 10))
        plan = plan_from_trace(m, entered=entered)
        customs = apply_plan(replace(m, custom_sections=(("name", payload),)), plan).custom_sections
        assert [name for name, _ in customs] in ([], ["name"])
        if customs:
            kept += 1
            digest.update(_leb(len(customs[0][1])) + customs[0][1])
    assert kept == 752
    assert digest.hexdigest() == "8ddf7c266d7a2edcef904120b34575d6fb7b0355ccaa3fd465682b6fd037d2bf"


def test_plan_mismatch_on_a_remap_entry_the_plan_lacks():
    # same function and import counts, but the twin's kept body calls the
    # function that the plan made for the original removes
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), ()), Function(0, (), ())),
        exports=(Export("f0", "func", 0),),
    )
    plan = plan_from_trace(m, entered={0})
    twin = replace(m, functions=(Function(0, (), (ins("call", 1),)), Function(0, (), ())))
    with pytest.raises(PlanMismatch) as exc:
        apply_plan(twin, plan)
    assert str(exc.value) == "plan lacks a remap entry for index 1"
