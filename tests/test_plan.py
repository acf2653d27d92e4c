"""Keep-plan construction from a trace, and plans edited after it."""

import random

import pytest

import fixturelib as fx
import modulegen
from fixturelib import ins, inv, wl
from wasmdebloat import (
    KeepPlan,
    apply_plan,
    close_references,
    encode,
    run_workload,
    validate_behavior,
    validate_module,
)
from wasmdebloat import opcodes as op
from wasmdebloat.errors import IndexOutOfRange
from wasmdebloat.interp import ExecutionTrace, Value
from wasmdebloat.module import Export, FuncType, Function, Import, Module
from wasmdebloat.plan import Disposition


def trace(entered=(), call_targets=(), table_observed=()):
    return ExecutionTrace(
        frozenset(entered), frozenset(call_targets), frozenset(table_observed)
    )


def plan_for(m, w):
    _, t = run_workload(m, w)
    return close_references(m, t)


KEEP, STUB, REMOVE = Disposition.KEEP_BODY, Disposition.STUB, Disposition.REMOVE


def test_empty_trace_keeps_export_declarations_only():
    plan = close_references(fx.add_module(), trace())
    assert plan.dispositions == (STUB,)


def test_entered_functions_keep_bodies():
    m = fx.main_helper_module()
    plan = close_references(m, trace(entered={0, 1}, call_targets={1}))
    assert plan.dispositions == (KEEP, KEEP, REMOVE)


def test_called_defined_targets_keep_bodies():
    # a call target that never finished still needs its body
    m = fx.main_helper_module()
    plan = close_references(m, trace(entered={0}, call_targets={1}))
    assert plan.dispositions == (KEEP, KEEP, REMOVE)


def test_import_call_targets_are_not_body_keep():
    # an import has no body: were the called import 0 walked as one, the
    # walk would read the last defined body, f3's, and keep f2 as a stub
    m = Module(
        types=(FuncType(("i32",), ()), FuncType((), ())),
        imports=(Import("env", "log", "func", 0),),
        functions=(
            Function(1, (), (ins("i32.const", 1), ins("call", 0))),
            Function(1, (), ()),
            Function(1, (), (ins("call", 2),)),
        ),
        exports=(Export("run", "func", 1),),
    )
    plan = close_references(m, trace(entered={1}, call_targets={0}))
    assert plan.dispositions == (KEEP, KEEP, REMOVE, REMOVE)


def test_table_observed_defined_functions_keep_bodies():
    m = fx.indirect_module()
    plan = close_references(m, trace(entered={2}, table_observed={1}))
    assert plan.dispositions[1] is KEEP


def test_element_referenced_functions_keep_declarations():
    m = fx.indirect_module()
    plan = close_references(m, trace(entered={2}, call_targets={1}, table_observed={1}))
    # slot 0 was never used but sits in the table image
    assert plan.dispositions == (STUB, KEEP, KEEP)


def test_start_function_always_kept():
    plan = close_references(fx.start_module(), trace())
    assert plan.dispositions == (KEEP, STUB)


def test_entered_import_rejected():
    with pytest.raises(IndexOutOfRange) as exc:
        close_references(fx.used_import_module(), trace(entered={0}))
    assert "imported function 0 marked as entered" in str(exc.value)


def test_out_of_range_index_rejected():
    with pytest.raises(IndexOutOfRange) as exc:
        close_references(fx.add_module(), trace(entered={9}))
    assert "trace mentions function 9, module has 1" in str(exc.value)


def test_referenced_but_untraced_becomes_stub():
    # f0 kept and calling f2; f1 unreferenced; f2 referenced only in code
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(
            Function(0, (), (ins("call", 2),)),
            Function(0, (), (ins("i32.const", 1),)),
            Function(0, (), (ins("i32.const", 2),)),
        ),
        exports=(Export("f0", "func", 0),),
    )
    plan = close_references(m, trace(entered={0}, call_targets={2}))
    assert plan.dispositions[0] is Disposition.KEEP_BODY
    assert plan.dispositions[1] is Disposition.REMOVE
    assert plan.dispositions[2] is Disposition.KEEP_BODY

    # without the runtime call edge the reference alone yields a stub
    plan = close_references(m, trace(entered={0}))
    assert plan.dispositions[0] is Disposition.KEEP_BODY
    assert plan.dispositions[1] is Disposition.REMOVE
    assert plan.dispositions[2] is Disposition.STUB


def test_stub_references_do_not_propagate():
    # calculator: unusedB calls unusedA calls mod; none entered. The
    # chain dies because stub bodies carry no references.
    m = fx.calculator_module()
    plan = plan_for(m, fx.CALCULATOR_WORKLOAD)
    assert plan.dispositions[8] is Disposition.REMOVE
    assert plan.dispositions[9] is Disposition.REMOVE
    assert plan.dispositions[4] is Disposition.REMOVE


def test_calculator_plan_matches_hand_derivation():
    m = fx.calculator_module()
    plan = plan_for(m, fx.CALCULATOR_WORKLOAD)
    by_disposition = {
        Disposition.KEEP_BODY: {0, 1, 5, 7},
        Disposition.STUB: {2, 3, 6},
        Disposition.REMOVE: {4, 8, 9},
    }
    for d, indices in by_disposition.items():
        for i in indices:
            assert plan.dispositions[i] is d, i
    assert plan.func_remap == {0: 0, 1: 1, 2: 2, 3: 3, 5: 4, 6: 5, 7: 6}
    assert apply_plan(m, plan).types == m.types


def test_remaps_are_dense_and_order_preserving():
    m = fx.calculator_module()
    plan = plan_for(m, fx.CALCULATOR_WORKLOAD)
    values = [plan.func_remap[k] for k in sorted(plan.func_remap)]
    assert values == list(range(len(values)))


def test_unused_import_removed_and_indices_shift():
    m = fx.unused_import_module()
    plan = plan_for(m, wl(inv("add2", Value.i32(2), Value.i32(3))))
    assert plan.dispositions == (REMOVE, KEEP)
    assert plan.func_remap == {1: 0}


def test_used_import_kept():
    m = fx.used_import_module()
    plan = plan_for(m, wl(inv("notify", Value.i32(1))))
    assert plan.dispositions == (KEEP, KEEP)
    assert plan.func_remap == {0: 0, 1: 1}


def test_type_remap_covers_stub_declarations():
    # a stubbed function still declares its type, which must survive
    m = fx.calculator_module()
    plan = plan_for(m, fx.CALCULATOR_WORKLOAD)
    out = apply_plan(m, plan)
    for idx in (2, 3, 6):
        assert plan.dispositions[idx] is STUB
        stub = out.functions[plan.func_remap[idx]]
        assert out.types[stub.type_index] == m.types[m.functions[idx].type_index]


def test_apply_plan_keeps_global_indices():
    # globals are never debloated, so the rewrite leaves their indices alone
    def global_refs(module):
        return [
            (i.opcode, i.args)
            for fn in module.functions
            for i in fn.body
            if i.opcode in (op.GLOBAL_GET, op.GLOBAL_SET)
        ]

    m = fx.globals_counter_module()
    out = apply_plan(m, plan_for(m, wl(inv("inc"), inv("get"))))
    assert global_refs(out) == global_refs(m)
    assert len(global_refs(m)) == 3


def test_keep_sets_grow_monotonically_with_trace():
    def kept(plan, dispositions):
        return {f for f, d in enumerate(plan.dispositions) if d in dispositions}

    rng = random.Random(7)
    m = fx.calculator_module()
    full = trace(entered={0, 1, 5, 7}, call_targets={5}, table_observed={5})
    full_plan = close_references(m, full)
    for _ in range(20):
        entered = frozenset(i for i in full.entered if rng.random() < 0.7)
        sub = trace(
            entered=entered,
            call_targets={t for t in full.call_targets if t in entered},
            table_observed={t for t in full.table_observed if t in entered},
        )
        plan = close_references(m, sub)
        assert kept(plan, (KEEP,)) <= kept(full_plan, (KEEP,))
        assert kept(plan, (KEEP, STUB)) <= kept(full_plan, (KEEP, STUB))


def test_dispositions_cover_every_function():
    # the disposition table spans the combined index space: imports first
    for name, m, w in fx.PAIRS:
        plan = plan_for(m, w)
        assert len(plan.dispositions) == m.num_func_imports + len(m.functions), name
        kept = [d for d in plan.dispositions if d is not Disposition.REMOVE]
        assert len(plan.func_remap) == len(kept), name
        assert STUB not in plan.dispositions[: m.num_func_imports], name


def _corpus():
    yield from fx.PAIRS
    for seed in range(200):
        yield (f"seed {seed}",) + modulegen.generate_pair(seed)


def test_plans_keep_what_the_trace_and_the_module_need():
    for name, m, w in _corpus():
        _, t = run_workload(m, w)
        d = close_references(m, t).dispositions
        n_imports = m.num_func_imports
        assert all(d[f] is KEEP for f in t.entered), name
        needed = {e.index for e in m.exports if e.kind == "func"}
        needed.update(f for seg in m.elements for f in seg.func_indices)
        needed.update(() if m.start is None else (m.start,))
        for f in range(n_imports, m.num_funcs):
            if d[f] is KEEP:
                body = m.functions[f - n_imports].body
                needed.update(i.args[0] for i in body if i.opcode == op.CALL)
        assert all(d[f] is not REMOVE for f in needed), name


def test_an_edited_plan_applies_and_replays():
    # a plan is its dispositions: one edited after close_references, as a
    # failed link edits the imports, renumbers everything from the edit
    edited = 0
    for name, m, w in _corpus():
        plan = plan_for(m, w)
        n_imports = m.num_func_imports
        removed = [f for f in range(n_imports, m.num_funcs) if plan.dispositions[f] is REMOVE]
        if not removed:
            continue
        stubbed = list(plan.dispositions)
        stubbed[removed[0]] = STUB
        linked = (KEEP,) * n_imports + plan.dispositions[n_imports:]
        for dispositions in (stubbed, linked):
            out = apply_plan(m, KeepPlan(tuple(dispositions)))
            assert validate_module(out).ok, name
            assert validate_behavior(encode(m), encode(out), w).fully_ok, name
        edited += 1
    assert edited == 66
