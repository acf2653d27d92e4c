"""Trace consolidation and keep-plan construction."""

import random

import pytest

import fixturelib as fx
from fixturelib import ins, inv, wl
from wasmdebloat import apply_plan, close_references, consolidate, run_workload
from wasmdebloat import opcodes as op
from wasmdebloat.errors import IndexOutOfRange
from wasmdebloat.interp import ExecutionTrace, Value
from wasmdebloat.module import Export, FuncType, Function, Module
from wasmdebloat.plan import Disposition


def trace(entered=(), call_targets=(), table_observed=()):
    return ExecutionTrace(
        frozenset(entered), frozenset(call_targets), frozenset(table_observed)
    )


def plan_for(m, w):
    _, t = run_workload(m, w)
    return close_references(m, consolidate(t, m))


def test_empty_trace_keeps_export_declarations_only():
    m = fx.add_module()
    roots = consolidate(trace(), m)
    assert roots.body_keep == frozenset()
    assert roots.decl_keep == frozenset({0})


def test_entered_functions_keep_bodies():
    roots = consolidate(trace(entered={0, 1}, call_targets={1}), fx.main_helper_module())
    assert roots.body_keep == frozenset({0, 1})
    assert 2 not in roots.decl_keep


def test_called_defined_targets_keep_bodies():
    # a call target that never finished still needs its body
    roots = consolidate(trace(entered={0}, call_targets={1}), fx.main_helper_module())
    assert roots.body_keep == frozenset({0, 1})


def test_import_call_targets_are_not_body_keep():
    roots = consolidate(trace(entered={1}, call_targets={0}), fx.used_import_module())
    assert roots.body_keep == frozenset({1})


def test_table_observed_defined_functions_keep_bodies():
    m = fx.indirect_module()
    roots = consolidate(trace(entered={2}, table_observed={1}), m)
    assert 1 in roots.body_keep


def test_element_referenced_functions_keep_declarations():
    m = fx.indirect_module()
    roots = consolidate(trace(entered={2}, call_targets={1}, table_observed={1}), m)
    # slot 0 was never used but sits in the table image
    assert 0 in roots.decl_keep
    assert 0 not in roots.body_keep


def test_start_function_always_kept():
    m = fx.start_module()
    roots = consolidate(trace(), m)
    assert 0 in roots.body_keep
    assert 0 in roots.decl_keep


def test_entered_import_rejected():
    with pytest.raises(IndexOutOfRange) as exc:
        consolidate(trace(entered={0}), fx.used_import_module())
    assert "imported function 0 marked as entered" in str(exc.value)


def test_out_of_range_index_rejected():
    with pytest.raises(IndexOutOfRange) as exc:
        consolidate(trace(entered={9}), fx.add_module())
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
    plan = close_references(m, consolidate(trace(entered={0}, call_targets={2}), m))
    assert plan.dispositions[0] is Disposition.KEEP_BODY
    assert plan.dispositions[1] is Disposition.REMOVE
    assert plan.dispositions[2] is Disposition.KEEP_BODY

    # without the runtime call edge the reference alone yields a stub
    plan = close_references(m, consolidate(trace(entered={0}), m))
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
    assert plan.type_remap == {0: 0, 1: 1}
    assert plan.removed_imports == frozenset()


def test_remaps_are_dense_and_order_preserving():
    m = fx.calculator_module()
    plan = plan_for(m, fx.CALCULATOR_WORKLOAD)
    values = [plan.func_remap[k] for k in sorted(plan.func_remap)]
    assert values == list(range(len(values)))


def test_unused_import_removed_and_indices_shift():
    m = fx.unused_import_module()
    plan = plan_for(m, wl(inv("add2", Value.i32(2), Value.i32(3))))
    assert plan.removed_imports == frozenset({0})
    assert plan.func_remap[1] == 0
    assert plan.num_func_imports == 1


def test_used_import_kept():
    m = fx.used_import_module()
    plan = plan_for(m, wl(inv("notify", Value.i32(1))))
    assert plan.removed_imports == frozenset()
    assert plan.func_remap == {0: 0, 1: 1}


def test_type_remap_covers_stub_declarations():
    # a stubbed function still declares its type, which must survive
    m = fx.calculator_module()
    plan = plan_for(m, fx.CALCULATOR_WORKLOAD)
    for idx in (2, 3, 6):
        type_index = m.functions[idx].type_index
        assert type_index in plan.type_remap


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
    rng = random.Random(7)
    m = fx.calculator_module()
    full = trace(entered={0, 1, 5, 7}, call_targets={5}, table_observed={5})
    full_roots = consolidate(full, m)
    for _ in range(20):
        entered = frozenset(i for i in full.entered if rng.random() < 0.7)
        sub = trace(
            entered=entered,
            call_targets={t for t in full.call_targets if t in entered},
            table_observed={t for t in full.table_observed if t in entered},
        )
        roots = consolidate(sub, m)
        assert roots.body_keep <= full_roots.body_keep
        assert roots.decl_keep <= full_roots.decl_keep


def test_dispositions_cover_every_function():
    # the disposition table spans the combined index space: imports first
    for name, m, w in fx.PAIRS:
        plan = plan_for(m, w)
        assert len(plan.dispositions) == m.num_func_imports + len(m.functions), name
        kept = [d for d in plan.dispositions if d is not Disposition.REMOVE]
        assert len(plan.func_remap) == len(kept), name
        for i in plan.removed_imports:
            assert plan.dispositions[i] is Disposition.REMOVE, name
