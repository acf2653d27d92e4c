"""Interpreter semantics: arithmetic, traps, memory, tables, host calls.

Expected values were derived by hand from two's-complement and IEEE 754
rules; float bit patterns were cross-checked against struct.pack, which
rounds independently of the interpreter's own arithmetic.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import fixturelib as fx
import modulegen
from fixturelib import f32c, f64c, ins, inv, wl
from test_v8_instructions import GRID
from wasmdebloat import debloat_module, decode, encode, interp, validate_module
from wasmdebloat import opcodes as op
from wasmdebloat.errors import SignatureMismatch, UnknownExport, WasmDebloatError
from wasmdebloat.interp import (
    DEFAULT_FUEL,
    HostCall,
    Invocation,
    LinkFailure,
    Results,
    Trap,
    Value,
    Workload,
    f32_to_bits,
    f64_to_bits,
    instantiate,
    invoke,
    run_workload,
)
from wasmdebloat.module import (
    DataSegment,
    ElementSegment,
    Export,
    FuncType,
    Function,
    Global,
    GlobalType,
    Import,
    Limits,
    Module,
)

INT32_MIN = -(2 ** 31)
INT64_MIN = -(2 ** 63)


def run1(m, name, *args, fuel=DEFAULT_FUEL):
    return invoke(instantiate(m), name, tuple(args), fuel=fuel)


def expr_module(result_type, *body):
    """Single exported function f() -> result_type with the given body."""
    return Module(
        types=(FuncType((), (result_type,)),),
        functions=(Function(0, (), tuple(body)),),
        exports=(Export("f", "func", 0),),
    )


def unop_module(param, result, opname):
    return Module(
        types=(FuncType((param,), (result,)),),
        functions=(Function(0, (), (ins("local.get", 0), ins(opname))),),
        exports=(Export("f", "func", 0),),
    )


def binop_module(t, opname, result=None):
    return Module(
        types=(FuncType((t, t), (result or t,)),),
        functions=(
            Function(0, (), (ins("local.get", 0), ins("local.get", 1), ins(opname))),
        ),
        exports=(Export("f", "func", 0),),
    )


# ---------------------------------------------------------------------------
# invocation basics


def test_add():
    assert run1(fx.add_module(), "add", Value.i32(2), Value.i32(3)) == Results(
        (Value.i32(5),)
    )
    assert run1(fx.add_module(), "add", Value.i32(-1), Value.i32(1)) == Results(
        (Value.i32(0),)
    )


def test_i32_wraparound():
    out = run1(fx.add_module(), "add", Value.i32(2 ** 31 - 1), Value.i32(1))
    assert out == Results((Value.i32(INT32_MIN),))


def test_void_result():
    m = fx.multi_type_module()
    assert run1(m, "nopf") == Results(())


def test_a_value_reads_only_as_its_own_kind_of_number():
    with pytest.raises(TypeError, match=r"signed\(\) on f32"):
        Value("f32", 0).signed()
    with pytest.raises(TypeError, match=r"to_float\(\) on i32"):
        Value("i32", 0).to_float()


def test_unknown_export_raises():
    with pytest.raises(UnknownExport):
        run1(fx.add_module(), "missing")


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatch):
        run1(fx.add_module(), "add", Value.i32(1))
    with pytest.raises(SignatureMismatch):
        run1(fx.add_module(), "add", Value.i64(1), Value.i64(2))


def test_memory_export_is_not_a_function_export():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), ()),),
        memories=(Limits(1),),
        exports=(Export("mem", "memory", 0), Export("f", "func", 0)),
    )
    inst = instantiate(m)
    assert invoke(inst, "f") == Results(())
    with pytest.raises(UnknownExport) as exc:
        invoke(inst, "mem")
    assert str(exc.value) == "unknown function export: 'mem'"


def test_reexported_host_import_logs_its_call():
    m = Module(
        types=(FuncType(("i32",), ()),),
        imports=(Import("env", "log", "func", 0),),
        exports=(Export("log", "func", 0),),
    )
    log, trace = run_workload(m, wl(inv("log", Value.i32(-7))))
    rec = log.records[0]
    assert rec.outcome == Results(())
    assert rec.host_calls == (HostCall("env.log", (Value("i32", 0xFFFFFFF9),)),)
    assert trace.entered == frozenset()


@pytest.mark.parametrize(
    "args, got",
    [((1,), "(i32)"), ((1, 2, 3), "(i32, i32, i32)"), ((), "()")],
)
def test_wrong_argument_count_message(args, got):
    with pytest.raises(SignatureMismatch) as exc:
        run1(fx.add_module(), "add", *map(Value.i32, args))
    assert str(exc.value) == (
        f"signature mismatch: expected (i32, i32) -> (i32), got {got}"
    )


# ---------------------------------------------------------------------------
# traps


def test_unreachable_trap():
    from wasmdebloat import decode

    m = decode(fx.UNREACHABLE_EXPORT_BYTES)
    out = run1(m, "boom")
    assert isinstance(out, Trap) and out.kind == "unreachable"


def test_divide_by_zero():
    out = run1(fx.divide_trap_module(), "div0")
    assert isinstance(out, Trap) and out.kind == "divide-by-zero"


def test_division_overflow():
    out = run1(fx.divide_trap_module(), "ovf")
    assert isinstance(out, Trap) and out.kind == "integer-overflow"


def test_rem_min_by_minus_one_is_zero():
    m = binop_module("i32", "i32.rem_s")
    assert run1(m, "f", Value.i32(INT32_MIN), Value.i32(-1)) == Results((Value.i32(0),))
    m = binop_module("i64", "i64.rem_s")
    assert run1(m, "f", Value.i64(INT64_MIN), Value.i64(-1)) == Results((Value.i64(0),))


def test_i64_division_traps():
    m = binop_module("i64", "i64.div_s")
    out = run1(m, "f", Value.i64(5), Value.i64(0))
    assert isinstance(out, Trap) and out.kind == "divide-by-zero"
    out = run1(m, "f", Value.i64(INT64_MIN), Value.i64(-1))
    assert isinstance(out, Trap) and out.kind == "integer-overflow"


def test_stack_exhaustion():
    out = run1(fx.deep_recursion_module(), "spin", Value.i32(0))
    assert isinstance(out, Trap) and out.kind == "stack-exhausted"


def test_fuel_exhaustion_on_infinite_loop():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), fx.loop(None, ins("br", 0))),),
        exports=(Export("f", "func", 0),),
    )
    out = run1(m, "f", fuel=1000)
    assert isinstance(out, Trap) and out.kind == "fuel-exhausted"


def test_fuel_hand_counts():
    m = expr_module("i32", ins("i32.const", 1))
    # a one-instruction body completes with fuel 1 but not fuel 0
    assert run1(m, "f", fuel=1) == Results((Value.i32(1),))
    out = run1(m, "f", fuel=0)
    assert isinstance(out, Trap) and out.kind == "fuel-exhausted"


# ---------------------------------------------------------------------------
# integer operations


def test_shift_counts_are_masked():
    m = binop_module("i32", "i32.shl")
    assert run1(m, "f", Value.i32(1), Value.i32(33)) == Results((Value.i32(2),))
    m = binop_module("i64", "i64.shl")
    assert run1(m, "f", Value.i64(1), Value.i64(65)) == Results((Value.i64(2),))


def test_shr_s_vs_shr_u():
    m = binop_module("i32", "i32.shr_s")
    assert run1(m, "f", Value.i32(-8), Value.i32(1)) == Results((Value.i32(-4),))
    m = binop_module("i32", "i32.shr_u")
    assert run1(m, "f", Value.i32(-8), Value.i32(1)) == Results(
        (Value.i32(0x7FFFFFFC),)
    )


def test_rotations():
    m = binop_module("i32", "i32.rotl")
    assert run1(m, "f", Value.i32(0x80000001), Value.i32(1)) == Results(
        (Value.i32(3),)
    )
    m = binop_module("i32", "i32.rotr")
    assert run1(m, "f", Value.i32(1), Value.i32(1)) == Results(
        (Value.i32(INT32_MIN),)
    )


def test_clz_ctz_popcnt():
    assert run1(unop_module("i32", "i32", "i32.clz"), "f", Value.i32(1)) == Results(
        (Value.i32(31),)
    )
    assert run1(unop_module("i32", "i32", "i32.clz"), "f", Value.i32(0)) == Results(
        (Value.i32(32),)
    )
    assert run1(unop_module("i32", "i32", "i32.ctz"), "f", Value.i32(8)) == Results(
        (Value.i32(3),)
    )
    assert run1(unop_module("i32", "i32", "i32.ctz"), "f", Value.i32(0)) == Results(
        (Value.i32(32),)
    )
    assert run1(
        unop_module("i32", "i32", "i32.popcnt"), "f", Value.i32(0xF0F0)
    ) == Results((Value.i32(8),))
    assert run1(unop_module("i64", "i64", "i64.clz"), "f", Value.i64(1)) == Results(
        (Value.i64(63),)
    )


def test_signed_vs_unsigned_comparison():
    m = binop_module("i32", "i32.lt_s", "i32")
    assert run1(m, "f", Value.i32(-1), Value.i32(0)) == Results((Value.i32(1),))
    m = binop_module("i32", "i32.lt_u", "i32")
    assert run1(m, "f", Value.i32(-1), Value.i32(0)) == Results((Value.i32(0),))


def test_div_u_on_negative_bit_pattern():
    m = binop_module("i32", "i32.div_u")
    # 0xFFFFFFFE / 2 = 0x7FFFFFFF
    assert run1(m, "f", Value.i32(-2), Value.i32(2)) == Results(
        (Value.i32(0x7FFFFFFF),)
    )


def test_rem_s_sign_follows_dividend():
    m = binop_module("i32", "i32.rem_s")
    assert run1(m, "f", Value.i32(-7), Value.i32(3)) == Results((Value.i32(-1),))
    assert run1(m, "f", Value.i32(7), Value.i32(-3)) == Results((Value.i32(1),))


def test_div_s_truncates_toward_zero():
    m = binop_module("i32", "i32.div_s")
    assert run1(m, "f", Value.i32(-7), Value.i32(2)) == Results((Value.i32(-3),))


def test_eqz():
    m = unop_module("i64", "i32", "i64.eqz")
    assert run1(m, "f", Value.i64(0)) == Results((Value.i32(1),))
    assert run1(m, "f", Value.i64(5)) == Results((Value.i32(0),))


# ---------------------------------------------------------------------------
# floats


def test_exact_float_arithmetic():
    out = run1(fx.floats32_module(), "fadd", Value.f32(1.5), Value.f32(2.25))
    assert out == Results((Value("f32", 0x40700000),))  # 3.75
    out = run1(fx.floats32_module(), "fsqrt", Value.f32(9.0))
    assert out == Results((Value("f32", 0x40400000),))  # 3.0


def test_f32_addition_rounds_to_single_precision():
    out = run1(fx.floats32_module(), "fadd", Value.f32(0.1), Value.f32(0.2))
    assert out == Results((Value("f32", 0x3E99999A),))


def test_sqrt_of_negative_is_canonical_nan():
    out = run1(fx.floats32_module(), "fsqrt", Value.f32(-4.0))
    assert out == Results((Value("f32", 0x7FC00000),))
    out = run1(unop_module("f64", "f64", "f64.sqrt"), "f", Value.f64(-1.0))
    assert out == Results((Value("f64", 0x7FF8000000000000),))


def test_division_by_zero_gives_infinities():
    out = run1(fx.floats64_module(), "fdiv", Value.f64(1.0), Value.f64(0.0))
    assert out == Results((Value("f64", 0x7FF0000000000000),))
    out = run1(fx.floats64_module(), "fdiv", Value.f64(-1.0), Value.f64(0.0))
    assert out == Results((Value("f64", 0xFFF0000000000000),))
    out = run1(fx.floats64_module(), "fdiv", Value.f64(0.0), Value.f64(0.0))
    assert out == Results((Value("f64", 0x7FF8000000000000),))


def test_min_max_with_signed_zero():
    out = run1(fx.floats64_module(), "fmin", Value.f64(-0.0), Value.f64(0.0))
    assert out == Results((Value("f64", 0x8000000000000000),))
    m = binop_module("f64", "f64.max")
    out = run1(m, "f", Value.f64(-0.0), Value.f64(0.0))
    assert out == Results((Value("f64", 0),))


def test_min_with_nan_is_nan():
    out = run1(fx.floats64_module(), "fmin", Value("f64", 0x7FF8000000000000), Value.f64(1.0))
    assert out == Results((Value("f64", 0x7FF8000000000000),))


def test_nearest_ties_to_even():
    m = unop_module("f64", "f64", "f64.nearest")
    assert run1(m, "f", Value.f64(2.5)) == Results((Value.f64(2.0),))
    assert run1(m, "f", Value.f64(3.5)) == Results((Value.f64(4.0),))
    assert run1(m, "f", Value.f64(-2.5)) == Results((Value.f64(-2.0),))


def test_floor_ceil_trunc():
    assert run1(unop_module("f64", "f64", "f64.floor"), "f", Value.f64(-1.5)) == Results(
        (Value.f64(-2.0),)
    )
    assert run1(unop_module("f64", "f64", "f64.ceil"), "f", Value.f64(-1.5)) == Results(
        (Value.f64(-1.0),)
    )
    assert run1(unop_module("f64", "f64", "f64.trunc"), "f", Value.f64(-1.5)) == Results(
        (Value.f64(-1.0),)
    )


@pytest.mark.parametrize("op_name", ["ceil", "floor", "nearest"])
def test_rounding_of_nan_and_infinities(op_name):
    for t, nan, canon, inf, ninf in (
        ("f32", 0xFFC00123, 0x7FC00000, 0x7F800000, 0xFF800000),
        ("f64", 0xFFF8000000000123, 0x7FF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000),
    ):
        m = unop_module(t, t, f"{t}.{op_name}")
        assert run1(m, "f", Value(t, nan)) == Results((Value(t, canon),)), t
        assert run1(m, "f", Value(t, inf)) == Results((Value(t, inf),)), t
        assert run1(m, "f", Value(t, ninf)) == Results((Value(t, ninf),)), t


def test_copysign_and_neg():
    m = binop_module("f32", "f32.copysign")
    assert run1(m, "f", Value.f32(2.0), Value.f32(-0.0)) == Results(
        (Value.f32(-2.0),)
    )
    m = unop_module("f32", "f32", "f32.neg")
    assert run1(m, "f", Value.f32(0.0)) == Results((Value("f32", 0x80000000),))


# ---------------------------------------------------------------------------
# conversions


def test_trunc_values():
    assert run1(fx.conversions_module(), "trunc", Value.f64(3.9)) == Results(
        (Value.i32(3),)
    )
    assert run1(fx.conversions_module(), "trunc", Value.f64(-3.9)) == Results(
        (Value.i32(-3),)
    )
    assert run1(fx.conversions_module(), "trunc", Value.f64(2147483647.9)) == Results(
        (Value.i32(2147483647),)
    )


def test_trunc_traps():
    for bad in (float("nan"), float("inf"), 2147483648.0, -2147483649.0):
        out = run1(fx.conversions_module(), "trunc", Value.f64(bad))
        assert isinstance(out, Trap) and out.kind == "integer-overflow", bad


def test_trunc_unsigned_range():
    m = unop_module("f64", "i32", "i32.trunc_f64_u")
    assert run1(m, "f", Value.f64(4294967295.0)) == Results((Value.i32(-1),))
    out = run1(m, "f", Value.f64(-1.0))
    assert isinstance(out, Trap) and out.kind == "integer-overflow"


def test_extend_and_wrap():
    assert run1(fx.conversions_module(), "extend", Value.i32(-5)) == Results(
        (Value.i64(-5),)
    )
    m = unop_module("i32", "i64", "i64.extend_i32_u")
    assert run1(m, "f", Value.i32(-5)) == Results((Value.i64(0xFFFFFFFB),))
    m = unop_module("i64", "i32", "i32.wrap_i64")
    assert run1(m, "f", Value.i64((1 << 32) + 7)) == Results((Value.i32(7),))


def test_convert_i32_to_f32_rounds_ties_to_even():
    assert run1(fx.conversions_module(), "tof32", Value.i32(16777217)) == Results(
        (Value("f32", 0x4B800000),)
    )
    assert run1(fx.conversions_module(), "tof32", Value.i32(16777219)) == Results(
        (Value("f32", 0x4B800002),)
    )


# integers that would round the wrong way through f64 first: the nearest
# f64 is a tie between two f32s. The bits are V8's.
@pytest.mark.parametrize(
    "opname, n, bits",
    [
        ("f32.convert_i64_s", 0x0020000020000001, 0x5A000001),
        ("f32.convert_i64_s", 0xFFDFFFFFDFFFFFFF, 0xDA000001),
        ("f32.convert_i64_u", 0x0020000020000001, 0x5A000001),
        ("f32.convert_i64_u", 0x8000008000000001, 0x5F000001),
        ("f32.convert_i64_u", 0xFFFFFF7FFFFFFFFF, 0x5F7FFFFF),
    ],
)
def test_convert_i64_to_f32_rounds_once(opname, n, bits):
    m = unop_module("i64", "f32", opname)
    assert run1(m, "f", Value.i64(n)) == Results((Value("f32", bits),))


def test_convert_i64_to_f64_rounds():
    m = unop_module("i64", "f64", "f64.convert_i64_s")
    # 2**53 + 1 is not representable; ties-to-even drops to 2**53
    assert run1(m, "f", Value.i64(2 ** 53 + 1)) == Results((Value.f64(float(2 ** 53)),))


def test_demote_promote():
    m = unop_module("f64", "f32", "f32.demote_f64")
    assert run1(m, "f", Value.f64(0.1)) == Results((Value("f32", 0x3DCCCCCD),))
    m = unop_module("f32", "f64", "f64.promote_f32")
    assert run1(m, "f", Value.f32(1.5)) == Results((Value.f64(1.5),))


def test_demote_out_of_range_gives_infinities():
    m = unop_module("f64", "f32", "f32.demote_f64")
    assert run1(m, "f", Value.f64(1e300)) == Results((Value("f32", 0x7F800000),))
    assert run1(m, "f", Value.f64(-1e300)) == Results((Value("f32", 0xFF800000),))


def test_reinterpret_is_bitwise():
    m = unop_module("f32", "i32", "i32.reinterpret_f32")
    assert run1(m, "f", Value.f32(1.5)) == Results((Value.i32(0x3FC00000),))
    m = unop_module("i64", "f64", "f64.reinterpret_i64")
    assert run1(m, "f", Value.i64(0x3FF0000000000000)) == Results((Value.f64(1.0),))


# ---------------------------------------------------------------------------
# memory


def test_data_segment_and_load8_u():
    m = fx.memory_data_module()
    assert run1(m, "peek", Value.i32(8)) == Results((Value.i32(104),))  # 'h'
    assert run1(m, "peek", Value.i32(12)) == Results((Value.i32(111),))  # 'o'
    assert run1(m, "peek", Value.i32(0)) == Results((Value.i32(0),))


def test_store_is_little_endian():
    m = fx.memory_data_module()
    inst = instantiate(m)
    invoke(inst, "poke", (Value.i32(100), Value.i32(0x01020304)))
    assert invoke(inst, "peek", (Value.i32(100),)) == Results((Value.i32(4),))
    assert invoke(inst, "peek", (Value.i32(103),)) == Results((Value.i32(1),))


def test_load8_s_sign_extends():
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), (ins("i32.const", 0), ins("i32.load8_s", 0, 0))),),
        memories=(Limits(1),),
        data=(DataSegment(0, (ins("i32.const", 0),), b"\xff"),),
        exports=(Export("f", "func", 0),),
    )
    assert run1(m, "f") == Results((Value.i32(-1),))


def test_load_offset_is_added():
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), (ins("i32.const", 2), ins("i32.load8_u", 0, 3))),),
        memories=(Limits(1),),
        data=(DataSegment(0, (ins("i32.const", 5),), b"\x2a"),),
        exports=(Export("f", "func", 0),),
    )
    assert run1(m, "f") == Results((Value.i32(42),))


def test_out_of_bounds_access_traps():
    m = fx.oob_memory_module()
    assert run1(m, "readi", Value.i32(65532)) == Results((Value.i32(0),))
    out = run1(m, "readi", Value.i32(65533))
    assert isinstance(out, Trap) and out.kind == "out-of-bounds-memory"
    out = run1(m, "readi", Value.i32(-1))
    assert isinstance(out, Trap) and out.kind == "out-of-bounds-memory"
    out = run1(fx.memory_data_module(), "poke", Value.i32(65533), Value.i32(1))
    assert isinstance(out, Trap) and out.kind == "out-of-bounds-memory"


def test_memory_grow_and_size():
    m = fx.memory_grow_module()
    inst = instantiate(m)
    assert invoke(inst, "size") == Results((Value.i32(1),))
    assert invoke(inst, "grow", (Value.i32(1),)) == Results((Value.i32(1),))
    assert invoke(inst, "size") == Results((Value.i32(2),))
    # declared maximum is 3 pages, so growing by 5 fails with -1
    assert invoke(inst, "grow", (Value.i32(5),)) == Results((Value.i32(-1),))
    assert invoke(inst, "size") == Results((Value.i32(2),))


def test_memory_grow_hard_cap_without_maximum():
    m = Module(
        types=(FuncType(("i32",), ("i32",)),),
        functions=(Function(0, (), (ins("local.get", 0), ins("memory.grow"))),),
        memories=(Limits(1),),
        exports=(Export("grow", "func", 0),),
    )
    assert run1(m, "grow", Value.i32(65536)) == Results((Value.i32(-1),))
    assert run1(m, "grow", Value.i32(65535)) == Results((Value.i32(1),))


# ---------------------------------------------------------------------------
# tables and call_indirect


def test_indirect_dispatch():
    m = fx.indirect_module()
    assert run1(m, "dispatch", Value.i32(0)) == Results((Value.i32(10),))
    assert run1(m, "dispatch", Value.i32(1)) == Results((Value.i32(11),))


def test_indirect_trap_kinds():
    m = fx.table_traps_module()
    assert run1(m, "dispatch", Value.i32(0)) == Results((Value.i32(10),))
    out = run1(m, "dispatch", Value.i32(1))
    assert isinstance(out, Trap) and out.kind == "indirect-call-type-mismatch"
    out = run1(m, "dispatch", Value.i32(2))
    assert isinstance(out, Trap) and out.kind == "undefined-table-element"
    out = run1(m, "dispatch", Value.i32(9))
    assert isinstance(out, Trap) and out.kind == "out-of-bounds-table"
    out = run1(m, "dispatch", Value.i32(-1))
    assert isinstance(out, Trap) and out.kind == "out-of-bounds-table"


def test_indirect_matches_structurally_equal_types():
    # the table function's type is a distinct entry structurally equal
    # to the call_indirect annotation; the call must succeed
    m = Module(
        types=(
            FuncType((), ("i32",)),
            FuncType(("i32",), ("i32",)),
            FuncType((), ("i32",)),
        ),
        functions=(
            Function(2, (), (ins("i32.const", 77),)),
            Function(1, (), (ins("local.get", 0), ins("call_indirect", 0))),
        ),
        tables=(Limits(1),),
        elements=(ElementSegment(0, (ins("i32.const", 0),), (0,)),),
        exports=(Export("dispatch", "func", 1),),
    )
    assert run1(m, "dispatch", Value.i32(0)) == Results((Value.i32(77),))


# ---------------------------------------------------------------------------
# control flow


def test_loop_sums():
    m = fx.loop_count_module()
    assert run1(m, "sumto", Value.i32(4)) == Results((Value.i32(10),))
    assert run1(m, "sumto", Value.i32(0)) == Results((Value.i32(0),))
    assert run1(m, "sumto", Value.i32(100)) == Results((Value.i32(5050),))


def test_br_table_selects_depths():
    m = fx.br_table_module()
    assert run1(m, "pick", Value.i32(0)) == Results((Value.i32(100),))
    assert run1(m, "pick", Value.i32(1)) == Results((Value.i32(200),))
    assert run1(m, "pick", Value.i32(7)) == Results((Value.i32(300),))
    assert run1(m, "pick", Value.i32(-1)) == Results((Value.i32(300),))


def test_if_else_branches():
    m = fx.if_else_module()
    assert run1(m, "nonzero", Value.i32(5)) == Results((Value.i32(1),))
    assert run1(m, "nonzero", Value.i32(0)) == Results((Value.i32(0),))


def test_nested_block_branching():
    m = fx.nested_blocks_module()
    assert run1(m, "nested", Value.i32(0)) == Results((Value.i32(111),))
    assert run1(m, "nested", Value.i32(1)) == Results((Value.i32(222),))


def test_select_and_drop():
    m = fx.select_drop_module()
    assert run1(m, "pickmax", Value.i32(3), Value.i32(9)) == Results((Value.i32(9),))
    assert run1(m, "pickmax", Value.i32(9), Value.i32(3)) == Results((Value.i32(9),))
    assert run1(m, "dropper") == Results((Value.i32(1),))


def test_early_return():
    body = (
        ins("local.get", 0),
        *fx.if_(None, (ins("i32.const", 1), ins("return"))),
        ins("i32.const", 2),
    )
    m = Module(
        types=(FuncType(("i32",), ("i32",)),),
        functions=(Function(0, (), body),),
        exports=(Export("f", "func", 0),),
    )
    assert run1(m, "f", Value.i32(1)) == Results((Value.i32(1),))
    assert run1(m, "f", Value.i32(0)) == Results((Value.i32(2),))


def branch_module(*tail):
    """f(i32) -> i32: a block (result i32) holding 1 and 2, then ``tail``."""
    body = fx.block("i32", ins("i32.const", 1), ins("i32.const", 2), *tail)
    return Module(
        types=(FuncType(("i32",), ("i32",)),),
        functions=(Function(0, (), body),),
        exports=(Export("f", "func", 0),),
    )


# each branch below leaves 1 under the 2 it carries: taking it, with each
# of the arguments, must drop the 1 and keep the 2
@pytest.mark.parametrize(
    "tail, args",
    [
        ((ins("br", 0),), (0, 1)),
        ((ins("local.get", 0), ins("br_if", 0), ins("drop")), (1, 5)),
        ((ins("local.get", 0), ins("br_table", (0,), 0)), (0, 5)),
    ],
    ids=["br", "br_if", "br_table"],
)
def test_taken_branch_drops_the_values_below_its_result(tail, args):
    m = branch_module(*tail)
    assert validate_module(m).ok
    for arg in args:
        assert run1(m, "f", Value.i32(arg)) == Results((Value.i32(2),)), arg


def test_br_if_not_taken_keeps_the_stack():
    m = branch_module(ins("local.get", 0), ins("br_if", 0), ins("drop"))
    assert run1(m, "f", Value.i32(0)) == Results((Value.i32(1),))


def test_return_from_a_block_keeps_only_the_results():
    consts = (ins("i32.const", 1), ins("i32.const", 2), ins("i32.const", 3))
    body = (*fx.block(None, *consts, ins("return")), ins("unreachable"))
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), body),),
        exports=(Export("f", "func", 0),),
    )
    assert validate_module(m).ok
    assert run1(m, "f") == Results((Value.i32(3),))


def test_local_tee_keeps_value():
    body = (
        ins("i32.const", 9),
        ins("local.tee", 1),
        ins("local.get", 1),
        ins("i32.add"),
    )
    m = Module(
        types=(FuncType(("i32",), ("i32",)),),
        functions=(Function(0, ("i32",), body),),
        exports=(Export("f", "func", 0),),
    )
    assert run1(m, "f", Value.i32(0)) == Results((Value.i32(18),))


# ---------------------------------------------------------------------------
# host calls


def test_host_log_recorded():
    log, trace = run_workload(fx.used_import_module(), wl(inv("notify", Value.i32(42))))
    rec = log.records[0]
    assert rec.outcome == Results(())
    assert rec.host_calls == (HostCall("env.log", (Value.i32(42),)),)


def test_host_log64_recorded():
    log, _ = run_workload(fx.i64_host_module(), wl(inv("notify64", Value.i64(1 << 40))))
    assert log.records[0].host_calls == (HostCall("env.log64", (Value.i64(1 << 40),)),)


def test_abort_logs_then_traps():
    log, _ = run_workload(fx.abort_module(), wl(inv("crash")))
    rec = log.records[0]
    assert isinstance(rec.outcome, Trap) and rec.outcome.kind == "unreachable"
    assert rec.host_calls == (
        HostCall("env.log", (Value.i32(99),)),
        HostCall("env.abort", ()),
    )


def test_unsatisfied_import_fails_link():
    log, trace = run_workload(fx.imported_global_module(), wl(inv("getg")))
    assert log.instantiation_error == LinkFailure("unsatisfied global import env.gval")
    assert log.records == ()
    assert trace.entered == frozenset()


def test_unknown_import_name_fails_link():
    m = Module(
        types=(FuncType((), ()),),
        imports=(Import("env", "nosuch", "func", 0),),
    )
    log, _ = run_workload(m, wl())
    assert log.instantiation_error == LinkFailure("unknown import env.nosuch")


def test_import_signature_conflict_fails_link():
    m = Module(
        types=(FuncType(("i64",), ()),),
        imports=(Import("env", "log", "func", 0),),
    )
    log, _ = run_workload(m, wl())
    assert isinstance(log.instantiation_error, LinkFailure)
    assert "env.log" in log.instantiation_error.message


# ---------------------------------------------------------------------------
# instantiation


def test_start_runs_before_invocations():
    assert run1(fx.start_module(), "get") == Results((Value.i32(7),))


def test_element_bounds_checked_at_instantiation():
    m = replace(
        fx.indirect_module(),
        elements=(ElementSegment(0, (ins("i32.const", 5),), (0, 1)),)
    )
    log, _ = run_workload(m, wl(inv("dispatch", Value.i32(0))))
    assert log.instantiation_error == Trap("out-of-bounds-table")
    assert log.records == ()


def test_data_bounds_checked_at_instantiation():
    m = replace(
        fx.memory_data_module(),
        data=(DataSegment(0, (ins("i32.const", 65535),), b"hello"),)
    )
    log, _ = run_workload(m, wl())
    assert log.instantiation_error == Trap("out-of-bounds-memory")


def test_element_checks_precede_data_writes():
    m = replace(
        fx.indirect_module(),
        memories=(Limits(1),),
        elements=(ElementSegment(0, (ins("i32.const", 5),), (0, 1)),),
        data=(DataSegment(0, (ins("i32.const", 65535),), b"hello"),),
    )
    log, _ = run_workload(m, wl())
    assert log.instantiation_error == Trap("out-of-bounds-table")


# ---------------------------------------------------------------------------
# workload runs, traces, final memory


def test_run_workload_records_all_invocations():
    log, trace = run_workload(fx.add_module(), fx.PAIRS[1][2])
    assert len(log.records) == 2
    assert log.records[0].outcome == Results((Value.i32(5),))
    assert log.records[1].outcome == Results((Value.i32(0),))
    assert log.final_memory is None  # no memory
    assert trace.entered == frozenset({0})
    assert trace.call_targets == frozenset()
    assert trace.table_observed == frozenset()


def test_run_workload_makes_each_invocation_through_one_call_of_invoke(monkeypatch):
    # perfbench counts invocations, instructions and host calls from spans
    # around interp.invoke, so each invocation must be one call of it, with
    # every host call the invocation makes inside that call
    calls = []
    real = interp.invoke

    def counting(inst, *args, **kwargs):
        mark = len(inst.host_log)
        try:
            return real(inst, *args, **kwargs)
        finally:
            calls.append(len(inst.host_log) - mark)

    monkeypatch.setattr(interp, "invoke", counting)
    cases = invocations = host_calls = 0
    for name, m, w in fx.PAIRS:
        calls.clear()
        log, _ = run_workload(m, w)
        if log.instantiation_error is not None:
            assert calls == [], name
            continue
        assert calls == [len(r.host_calls) for r in log.records], name
        assert len(calls) == len(w.invocations), name
        cases += 1
        invocations += len(calls)
        host_calls += sum(calls)
    assert (cases, invocations, host_calls) == (30, 64, 4)


def test_trace_records_direct_calls():
    _, trace = run_workload(fx.main_helper_module(), wl(inv("main")))
    assert trace.entered == frozenset({0, 1})
    assert trace.call_targets == frozenset({1})


def test_trace_records_table_slot_exactly():
    _, trace = run_workload(fx.indirect_module(), wl(inv("dispatch", Value.i32(1))))
    assert trace.table_observed == frozenset({1})
    assert trace.call_targets == frozenset({1})
    assert trace.entered == frozenset({1, 2})


def test_trace_includes_import_call_targets():
    _, trace = run_workload(fx.used_import_module(), wl(inv("notify", Value.i32(1))))
    assert trace.call_targets == frozenset({0})
    assert trace.entered == frozenset({1})


def test_mismatched_indirect_target_only_in_table_observed():
    m = fx.table_traps_module()
    _, trace = run_workload(
        m,
        wl(
            inv("dispatch", Value.i32(0)),
            inv("dispatch", Value.i32(1)),
            inv("dispatch", Value.i32(2)),
            inv("dispatch", Value.i32(9)),
        ),
    )
    assert trace.entered == frozenset({0, 2})
    assert trace.call_targets == frozenset({0})
    # slot 1 failed the signature check: observed but never a call target
    assert trace.table_observed == frozenset({0, 1})


def test_state_persists_across_invocations():
    log, _ = run_workload(
        fx.globals_counter_module(), wl(inv("inc"), inv("inc"), inv("get"))
    )
    assert log.records[2].outcome == Results((Value.i32(2),))


def test_workload_fuel_applies_per_invocation():
    m = fx.loop_count_module()
    w = Workload((inv("sumto", Value.i32(100)), inv("sumto", Value.i32(1))), fuel=50)
    log, _ = run_workload(m, w)
    assert isinstance(log.records[0].outcome, Trap)
    assert log.records[0].outcome.kind == "fuel-exhausted"
    # the second invocation gets a fresh budget
    assert log.records[1].outcome == Results((Value.i32(1),))


def test_final_memory_digest_of_initial_image():
    # one page, "hello" written at offset 8, rest zero
    log, _ = run_workload(fx.memory_data_module(), wl())
    assert log.final_memory == bytes(8) + b"hello" + bytes(65536 - 13)


def test_digest_changes_when_memory_changes():
    base, _ = run_workload(fx.memory_data_module(), wl())
    after, _ = run_workload(
        fx.memory_data_module(), wl(inv("poke", Value.i32(0), Value.i32(1)))
    )
    assert base.final_memory != after.final_memory
    again, _ = run_workload(
        fx.memory_data_module(), wl(inv("poke", Value.i32(0), Value.i32(1)))
    )
    assert after.final_memory == again.final_memory


def test_digest_absent_when_instantiation_fails():
    m = replace(
        fx.memory_data_module(),
        data=(DataSegment(0, (ins("i32.const", 65535),), b"hello"),)
    )
    log, _ = run_workload(m, wl())
    assert log.final_memory is None


# ---------------------------------------------------------------------------
# values


def test_value_constructors_store_bit_patterns():
    assert Value.i32(-1).bits == 0xFFFFFFFF
    assert Value.i64(-1).bits == 0xFFFFFFFFFFFFFFFF
    assert Value.f32(1.5).bits == 0x3FC00000
    assert Value.f64(-0.0).bits == 0x8000000000000000


def test_value_str_signed_rendering():
    assert str(Value.i32(5)) == "i32:5"
    assert str(Value("i32", 0xFFFFFFFF)) == "i32:-1"
    assert str(Value.i64(-2)) == "i64:-2"
    assert str(Value.f32(1.5)) == "f32:1.5"


def test_float_bit_helpers_round_trip():
    assert f32_to_bits(1.5) == 0x3FC00000
    assert f64_to_bits(1.5) == 0x3FF8000000000000


# ---------------------------------------------------------------------------
# depth, fuel and trace invariants


def nested_recursion_module(blocks):
    """rec(n) = rec(n - 1) + 1, rec(0) = 0, each frame ``blocks`` deep."""
    inner = fx.if_(
        "i32",
        (
            ins("local.get", 0),
            ins("i32.const", 1),
            ins("i32.sub"),
            ins("call", 0),
            ins("i32.const", 1),
            ins("i32.add"),
        ),
        (ins("i32.const", 0),),
    )
    body = (ins("local.get", 0), *inner)
    for _ in range(blocks):
        body = fx.block("i32", *body)
    return Module(
        types=(FuncType(("i32",), ("i32",)),),
        functions=(Function(0, (), body),),
        exports=(Export("rec", "func", 0),),
    )


def test_deep_recursion_inside_nested_blocks_returns():
    m = nested_recursion_module(40)
    # rec(249) holds 250 frames at once
    assert run1(m, "rec", Value.i32(249)) == Results((Value.i32(249),))


@pytest.mark.parametrize("blocks", [0, 40])
def test_call_depth_limit(blocks):
    m = nested_recursion_module(blocks)
    assert run1(m, "rec", Value.i32(255)) == Results((Value.i32(255),))
    # the 257th frame is refused, at the call in the 256th
    assert run1(m, "rec", Value.i32(256)) == Trap("stack-exhausted", 0)


def test_a_host_function_may_call_back_into_the_instance():
    # outer(x) = x + cb(x), and the host's cb(x) invokes inner(x) = 100 * x
    # on the same instance while outer's x is on the operand stack
    ft = FuncType(("i32",), ("i32",))
    m = Module(
        types=(ft,),
        imports=(Import("env", "cb", "func", 0),),
        functions=(
            Function(0, (), (ins("local.get", 0), ins("local.get", 0), ins("call", 0), ins("i32.add"))),
            Function(0, (), (ins("local.get", 0), ins("i32.const", 100), ins("i32.mul"))),
        ),
        exports=(Export("outer", "func", 1), Export("inner", "func", 2)),
    )
    host = interp.default_host()
    host[("env", "cb")] = interp.HostFunc(ft, lambda args: invoke(inst, "inner", args).values)
    inst = instantiate(m, host)
    assert invoke(inst, "outer", (Value.i32(3),)) == Results((Value.i32(303),))


def test_a_body_that_traps_at_once_is_entered():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("unreachable"),)),),
        exports=(Export("f", "func", 0),),
    )
    log, trace = run_workload(m, wl(inv("f")))
    assert log.records[0].outcome == Trap("unreachable", 0)
    assert trace.entered == frozenset({0})


def test_a_call_refused_for_depth_does_not_enter_its_callee():
    # rec(n) = rec(n - 1), and rec(0) calls f1
    rec = (
        ins("local.get", 0),
        *fx.if_(
            "i32",
            (ins("local.get", 0), ins("i32.const", 1), ins("i32.sub"), ins("call", 0)),
            (ins("call", 1),),
        ),
    )
    m = Module(
        types=(FuncType(("i32",), ("i32",)), FuncType((), ("i32",))),
        functions=(Function(0, (), rec), Function(1, (), (ins("i32.const", 7),))),
        exports=(Export("rec", "func", 0),),
    )
    # rec(254) calls f1 from the 255th frame: f1 is the 256th
    log, trace = run_workload(m, wl(inv("rec", Value.i32(254))))
    assert log.records[0].outcome == Results((Value.i32(7),))
    assert trace.entered == trace.call_targets == frozenset({0, 1})
    # from rec(255), f1 would be the 257th
    log, trace = run_workload(m, wl(inv("rec", Value.i32(255))))
    assert log.records[0].outcome == Trap("stack-exhausted", 0)
    assert trace.entered == trace.call_targets == frozenset({0})


def fuel_used(m, name, args, fuel=DEFAULT_FUEL):
    inst = instantiate(m)
    out = invoke(inst, name, args, fuel)
    return out, fuel - inst.fuel


def test_fuel_of_sumto_is_hand_counted():
    m = fx.loop_count_module()
    for n in (0, 1, 7):
        # block, loop, local.get 1; three per exit test, nine more per
        # iteration; a br back to the loop does not pay for the loop again
        expected = 12 * n + 6
        out, used = fuel_used(m, "sumto", (Value.i32(n),))
        assert out == Results((Value.i32(n * (n + 1) // 2),))
        assert used == expected
        out, used = fuel_used(m, "sumto", (Value.i32(n),), fuel=expected - 1)
        assert out == Trap("fuel-exhausted", 0)
        assert used == expected - 1


def test_fuel_an_invocation_uses_is_the_least_budget_that_reproduces_it():
    cases = [(m, w) for _, m, w in fx.PAIRS]
    for trap_free in (False, True):
        cases += [modulegen.generate_pair(seed, trap_free=trap_free) for seed in range(100)]
    checked = 0
    for m, w in cases:
        if run_workload(m, w)[0].instantiation_error is not None:
            continue

        def replay(i, budget):
            """Invocation i with ``budget``, after the ones before it with
            the workload's fuel: its outcome and the fuel it leaves."""
            inst = instantiate(m, None, w.fuel)
            for before in w.invocations[:i]:
                invoke(inst, before.func, before.args, w.fuel)
            return invoke(inst, w.invocations[i].func, w.invocations[i].args, budget), inst.fuel

        for i in range(len(w.invocations)):
            outcome, left = replay(i, w.fuel)
            used = w.fuel - left
            if isinstance(outcome, Trap) and outcome.kind == "fuel-exhausted":
                continue
            assert replay(i, used) == (outcome, 0)
            short, _ = replay(i, used - 1)
            assert isinstance(short, Trap) and short.kind == "fuel-exhausted"
            checked += 1
    assert checked == 666


# SHA-256 over what every fuel budget up to 201 leaves, on the 430 cases of
# test_every_small_budget_leaves_the_same_state
BUDGET_SWEEP_DIGEST = "4c0e32036a3bf852ff45487169cc9acc0c465a47666253f30f6edad583297458"


def test_every_small_budget_leaves_the_same_state():
    # each invocation alone, on a fresh instance: with the workload's fuel,
    # and then with every budget from 0 to one past what it uses (at most
    # 201), so that a run that fuel covers in part stops at each of its
    # units in turn
    cases = [(m, w) for _, m, w in fx.PAIRS]
    for control_flow in (False, True):
        cases += [modulegen.generate_pair(seed, control_flow=control_flow) for seed in range(200)]

    def state(m, w, call, budget):
        try:
            inst = instantiate(m, None, w.fuel)
            outcome = invoke(inst, call.func, call.args, budget)
        except WasmDebloatError as e:
            return repr(e), None
        memory = None if inst.mem is None else hashlib.sha256(inst.mem).hexdigest()
        return repr((outcome, inst.fuel, inst.globals, inst.host_log, memory)), inst.fuel

    digest = hashlib.sha256()
    budgets = 0
    for m, w in cases:
        for call in w.invocations:
            seen, left = state(m, w, call, w.fuel)
            digest.update(seen.encode())
            if left is None:
                continue
            for budget in range(min(w.fuel - left, 200) + 2):
                digest.update(state(m, w, call, budget)[0].encode())
                budgets += 1
    assert (len(cases), budgets) == (430, 18_876)
    assert digest.hexdigest() == BUDGET_SWEEP_DIGEST


def parity_module():
    """acc += 3 for each odd k in n..1 and 1 for each even one, counting
    down with an if/else and a br_table back edge."""
    body = (
        *fx.block(
            None,
            *fx.loop(
                None,
                ins("local.get", 0),
                ins("i32.const", 1),
                ins("i32.and"),
                *fx.if_(
                    None,
                    (ins("local.get", 1), ins("i32.const", 3), ins("i32.add"), ins("local.set", 1)),
                    (ins("local.get", 1), ins("i32.const", 1), ins("i32.add"), ins("local.set", 1)),
                ),
                ins("local.get", 0),
                ins("i32.const", 1),
                ins("i32.sub"),
                ins("local.tee", 0),
                ins("i32.eqz"),
                ins("br_table", (0,), 1),
            ),
        ),
        ins("local.get", 1),
    )
    return Module(
        types=(FuncType(("i32",), ("i32",)),),
        functions=(Function(0, ("i32",), body),),
        exports=(Export("parity", "func", 0),),
    )


def test_fuel_of_if_else_and_br_table_is_hand_counted():
    m = parity_module()
    for n, result in ((1, 3), (5, 11), (6, 12)):
        # block and loop once; per iteration four up to the if, four in
        # either arm (else and end are free) and six to the br_table;
        # local.get 1 at the end
        expected = 14 * n + 3
        out, used = fuel_used(m, "parity", (Value.i32(n),))
        assert out == Results((Value.i32(result),))
        assert used == expected
        out, used = fuel_used(m, "parity", (Value.i32(n),), fuel=expected - 1)
        assert out == Trap("fuel-exhausted", 0)
        assert used == expected - 1


def store_then_divide_module():
    """f(a, d) stores 42 at a + 4, then returns 100 / d + 1: ten units in
    one straight-line run, where the address is a folded local.get;
    i32.const; i32.add and the last two instructions a folded i32.const;
    i32.add."""
    body = (
        ins("local.get", 0),
        ins("i32.const", 4),
        ins("i32.add"),
        ins("i32.const", 42),
        ins("i32.store", 2, 0),
        ins("i32.const", 100),
        ins("local.get", 1),
        ins("i32.div_u"),
        ins("i32.const", 1),
        ins("i32.add"),
    )
    return Module(
        types=(FuncType(("i32", "i32"), ("i32",)),),
        functions=(Function(0, (), body),),
        memories=(Limits(1),),
        exports=(Export("f", "func", 0),),
    )


@pytest.mark.parametrize(
    "d, used, outcome",
    [
        # all ten units
        (5, 10, Results((Value.i32(21),))),
        # the div_u is the eighth unit; the two after it are not charged
        (0, 8, Trap("divide-by-zero", 0)),
    ],
)
def test_fuel_is_exact_across_fused_ops_and_a_mid_run_trap(d, used, outcome):
    m = store_then_divide_module()
    # up to one more than the whole run, so that the run is charged at
    # its head and a trap refunds what it did not execute
    for fuel in range(12):
        inst = instantiate(m)
        out = invoke(inst, "f", (Value.i32(8), Value.i32(d)), fuel)
        stored = int.from_bytes(inst.mem[12:16], "little")
        if fuel >= used:
            assert (out, inst.fuel, stored) == (outcome, fuel - used, 42)
        else:
            # the store is the fifth unit; fuel that runs out inside a
            # fused op leaves 0, as it does between single instructions
            expected = (Trap("fuel-exhausted", 0), 0, 42 if fuel >= 5 else 0)
            assert (out, inst.fuel, stored) == expected


def load_then_divide_module():
    """f(a, d) stores 11 at 0, sets x to the i32 at a plus 1, stores x at
    4 and returns 100 / d: fourteen units, where the load can trap inside
    the add it feeds and the div_s is the last value of the body."""
    body = (
        ins("i32.const", 0),
        ins("i32.const", 11),
        ins("i32.store", 2, 0),
        ins("local.get", 0),
        ins("i32.load", 2, 0),
        ins("i32.const", 1),
        ins("i32.add"),
        ins("local.set", 2),
        ins("i32.const", 4),
        ins("local.get", 2),
        ins("i32.store", 2, 0),
        ins("i32.const", 100),
        ins("local.get", 1),
        ins("i32.div_s"),
    )
    return Module(
        types=(FuncType(("i32", "i32"), ("i32",)),),
        functions=(Function(0, ("i32",), body),),
        memories=(Limits(1),),
        exports=(Export("f", "func", 0),),
    )


@pytest.mark.parametrize(
    "a, d, used, outcome",
    [
        (0, 5, 14, Results((Value.i32(20),))),
        # the load is the fifth unit, and traps before the add after it
        (65533, 5, 5, Trap("out-of-bounds-memory", 0)),
        # the div_s is the last unit
        (0, 0, 14, Trap("divide-by-zero", 0)),
    ],
)
def test_fuel_is_exact_where_a_load_traps_under_an_add_and_a_div_traps_last(a, d, used, outcome):
    m = load_then_divide_module()
    for fuel in range(used + 2):
        inst = instantiate(m)
        out = invoke(inst, "f", (Value.i32(a), Value.i32(d)), fuel)
        mem = int.from_bytes(inst.mem[0:4], "little"), int.from_bytes(inst.mem[4:8], "little")
        # the first store is the third unit, the second the eleventh
        ran = min(fuel, used)
        stored = (11 if ran >= 3 else 0, 12 if ran >= 11 else 0)
        if fuel >= used:
            assert (out, inst.fuel, mem) == (outcome, fuel - used, stored)
        else:
            assert (out, inst.fuel, mem) == (Trap("fuel-exhausted", 0), 0, stored)


@pytest.mark.parametrize("a", [0, 65533])
@pytest.mark.parametrize("n", fx.STRAIGHT_LINES)
def test_fuel_and_state_are_exact_across_the_cuts_of_a_long_straight_line(n, a):
    m, actions = fx.straight_line_module(n)
    assert validate_module(m).ok
    trapping = a + 4 > 65536
    used = next(p + 1 for p, (kind, *_) in actions if kind == "load") if trapping else n
    for fuel in range(used + 2):
        inst = instantiate(m)
        out = invoke(inst, "f", (Value.i32(a),), fuel)
        # the hand count: the instruction at place p runs when fuel >= p + 1
        mem, globals_ = bytearray(65536), [1, 0]
        for place, (kind, *x) in actions:
            if fuel < place + 1:
                expected = (Trap("fuel-exhausted", 0), 0)
                break
            if kind == "load" and trapping:
                expected = (Trap("out-of-bounds-memory", 0), fuel - place - 1)
                break
            if kind == "store":
                mem[x[0] : x[0] + 4] = x[1].to_bytes(4, "little")
            elif kind == "global":
                globals_[x[0]] = x[1]
        else:
            # the i32 at 0 is the 11 stored there first
            ran = (Results((Value.i32(globals_[0] + 11),)), fuel - n)
            expected = ran if fuel >= n else (Trap("fuel-exhausted", 0), 0)
        assert (out, inst.fuel, inst.globals, inst.mem) == (*expected, globals_, mem)


@pytest.fixture
def fresh_shapes(monkeypatch):
    """An empty shape table, which the test's shapes do not outgrow."""
    monkeypatch.setattr(interp, "_SHAPES", {})


@pytest.mark.parametrize("alternate", [False, True])
def test_an_operand_tree_50000_deep_runs_and_debloats(alternate, fresh_shapes):
    # all the constants and then all the adds, or a const and an add in
    # turn: either way the last add's operand tree is 50,000 deep
    n = 50_000
    if alternate:
        body = (ins("i32.const", 1),) + (ins("i32.const", 1), ins("i32.add")) * (n - 1)
    else:
        body = (ins("i32.const", 1),) * n + (ins("i32.add"),) * (n - 1)
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), body),),
        exports=(Export("f", "func", 0),),
    )
    # the all-constants body compiles to the 49,969 operands pending when
    # its tree first outgrows _MAX_DEPTH, then one top-level node per 32
    # adds and the result; the alternating one to two per 32 adds. The
    # straight line is cut into runs of at most _MAX_NODES instructions
    runs = interp._compile(instantiate(m), m.functions[0])
    assert sum(len(top_level_nodes(run)) for _, run, _, _ in runs) == (3_125 if alternate else 51_531)
    sizes = [len(body) for _, _, _, body in runs]
    assert max(sizes) == interp._MAX_NODES and sum(sizes) == 2 * n - 1
    w = wl(inv("f"))
    out, report = debloat_module(encode(m), w)
    assert report.validation.behavioral_ok
    log, _ = run_workload(decode(out), w)
    assert log.records[0].outcome == Results((Value.i32(n),))


def test_a_run_holds_at_most_256_instructions_and_2048_shapes_are_held(fresh_shapes, monkeypatch):
    assert (interp._MAX_NODES, interp._MAX_SHAPES) == (256, 2_048)
    copy = (ins("local.get", 0), ins("local.set", 1))
    # a tree of 255 nodes, seven levels of adds over 128 constants
    tree = (ins("i32.const", 1),)
    for _ in range(7):
        tree = (*tree, *tree, ins("i32.add"))
    m = Module(
        types=(FuncType(("i32",), ("i32",)),),
        functions=(
            Function(0, ("i32",), (*copy * 127, ins("local.get", 1))),
            Function(0, ("i32",), (*copy * 128, ins("local.get", 1))),
            Function(0, (), (*tree, ins("local.get", 0), ins("i32.add"))),
        ),
        exports=tuple(Export(name, "func", i) for i, name in enumerate(("a", "b", "tree"))),
    )
    assert validate_module(m).ok
    inst = instantiate(m)

    def runs(i):
        """Function i's runs as (instructions, top-level node sizes, exit kind)."""
        return [
            (len(body), list(map(nodes_in, top_level_nodes(run))), exit_[0])
            for _, run, exit_, body in interp._compile(inst, m.functions[i])
        ]

    # 255 instructions are one run, 257 runs of 256 and 1 joined by a branch
    assert runs(0) == [(255, [2] * 127 + [1], interp._END), (0, [], interp._END)]
    assert runs(1) == [(256, [2] * 128, interp._BR), (1, [1], interp._END), (0, [], interp._END)]
    # the tree of 255 nodes is one node, and the add past the cut takes it
    # and the local read off the stack
    assert runs(2) == [(256, [255, 1], interp._BR), (1, [1], interp._END), (0, [], interp._END)]
    assert [run1(m, name, Value.i32(7)) for name in ("a", "b", "tree")] == [Results((Value.i32(x),)) for x in (7, 7, 135)]

    # a full table starts over: with room for two shapes, an instance of
    # "tree" makes three, those of its two runs and that of the empty run
    # a return goes to, which finds the table full and leaves it holding
    # its own; so the next one makes all three
    sources = []

    def recording_exec(source, scope):
        sources.append(source)
        exec(source, scope)

    monkeypatch.setattr(interp, "_SHAPES", {})
    monkeypatch.setattr(interp, "_MAX_SHAPES", 2)
    monkeypatch.setattr(interp, "exec", recording_exec, raising=False)
    for made in (3, 6):
        assert run1(m, "tree", Value.i32(7)) == Results((Value.i32(135),))
        assert len(sources) == made and len(interp._SHAPES) <= 2


def if_then_add_module():
    """g(c, x) = x + (c ? 10 : 7); the if's end label lands on the add."""
    body = (
        ins("local.get", 1),
        ins("local.get", 0),
        *fx.if_("i32", (ins("i32.const", 10),), (ins("i32.const", 7),)),
        ins("i32.add"),
    )
    return Module(
        types=(FuncType(("i32", "i32"), ("i32",)),),
        functions=(Function(0, (), body),),
        exports=(Export("g", "func", 0),),
    )


@pytest.mark.parametrize("c, result", [(1, 40), (0, 37)])
def test_a_label_before_a_binop_keeps_both_arms_right(c, result):
    m = if_then_add_module()
    # two local.gets, the if, one const in either arm and the add
    used = 5
    for fuel in range(used + 2):
        out, spent = fuel_used(m, "g", (Value.i32(c), Value.i32(30)), fuel)
        if fuel >= used:
            assert (out, spent) == (Results((Value.i32(result),)), used)
        else:
            assert (out, spent) == (Trap("fuel-exhausted", 0), fuel)


def shape_of(run):
    """The shape that a run's function was made for."""
    code = run.__code__
    (shape,) = [s for s, factory in interp._SHAPES.items() if any(c is code for c in factory.__code__.co_consts)]
    return shape


def top_level_nodes(run):
    """The top-level nodes a run's function computes, read from its shape."""
    return [node for _, node, _ in interp._trees(shape_of(run))]


def nodes_in(node):
    """The nodes of a tree, its operands off the stack not counted."""
    return 1 + sum(nodes_in(child) for kind in node[1:] if kind != "s" for child in kind[1:])


def compiled_runs(m):
    """Function 0's compiled runs as (units, top-level nodes, exit kind)."""
    inst = instantiate(m)
    runs = interp._compile(inst, m.functions[0])
    return [(units, len(top_level_nodes(run)), exit_[0]) for units, run, exit_, _ in runs]


def test_runs_and_fusion_in_the_compiled_code(fresh_shapes):
    # the store, with its address tree; then the quotient plus one, pushed
    # as the body's result
    assert compiled_runs(store_then_divide_module()) == [
        (10, 2, interp._END),
        (0, 0, interp._END),  # where a return goes
    ]
    # the if's operands are pushed, and each arm's const; the if is a
    # table of one label, the jump over the else arm and the fall-through
    # into the if's end label are branches; the add after the label takes
    # both operands off the stack
    assert compiled_runs(if_then_add_module()) == [
        (3, 2, interp._BR_TABLE),
        (1, 1, interp._BR),
        (1, 1, interp._BR),
        (1, 1, interp._END),
        (0, 0, interp._END),
    ]


def branch_conditions_module():
    """Four exports of c: 1 where c is taken as true and 0 where false,
    through ``if``, ``br_if`` and ``select``; and ``br_table`` with one
    label, which gives 10 for c = 0 and the default's 20 otherwise."""
    one, zero = ins("i32.const", 1), ins("i32.const", 0)
    bodies = (
        (ins("local.get", 0), *fx.if_("i32", (one,), (zero,))),
        fx.block("i32", one, ins("local.get", 0), ins("br_if", 0), ins("drop"), zero),
        (one, zero, ins("local.get", 0), ins("select")),
        (
            *fx.block(
                None,
                *fx.block(None, ins("local.get", 0), ins("br_table", (0,), 1)),
                ins("i32.const", 10),
                ins("return"),
            ),
            ins("i32.const", 20),
        ),
    )
    return Module(
        types=(FuncType(("i32",), ("i32",)),),
        functions=tuple(Function(0, (), body) for body in bodies),
        exports=tuple(
            Export(name, "func", i) for i, name in enumerate(("if", "br_if", "select", "br_table"))
        ),
    )


@pytest.mark.parametrize("c", [0, 1, 2, 0x80000000, 0xFFFFFFFF])
def test_any_nonzero_condition_is_true_and_a_large_br_table_index_takes_the_default(c):
    m = branch_conditions_module()
    assert validate_module(m).ok
    inst = instantiate(m)
    got = {name: invoke(inst, name, (Value.i32(c),)) for name in ("if", "br_if", "select", "br_table")}
    truth = Results((Value.i32(int(c != 0)),))
    assert got == {
        "if": truth,
        "br_if": truth,
        "select": truth,
        "br_table": Results((Value.i32(10 if c == 0 else 20),)),
    }


# dispatch(i) runs local.get and call_indirect, two units in function 2,
# and slot 0's function one more: per i, the outcome once fuel covers it,
# the units used and the slots' functions the trace observes
_DISPATCH = {
    0: (Results((Value.i32(10),)), 3, {0}),
    1: (Trap("indirect-call-type-mismatch", 2), 2, {1}),
    2: (Trap("undefined-table-element", 2), 2, set()),
    9: (Trap("out-of-bounds-table", 2), 2, set()),
}


@pytest.mark.parametrize("i", sorted(_DISPATCH))
def test_fuel_of_call_indirect_and_its_traps_is_hand_counted(i):
    outcome, used, observed = _DISPATCH[i]
    for fuel in range(used + 2):
        inst = instantiate(fx.table_traps_module())
        out = invoke(inst, "dispatch", (Value.i32(i),), fuel)
        got = (out, inst.fuel, inst.trace().table_observed)
        if fuel >= used:
            assert got == (outcome, fuel - used, observed)
        elif fuel == 2:  # the call is made; its callee's one unit is not paid
            assert got == (Trap("fuel-exhausted", 0), 0, {0})
        else:  # the budget runs out before the call_indirect
            assert got == (Trap("fuel-exhausted", 2), 0, set())


def test_failed_indirect_type_check_observes_slot_without_calling():
    _, trace = run_workload(fx.table_traps_module(), wl(inv("dispatch", Value.i32(1))))
    assert trace.table_observed == frozenset({1})
    assert trace.call_targets == frozenset()
    assert trace.entered == frozenset({2})


# ---------------------------------------------------------------------------
# operand kinds
#
# The compiler builds an operator's closure by how each operand is
# computed: read from a local, a constant, a child closure, or taken off
# the operand stack. Every kind of every numeric operator must give the
# bits (or the trap) that two local reads give.

OPERAND_KINDS = ("local", "const", "child", "stack")
NUMERIC = [info.name for info in op.OPS.values() if not info.imm and info.pops is not None]


def operand(kind, t, i, value):
    """The instructions that push one operand of type ``t``: local ``i``,
    ``value`` as a constant, a ``select`` over local ``i``, or local ``i``
    at the end of a block, which ends the straight-line run."""
    if kind == "local":
        return (ins("local.get", i),)
    if kind == "const":
        bits = int(t[1:])
        if t[0] == "i" and value >> (bits - 1):
            value -= 1 << bits  # integer immediates are signed
        return (ins(f"{t}.const", value),)
    if kind == "child":
        return (ins("local.get", i), ins("local.get", i), ins("i32.const", 1), ins("select"))
    return fx.block(t, ins("local.get", i))


@pytest.mark.parametrize("name", NUMERIC)
def test_every_operand_kind_gives_the_bits_of_two_local_reads(name):
    info = op.OPS[op.NAME_TO_OPCODE[name]]
    params = info.pops
    grids = [GRID[t] for t in params]
    # per kinds and per choice of the constants at its const positions, a
    # function whose body pushes the operands, runs the operator and then a
    # nop, so a trap at the operator leaves one unit unpaid
    bodies, calls, checked = [], [], []
    for kinds in product(OPERAND_KINDS, repeat=len(params)):
        for consts in product(*(g if k == "const" else (None,) for k, g in zip(kinds, grids))):
            body = [x for i, k in enumerate(kinds) for x in operand(k, params[i], i, consts[i])]
            bodies.append((*body, ins(name), ins("nop")))
            for args in product(*(g if c is None else (c,) for g, c in zip(grids, consts))):
                calls.append((kinds, len(bodies) - 1, args))
        checked.append(Function(0, (), bodies[-1]))  # the others differ only in constants
    m = Module(
        types=(FuncType(params, info.pushes),),
        functions=tuple(Function(0, (), body) for body in bodies),
        exports=tuple(Export(str(i), "func", i) for i in range(len(bodies))),
    )
    assert validate_module(replace(m, functions=tuple(checked), exports=())).ok
    units = [sum(x.opcode not in (op.END, op.ELSE) for x in body) for body in bodies]
    values = {args: tuple(map(Value, params, args)) for args in product(*grids)}
    inst = instantiate(m)
    expected = {}
    for kinds, i, args in calls:
        out = invoke(inst, str(i), values[args])
        spent = DEFAULT_FUEL - inst.fuel
        if isinstance(out, Trap):
            assert (out.function_index, spent) == (i, units[i] - 1), (kinds, args)
            out = out.kind
        else:
            assert spent == units[i], (kinds, args)
        if kinds == ("local",) * len(params):  # the first kinds of the product
            expected[args] = out
        else:
            assert out == expected[args], (kinds, args)


# the other instructions over operands of every kind: per instruction, its
# operands' types and grids, the locals after them, and the instructions
# from it to the end of the body with the body's results
ADDRESSES = (0, 6, 65533, 0xFFFFFFFF)
I32S, I64S = (5, 0x80000001), (7, 0x8000000000000001)
OTHER = {
    "local.set": (("i32",), (I32S,), ("i32",), (ins("local.set", 1), ins("local.get", 1)), ("i32",)),
    "local.tee": (
        ("i64",), (I64S,), ("i64",), (ins("local.tee", 1), ins("local.get", 1), ins("i64.add")), ("i64",)
    ),
    "global.set": (("i64",), (I64S,), (), (ins("global.set", 0),), ()),
    "i32.load": (("i32",), (ADDRESSES,), (), (ins("i32.load", 2, 1),), ("i32",)),
    "i64.load8_s": (("i32",), (ADDRESSES,), (), (ins("i64.load8_s", 0, 1),), ("i64",)),
    "i32.store": (("i32", "i32"), (ADDRESSES, I32S), (), (ins("i32.store", 2, 1),), ()),
    "i64.store16": (("i32", "i64"), (ADDRESSES, I64S), (), (ins("i64.store16", 1, 1),), ()),
    "select": (("i64", "i64", "i32"), ((7,), (0x8000000000000001,), (0, 2)), (), (ins("select"),), ("i64",)),
    "drop": (("i32",), (I32S,), (), (ins("drop"),), ()),
    "memory.grow": (
        ("i32",), ((0, 1, 2),), (), (ins("memory.grow"), ins("memory.size"), ins("i32.add")), ("i32",)
    ),
    # slot 0 adds 10 to the argument, slot 1's function has another type,
    # slot 2 is empty and slot 9 is outside the table
    "call_indirect": (("i32", "i32"), ((5,), (0, 1, 2, 9)), (), (ins("call_indirect", 1),), ("i32",)),
}


@pytest.mark.parametrize("name", sorted(OTHER))
def test_every_operand_kind_of_another_instruction_gives_what_local_reads_give(name):
    params, grids, locals_, tail, results = OTHER[name]
    bodies, calls, checked = [], [], []
    for kinds in product(OPERAND_KINDS, repeat=len(params)):
        for consts in product(*(g if k == "const" else (None,) for k, g in zip(kinds, grids))):
            body = [x for i, k in enumerate(kinds) for x in operand(k, params[i], i, consts[i])]
            bodies.append((*body, *tail, ins("nop")))
            for args in product(*(g if c is None else (c,) for g, c in zip(grids, consts))):
                calls.append((kinds, len(bodies) - 1, args))
        checked.append(Function(0, locals_, bodies[-1]))
    # functions 0 and 1 are the table's; a memory of one page may grow to two
    m = Module(
        types=(FuncType(params, results), FuncType(("i32",), ("i32",)), FuncType((), ())),
        functions=(
            Function(1, (), (ins("local.get", 0), ins("i32.const", 10), ins("i32.add"))),
            Function(2, (), ()),
            *(Function(0, locals_, body) for body in bodies),
        ),
        tables=(Limits(3),),
        memories=(Limits(1, 2),),
        globals=(Global(GlobalType("i64", True), (ins("i64.const", 0),)),),
        exports=tuple(Export(str(i), "func", i + 2) for i in range(len(bodies))),
        elements=(ElementSegment(0, (ins("i32.const", 0),), (0, 1)),),
        data=(DataSegment(0, (ins("i32.const", 0),), bytes(range(0x70, 0x90))),),
    )
    assert validate_module(replace(m, functions=m.functions[:2] + tuple(checked), exports=())).ok
    units = [sum(x.opcode not in (op.END, op.ELSE) for x in body) for body in bodies]
    expected = {}
    for kinds, i, args in calls:
        inst = instantiate(m)
        out = invoke(inst, str(i), tuple(map(Value, params, args)))
        if isinstance(out, Trap):
            assert out.function_index == i + 2, (kinds, args)
            out = out.kind
        # the units past the body's own, or (negative) those a trap left unpaid
        got = (out, DEFAULT_FUEL - inst.fuel - units[i], bytes(inst.mem), tuple(inst.globals))
        if kinds == ("local",) * len(params):
            expected[args] = got
        else:
            assert got == expected[args], (kinds, args)
    # the loads, the stores and call_indirect trap on part of their grids
    traps = any(isinstance(got[0], str) for got in expected.values())
    assert traps == (name.startswith(("i32.", "i64.")) or name == "call_indirect")


# x is pushed above the other operands in a run of its own, and i32.eqz,
# whose node pops x, is the last operand of the instruction after it
POPPING_CHILD = {
    # a - eqz(x)
    "i32.sub": ((ins("local.get", 0),), (ins("i32.sub"),), 9),
    # eqz(x) ? a : b
    "select": ((ins("local.get", 0), ins("local.get", 1)), (ins("select"),), 10),
    # eqz(x) stored at a, then the i32 at a
    "i32.store": (
        (ins("local.get", 0),),
        (ins("i32.store", 2, 0), ins("local.get", 0), ins("i32.load", 2, 0)),
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(POPPING_CHILD))
def test_a_child_that_pops_runs_before_the_operands_under_it_are_taken(name):
    below, tail, expected = POPPING_CHILD[name]
    params = ("i32",) * (len(below) + 1)
    m = Module(
        types=(FuncType(params, ("i32",)),),
        functions=(Function(0, (), (*below, *fx.block("i32", ins("local.get", len(below))), ins("i32.eqz"), *tail)),),
        memories=(Limits(1),),
        exports=(Export("f", "func", 0),),
    )
    assert validate_module(m).ok
    args = (Value.i32(10), Value.i32(4))[: len(below)] + (Value.i32(0),)
    assert run1(m, "f", *args) == Results((Value.i32(expected),))


# a read left pending below a write sees the value from before it: with
# local 0, global 0 and the i32 at 0 all 1, each body and an i32.add give
# 1 + 5, or the memory size before and after a growth, 1 + 2
WRITES = {
    "local.set": ((ins("local.get", 0), ins("i32.const", 5), ins("local.set", 0), ins("local.get", 0)), 6),
    "local.tee": (
        (ins("local.get", 0), ins("i32.const", 5), ins("local.tee", 0), ins("drop"), ins("local.get", 0)),
        6,
    ),
    "global.set": ((ins("global.get", 0), ins("i32.const", 5), ins("global.set", 0), ins("global.get", 0)), 6),
    "i32.store": (
        (
            *(ins("i32.const", 0), ins("i32.load", 2, 0)),
            *(ins("i32.const", 0), ins("i32.const", 5), ins("i32.store", 2, 0)),
            *(ins("i32.const", 0), ins("i32.load", 2, 0)),
        ),
        6,
    ),
    "memory.grow": ((ins("memory.size"), ins("i32.const", 1), ins("memory.grow"), ins("drop"), ins("memory.size")), 3),
}


@pytest.mark.parametrize("name", sorted(WRITES))
def test_a_read_pending_below_a_write_sees_the_value_before_it(name):
    body, expected = WRITES[name]
    m = Module(
        types=(FuncType(("i32",), ("i32",)),),
        functions=(Function(0, (), (*body, ins("i32.add"))),),
        memories=(Limits(1, 2),),
        globals=(Global(GlobalType("i32", True), (ins("i32.const", 1),)),),
        exports=(Export("f", "func", 0),),
        data=(DataSegment(0, (ins("i32.const", 0),), bytes((1, 0, 0, 0))),),
    )
    assert validate_module(m).ok
    assert run1(m, "f", Value.i32(1)) == Results((Value.i32(expected),))


@pytest.mark.parametrize(
    "x, d, outcome, used",
    [
        (float("nan"), 3, Trap("integer-overflow", 0), 2),  # the truncation, at its own unit
        (7.5, 0, Trap("divide-by-zero", 0), 4),
        (7.5, 3, Results((Value.i32(2),)), 5),
    ],
)
def test_a_trap_under_a_trapping_operator_keeps_its_own_unit(x, d, outcome, used):
    # f(x, d) = trunc(x) / d, then a nop: the division's closure computes
    # the truncation, and a trap of either refunds the units after its own
    m = Module(
        types=(FuncType(("f32", "i32"), ("i32",)),),
        functions=(
            Function(
                0,
                (),
                (
                    ins("local.get", 0),
                    ins("i32.trunc_f32_s"),
                    ins("local.get", 1),
                    ins("i32.div_u"),
                    ins("nop"),
                ),
            ),
        ),
        exports=(Export("f", "func", 0),),
    )
    assert fuel_used(m, "f", (Value.f32(x), Value.i32(d))) == (outcome, used)

# the arities of the instructions without a signature in opcodes.OPS
UNTYPED_ARITIES = {
    "unreachable": 0,
    "call_indirect": 1,
    "drop": 1,
    "select": 3,
    "local.set": 1,
    "local.tee": 1,
    "global.get": 0,
    "global.set": 1,
    "local.get": 0,
}


def mixed_module(constants, indices):
    """f over three i32 and two i64 parameters: six operators whose
    operands are locals (``indices``), constants (``constants``) and child
    closures, in the same kinds whatever the numbers."""
    (c1, c2, c3), (x, y, z) = constants, indices
    body = (
        *(ins("local.get", x), ins("i32.const", c1), ins("i32.add")),  # lc
        *(ins("local.get", y), ins("i32.mul")),  # kl
        *(ins("i32.const", c2), ins("i32.div_u")),  # kc
        *(ins("local.get", z), ins("i64.const", c3), ins("i64.rotl"), ins("i64.eqz")),  # lc, k
        ins("i32.xor"),  # kk
    )
    return Module(
        types=(FuncType(("i32", "i32", "i32", "i64", "i64"), ("i32",)),),
        functions=(Function(0, (), body),),
        exports=(Export("f", "func", 0),),
    )


def test_operator_factories_are_made_on_first_use_from_the_kinds_alone(monkeypatch):
    src = Path(__file__).resolve().parent.parent / "src"
    fresh = subprocess.run(
        [sys.executable, "-c", "import wasmdebloat.interp as i; print(len(i._SHAPES))"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert fresh.stdout == "0\n", fresh.stderr

    sources = []

    def recording_exec(source, scope):
        sources.append(source)
        exec(source, scope)

    monkeypatch.setattr(interp, "_SHAPES", {})
    monkeypatch.setattr(interp, "exec", recording_exec, raising=False)
    args = tuple(map(Value, ("i32", "i32", "i32", "i64", "i64"), (1, 2, 3, 4, 5)))
    m = mixed_module((12345, 678, -987654321), (0, 1, 3))
    assert isinstance(invoke(instantiate(m), "f", args), Results)
    # one run of the body's instructions, and the empty one a return goes to
    made = {tuple(code for code, _ in m.functions[0].body), ()}
    assert set(interp._SHAPES) == made
    assert len(sources) == len(made)
    assert not [s for s in sources if any(c in s for c in ("12345", "678", "987654321"))]
    # other constants and local indices: no shape and no source more
    assert isinstance(invoke(instantiate(mixed_module((5, 99991, 31), (2, 0, 4))), "f", args), Results)
    assert (set(interp._SHAPES), len(sources)) == (made, len(made))

    # every templated instruction over every kind of operand, with
    # immediates and constants of its own: one shape, made once, per run
    # of distinct instructions
    immediates = {"index": (417,), "memarg": (2, 7919), "call_indirect": (586,)}
    immediates |= dict.fromkeys(op.VAL_TYPES, (60013,))  # the constants' own
    for opcode in interp._OPERATORS:
        info = op.OPS[opcode]
        params = info.pops if info.pops is not None else ("i32",) * UNTYPED_ARITIES[info.name]
        instr = ins(info.name, *immediates.get(info.imm, ()))
        funcs = tuple(
            Function(0, (), (*[x for i, k in enumerate(kinds) for x in operand(k, params[i], i, 60013)], instr))
            for kinds in product(OPERAND_KINDS, repeat=len(params))
        )
        types = (FuncType(params, ()),) * 587  # up to call_indirect's type index
        inst = instantiate(Module(types=types, functions=funcs, memories=(Limits(1),)))
        for fn in funcs:
            made |= {tuple(code for code, _ in body) for _, _, _, body in interp._compile(inst, fn)}
    assert set(interp._SHAPES) == made
    assert len(sources) == len(made) == 1_439
    assert not [s for s in sources if any(c in s for c in ("417", "7919", "586", "60013"))]
