"""Hand-built module fixtures shared across the test suite.

Every module here was assembled by hand against the binary format
grammar; expected execution results in the tests were worked out by
hand from the instruction semantics. The byte-level fixtures pin exact
encodings; the Module-level fixtures cover the rest of the feature
surface (control flow, memory, tables, globals, imports, traps).

PAIRS lists (name, module, workload) for every fixture that can be
executed against the fixed host. ROUND_TRIP_MODULES and BYTE_FIXTURES
feed the encode/decode suites. HOSTILE_WORKLOADS feeds the workload
parser and CLI tests.
"""

from wasmdebloat import opcodes as op
from wasmdebloat.interp import (
    Invocation,
    Value,
    Workload,
    f32_to_bits,
    f64_to_bits,
)
from wasmdebloat.module import (
    DataSegment,
    ELSE,
    END,
    ElementSegment,
    Export,
    FuncType,
    Function,
    Global,
    GlobalType,
    Import,
    Instruction,
    Limits,
    Module,
)
from wasmdebloat.validate import validate_module

I32 = "i32"
I64 = "i64"
F32 = "f32"
F64 = "f64"


def ins(name, *args):
    return Instruction(op.NAME_TO_OPCODE[name], tuple(args))


# block, loop and if_ return a construct's instructions in binary order;
# splice them into a body with *


def block(result, *body):
    return (Instruction(op.BLOCK, (result,)), *body, END)


def loop(result, *body):
    return (Instruction(op.LOOP, (result,)), *body, END)


def if_(result, then, els=()):
    els = (ELSE, *els) if els else ()
    return (Instruction(op.IF, (result,)), *then, *els, END)


def f32c(x):
    return Instruction(op.F32_CONST, (f32_to_bits(x),))


def f64c(x):
    return Instruction(op.F64_CONST, (f64_to_bits(x),))


def i32v(n):
    return Value.i32(n)


def i64v(n):
    return Value.i64(n)


def f32v(x):
    return Value.f32(x)


def f64v(x):
    return Value.f64(x)


def wl(*invocations):
    return Workload(tuple(invocations))


def inv(func, *args):
    return Invocation(func, tuple(args))


# ---------------------------------------------------------------------------
# byte-level fixtures (hand-assembled hex)

EMPTY_BYTES = bytes.fromhex("0061736d01000000")

# one exported function: add(i32, i32) -> i32, body local.get 0/1, i32.add
ADD_BYTES = bytes.fromhex(
    "0061736d01000000"  # magic + version
    "01070160027f7f017f"  # type: (i32,i32)->(i32)
    "03020100"  # function: 1 entry, type 0
    "070701036164640000"  # export: "add" func 0
    "0a09010700200020016a0b"  # code: locals 0; lg0 lg1 add end
)

# same module with the type-section size padded to a 5-byte uleb;
# decoding must accept it and re-encode minimally (== ADD_BYTES)
PADDED_ADD_BYTES = bytes.fromhex(
    "0061736d01000000"
    "0187808080000160027f7f017f"
    "03020100"
    "070701036164640000"
    "0a09010700200020016a0b"
)

# one exported function boom() -> () whose body is a bare trap; the code
# entry is exactly: size 3, zero local groups, 0x00, 0x0B
UNREACHABLE_EXPORT_BYTES = bytes.fromhex(
    "0061736d01000000"
    "010401600000"
    "03020100"
    "07080104626f6f6d0000"
    "0a05010300000b"
)

# empty module plus a custom section "meta" with payload 01 02
CUSTOM_ONLY_BYTES = bytes.fromhex(
    "0061736d01000000" "0007046d6574610102"
)

BYTE_FIXTURES = [
    ("empty", EMPTY_BYTES),
    ("add", ADD_BYTES),
    ("padded-add", PADDED_ADD_BYTES),
    ("unreachable-export", UNREACHABLE_EXPORT_BYTES),
    ("custom-only", CUSTOM_ONLY_BYTES),
]


# ---------------------------------------------------------------------------
# module-level fixtures


def empty_module():
    return Module()


def add_module():
    return Module(
        types=(FuncType((I32, I32), (I32,)),),
        functions=(
            Function(0, (), (ins("local.get", 0), ins("local.get", 1), ins("i32.add"))),
        ),
        exports=(Export("add", "func", 0),),
    )


def main_helper_module():
    # main (0) calls helper (1); dead (2) is unreferenced
    return Module(
        types=(FuncType((), (I32,)), FuncType((I32,), (I32,))),
        functions=(
            Function(0, (), (ins("i32.const", 20), ins("call", 1))),
            Function(1, (), (ins("local.get", 0), ins("i32.const", 1), ins("i32.add"))),
            Function(0, (), (ins("i32.const", 9),)),
        ),
        exports=(Export("main", "func", 0),),
    )


def indirect_module():
    # slot functions 0 and 1 sit in a 2-entry table; dispatch (2) does
    # call_indirect on its argument
    return Module(
        types=(FuncType((), (I32,)), FuncType((I32,), (I32,))),
        functions=(
            Function(0, (), (ins("i32.const", 10),)),
            Function(0, (), (ins("i32.const", 11),)),
            Function(1, (), (ins("local.get", 0), ins("call_indirect", 0))),
        ),
        tables=(Limits(2),),
        elements=(ElementSegment(0, (ins("i32.const", 0),), (0, 1)),),
        exports=(Export("dispatch", "func", 2),),
    )


def unused_import_module():
    # env.log is imported but never called; add2 is combined index 1
    return Module(
        types=(FuncType((I32,), ()), FuncType((I32, I32), (I32,))),
        imports=(Import("env", "log", "func", 0),),
        functions=(
            Function(1, (), (ins("local.get", 0), ins("local.get", 1), ins("i32.add"))),
        ),
        exports=(Export("add2", "func", 1),),
    )


def used_import_module():
    return Module(
        types=(FuncType((I32,), ()),),
        imports=(Import("env", "log", "func", 0),),
        functions=(Function(0, (), (ins("local.get", 0), ins("call", 0))),),
        exports=(Export("notify", "func", 1),),
    )


def memory_data_module():
    return Module(
        types=(FuncType((I32,), (I32,)), FuncType((I32, I32), ()), FuncType((), (I32,))),
        functions=(
            Function(0, (), (ins("local.get", 0), ins("i32.load8_u", 0, 0))),
            Function(
                1, (), (ins("local.get", 0), ins("local.get", 1), ins("i32.store", 2, 0))
            ),
            Function(2, (), (ins("memory.size"),)),
        ),
        memories=(Limits(1, 2),),
        data=(DataSegment(0, (ins("i32.const", 8),), b"hello"),),
        exports=(
            Export("peek", "func", 0),
            Export("poke", "func", 1),
            Export("msize", "func", 2),
        ),
    )


def globals_counter_module():
    return Module(
        types=(FuncType((), ()), FuncType((), (I32,))),
        functions=(
            Function(
                0,
                (),
                (
                    ins("global.get", 0),
                    ins("i32.const", 1),
                    ins("i32.add"),
                    ins("global.set", 0),
                ),
            ),
            Function(1, (), (ins("global.get", 0),)),
        ),
        globals=(Global(GlobalType(I32, True), (ins("i32.const", 0),)),),
        exports=(Export("inc", "func", 0), Export("get", "func", 1)),
    )


def imported_global_module():
    # round-trip/validation fixture only: the fixed host has no globals,
    # so instantiation fails with a link error
    return Module(
        types=(FuncType((), (I32,)),),
        imports=(Import("env", "gval", "global", GlobalType(I32, False)),),
        globals=(Global(GlobalType(I32, False), (ins("global.get", 0),)),),
        functions=(Function(0, (), (ins("global.get", 1),)),),
        exports=(Export("getg", "func", 0),),
    )


def start_module():
    # the start function (0) seeds a global before any invocation
    return Module(
        types=(FuncType((), ()), FuncType((), (I32,))),
        functions=(
            Function(0, (), (ins("i32.const", 7), ins("global.set", 0))),
            Function(1, (), (ins("global.get", 0),)),
        ),
        globals=(Global(GlobalType(I32, True), (ins("i32.const", 0),)),),
        exports=(Export("get", "func", 1),),
        start=0,
    )


def loop_count_module():
    # sumto(n) = n + (n-1) + ... + 1, via a block/loop with br_if/br
    body = (
        *block(
            None,
            *loop(
                None,
                ins("local.get", 0),
                ins("i32.eqz"),
                ins("br_if", 1),
                ins("local.get", 1),
                ins("local.get", 0),
                ins("i32.add"),
                ins("local.set", 1),
                ins("local.get", 0),
                ins("i32.const", 1),
                ins("i32.sub"),
                ins("local.set", 0),
                ins("br", 0),
            ),
        ),
        ins("local.get", 1),
    )
    return Module(
        types=(FuncType((I32,), (I32,)),),
        functions=(Function(0, (I32,), body),),
        exports=(Export("sumto", "func", 0),),
    )


def br_table_module():
    body = (
        *block(
            None,
            *block(
                None,
                *block(
                    None,
                    ins("local.get", 0),
                    ins("br_table", (0, 1), 2),
                ),
                ins("i32.const", 100),
                ins("return"),
            ),
            ins("i32.const", 200),
            ins("return"),
        ),
        ins("i32.const", 300),
    )
    return Module(
        types=(FuncType((I32,), (I32,)),),
        functions=(Function(0, (), body),),
        exports=(Export("pick", "func", 0),),
    )


def if_else_module():
    body = (
        ins("local.get", 0),
        *if_(I32, (ins("i32.const", 1),), (ins("i32.const", 0),)),
    )
    return Module(
        types=(FuncType((I32,), (I32,)),),
        functions=(Function(0, (), body),),
        exports=(Export("nonzero", "func", 0),),
    )


def floats32_module():
    return Module(
        types=(FuncType((F32, F32), (F32,)), FuncType((F32,), (F32,))),
        functions=(
            Function(0, (), (ins("local.get", 0), ins("local.get", 1), ins("f32.add"))),
            Function(1, (), (ins("local.get", 0), ins("f32.sqrt"))),
        ),
        exports=(Export("fadd", "func", 0), Export("fsqrt", "func", 1)),
    )


def floats64_module():
    return Module(
        types=(FuncType((F64, F64), (F64,)),),
        functions=(
            Function(0, (), (ins("local.get", 0), ins("local.get", 1), ins("f64.div"))),
            Function(0, (), (ins("local.get", 0), ins("local.get", 1), ins("f64.min"))),
        ),
        exports=(Export("fdiv", "func", 0), Export("fmin", "func", 1)),
    )


def i64_ops_module():
    return Module(
        types=(FuncType((I64, I64), (I64,)),),
        functions=(
            Function(0, (), (ins("local.get", 0), ins("local.get", 1), ins("i64.shl"))),
            Function(0, (), (ins("local.get", 0), ins("local.get", 1), ins("i64.mul"))),
        ),
        exports=(Export("shl", "func", 0), Export("mul64", "func", 1)),
    )


def conversions_module():
    return Module(
        types=(
            FuncType((F64,), (I32,)),
            FuncType((I32,), (I64,)),
            FuncType((I32,), (F32,)),
        ),
        functions=(
            Function(0, (), (ins("local.get", 0), ins("i32.trunc_f64_s"))),
            Function(1, (), (ins("local.get", 0), ins("i64.extend_i32_s"))),
            Function(2, (), (ins("local.get", 0), ins("f32.convert_i32_s"))),
        ),
        exports=(
            Export("trunc", "func", 0),
            Export("extend", "func", 1),
            Export("tof32", "func", 2),
        ),
    )


def memory_grow_module():
    return Module(
        types=(FuncType((I32,), (I32,)), FuncType((), (I32,))),
        functions=(
            Function(0, (), (ins("local.get", 0), ins("memory.grow"))),
            Function(1, (), (ins("memory.size"),)),
        ),
        memories=(Limits(1, 3),),
        exports=(Export("grow", "func", 0), Export("size", "func", 1)),
    )


def select_drop_module():
    pickmax = (
        ins("local.get", 0),
        ins("local.get", 1),
        ins("local.get", 0),
        ins("local.get", 1),
        ins("i32.gt_s"),
        ins("select"),
    )
    dropper = (ins("i32.const", 1), ins("i32.const", 2), ins("drop"))
    return Module(
        types=(FuncType((I32, I32), (I32,)), FuncType((), (I32,))),
        functions=(Function(0, (), pickmax), Function(1, (), dropper)),
        exports=(Export("pickmax", "func", 0), Export("dropper", "func", 1)),
    )


def many_locals_module():
    # locals exercise run-length grouping in the code section
    body = (
        ins("i32.const", 5),
        ins("local.set", 1),
        ins("local.get", 1),
        ins("local.get", 3),
        ins("i32.add"),
    )
    return Module(
        types=(FuncType((), (I32,)),),
        functions=(Function(0, (I32, I32, I64, I32, F32), body),),
        exports=(Export("f", "func", 0),),
    )


def multi_type_module():
    return Module(
        types=(FuncType((), ()), FuncType((I32,), (I32,)), FuncType((F64,), (F64,))),
        functions=(
            Function(0, (), (ins("nop"),)),
            Function(1, (), (ins("local.get", 0),)),
            Function(2, (), (ins("local.get", 0), f64c(2.0), ins("f64.mul"))),
        ),
        exports=(
            Export("nopf", "func", 0),
            Export("idf", "func", 1),
            Export("dbl", "func", 2),
        ),
    )


def _name_section_payload():
    sub0 = bytes([0x00, 0x05, 0x04]) + b"demo"
    entries = bytes([0x02, 0x00, 0x05]) + b"alpha" + bytes([0x01, 0x04]) + b"beta"
    sub1 = bytes([0x01, len(entries)]) + entries
    return sub0 + sub1


def custom_name_module():
    return Module(
        types=(FuncType((), (I32,)),),
        functions=(
            Function(0, (), (ins("i32.const", 1),)),
            Function(0, (), (ins("i32.const", 2),)),
        ),
        exports=(Export("first", "func", 0),),
        custom_sections=(("name", _name_section_payload()), ("junk", b"\xff\x00")),
    )


def abort_module():
    # crash logs 99 and then calls env.abort, which traps
    return Module(
        types=(FuncType((), ()), FuncType((I32,), ()), FuncType((), (I32,))),
        imports=(Import("env", "abort", "func", 0), Import("env", "log", "func", 1)),
        functions=(
            Function(0, (), (ins("i32.const", 99), ins("call", 1), ins("call", 0))),
            Function(2, (), (ins("i32.const", 3),)),
        ),
        exports=(Export("crash", "func", 2), Export("fine", "func", 3)),
    )


def deep_recursion_module():
    return Module(
        types=(FuncType((I32,), (I32,)),),
        functions=(
            Function(
                0, (), (ins("local.get", 0), ins("i32.const", 1), ins("i32.add"), ins("call", 0))
            ),
        ),
        exports=(Export("spin", "func", 0),),
    )


# the lengths of straight_line_module's lines: around one cut into runs of
# 256 instructions, and past two
STRAIGHT_LINES = (255, 256, 257, 515)


def straight_line_module(n):
    """f(a) -> i32, a body of ``n`` instructions with no branch, and what
    it does, as (place, action) in the order of the places: ("store",
    address, i32), ("global", index, value), or ("load",), which traps
    for an ``a`` past the memory's one page.

    It stores 11 at 0 and sets global 0 (initially 1) to itself plus 5.
    A line of more than 512 instructions then stores 100 + 3 at 16, with
    the address and the 100 before place 256 and the 3 and the add after
    it; sets global 1 to the i32 at ``a``; and adds 7 to global 0. Nops
    fill the places up to the last four, which return global 0 plus the
    i32 at ``a``: in a line of 515, global 0 is read before place 512 and
    ``a`` at it."""
    body, actions = [], []

    def put(place, *instrs):
        body.extend([ins("nop")] * (place - len(body)))
        body.extend(instrs)

    put(0, ins("i32.const", 0), ins("i32.const", 11), ins("i32.store", 2, 0))
    actions.append((2, ("store", 0, 11)))
    put(3, ins("global.get", 0), ins("i32.const", 5), ins("i32.add"), ins("global.set", 0))
    actions.append((6, ("global", 0, 6)))
    if n > 512:
        put(254, ins("i32.const", 16), ins("i32.const", 100))
        put(256, ins("i32.const", 3), ins("i32.add"), ins("i32.store", 2, 0))
        actions.append((258, ("store", 16, 103)))
        put(300, ins("local.get", 0), ins("i32.load", 2, 0), ins("global.set", 1))
        actions += [(301, ("load",)), (302, ("global", 1, 11))]
        put(400, ins("global.get", 0), ins("i32.const", 7), ins("i32.add"), ins("global.set", 0))
        actions.append((403, ("global", 0, 13)))
    put(n - 4, ins("global.get", 0), ins("local.get", 0), ins("i32.load", 2, 0), ins("i32.add"))
    actions.append((n - 2, ("load",)))
    assert len(body) == n
    m = Module(
        types=(FuncType((I32,), (I32,)),),
        functions=(Function(0, (), tuple(body)),),
        memories=(Limits(1),),
        globals=tuple(Global(GlobalType(I32, True), (ins("i32.const", v),)) for v in (1, 0)),
        exports=(Export("f", "func", 0),),
    )
    return m, actions


def _leb(n):
    out = bytearray()
    while True:
        low, n = n & 0x7F, n >> 7
        out.append(low | 0x80 if n else low)
        if not n:
            return bytes(out)


def _section(sec_id, payload):
    return bytes([sec_id]) + _leb(len(payload)) + payload


def nested_blocks_bytes(depth):
    """Module bytes exporting f: () -> () whose body is ``depth`` nested
    empty blocks. Written byte by byte, without the package, so any depth
    can be built, even one decode rejects."""
    body = b"\x00" + b"\x02\x40" * depth + b"\x0b" * (depth + 1)
    return (
        bytes.fromhex("0061736d01000000")
        + _section(op.SEC_TYPE, bytes.fromhex("01600000"))
        + _section(op.SEC_FUNCTION, bytes.fromhex("0100"))
        + _section(op.SEC_EXPORT, bytes.fromhex("0101660000"))
        + _section(op.SEC_CODE, b"\x01" + _leb(len(body)) + body)
    )


def many_locals_bytes(params, *counts):
    """Module bytes of one function with ``params`` i32 parameters and no
    results, whose body declares one i32 local group per count. Written
    byte by byte, like nested_blocks_bytes, so that a count decode rejects
    can be built."""
    body = _leb(len(counts)) + b"".join(_leb(n) + b"\x7f" for n in counts) + b"\x0b"
    return (
        bytes.fromhex("0061736d01000000")
        + _section(op.SEC_TYPE, b"\x01\x60" + _leb(params) + b"\x7f" * params + b"\x00")
        + _section(op.SEC_FUNCTION, bytes.fromhex("0100"))
        + _section(op.SEC_CODE, b"\x01" + _leb(len(body)) + body)
    )


def br_table_bytes(targets):
    """Module bytes of one function whose body is ``block``, ``i32.const 0``
    and a ``br_table`` of ``targets`` targets, each and the default to the
    block. Written byte by byte, like many_locals_bytes."""
    body = bytes.fromhex("0002404100 0e".replace(" ", "")) + _leb(targets)
    body += b"\x00" * (targets + 1) + b"\x0b\x0b"
    return (
        bytes.fromhex("0061736d01000000")
        + _section(op.SEC_TYPE, bytes.fromhex("01600000"))
        + _section(op.SEC_FUNCTION, bytes.fromhex("0100"))
        + _section(op.SEC_CODE, b"\x01" + _leb(len(body)) + body)
    )


# modules on each side of V8's caps of 1,000 on a type's parameters and
# 65,520 on a br_table's targets: a builder, its argument, and the offset
# and reason of decode's refusal (the count, where V8 refuses it), or None
V8_CAP_CASES = (
    (many_locals_bytes, 1_000, None, None),
    (many_locals_bytes, 1_001, 13, "too many parameters"),
    (br_table_bytes, 65_520, None, None),
    (br_table_bytes, 65_521, 32, "too many br_table targets"),
)


# many_locals_bytes arguments around V8's cap of 50,000 on a function's
# parameters plus locals, each with the offset of the local count that
# decode refuses (the offset V8 reports), or None if both accept it
LOCALS_CAP_CASES = (
    (0, (50_000,), None),
    (0, (50_001,), 23),
    (1, (49_999,), None),
    (1, (50_000,), 24),
    (0, (25_000, 25_000), None),
    (0, (25_000, 25_001), 27),
)


# decodes, but its start function 0 has type index 12 and the module has
# two types (found by mutating bytes of a start fixture)
BAD_START_TYPE_BYTES = bytes.fromhex(
    "0061736d01000000"
    "0108026000006000017f"  # type: () -> (), () -> (i32)
    "0303020c01"  # function: type 12, type 1
    "0606017f0141000b"  # global: mutable i32 = 0
    "070701036765740001"  # export: "get" func 1
    "080100"  # start: func 0
    "0a0d020600410724000b040023000b"  # code: global.set 0 to 7; global.get 0
)


def bad_call_type_module(imported):
    """Function 0, an import or a defined function, has type index 7 of
    one type. Function 1 calls it, then adds with no operands, which
    only dead code may do."""
    ft = FuncType((), ())
    caller = Function(0, (), (ins("call", 0), ins("i32.add"), ins("drop")))
    if imported:
        return Module(types=(ft,), imports=(Import("env", "f", "func", 7),), functions=(caller,))
    return Module(types=(ft,), functions=(Function(7, (), ()), caller))


def divide_trap_module():
    return Module(
        types=(FuncType((), (I32,)),),
        functions=(
            Function(0, (), (ins("i32.const", 1), ins("i32.const", 0), ins("i32.div_s"))),
            Function(
                0,
                (),
                (ins("i32.const", -2147483648), ins("i32.const", -1), ins("i32.div_s")),
            ),
        ),
        exports=(Export("div0", "func", 0), Export("ovf", "func", 1)),
    )


def oob_memory_module():
    return Module(
        types=(FuncType((I32,), (I32,)),),
        functions=(Function(0, (), (ins("local.get", 0), ins("i32.load", 2, 0))),),
        memories=(Limits(1),),
        exports=(Export("readi", "func", 0),),
    )


def table_traps_module():
    # table: [slot0fn, wrong-type fn, null]; dispatch expects () -> i32
    return Module(
        types=(
            FuncType((), (I32,)),
            FuncType((I32,), (I32,)),
            FuncType((I64,), (I64,)),
        ),
        functions=(
            Function(0, (), (ins("i32.const", 10),)),
            Function(2, (), (ins("local.get", 0),)),
            Function(1, (), (ins("local.get", 0), ins("call_indirect", 0))),
        ),
        tables=(Limits(3),),
        elements=(ElementSegment(0, (ins("i32.const", 0),), (0, 1)),),
        exports=(Export("dispatch", "func", 2),),
    )


def nested_blocks_module():
    body = (
        *block(
            I32,
            *block(
                None,
                ins("local.get", 0),
                ins("br_if", 0),
                ins("i32.const", 111),
                ins("br", 1),
            ),
            ins("i32.const", 222),
        ),
    )
    return Module(
        types=(FuncType((I32,), (I32,)),),
        functions=(Function(0, (), body),),
        exports=(Export("nested", "func", 0),),
    )


def exported_kinds_module():
    return Module(
        types=(FuncType((), (I32,)),),
        functions=(Function(0, (), (ins("global.get", 0),)),),
        tables=(Limits(1),),
        memories=(Limits(1),),
        globals=(Global(GlobalType(I32, False), (ins("i32.const", 42),)),),
        exports=(
            Export("f", "func", 0),
            Export("tbl", "table", 0),
            Export("mem", "memory", 0),
            Export("answer", "global", 0),
        ),
    )


def i64_host_module():
    return Module(
        types=(FuncType((I64,), ()),),
        imports=(Import("env", "log64", "func", 0),),
        functions=(Function(0, (), (ins("local.get", 0), ins("call", 0))),),
        exports=(Export("notify64", "func", 1),),
    )


def calculator_module():
    """Ten defined functions, two of them reachable only through a table.

    Index map: 0 add, 1 sub, 2 mul, 3 div, 4 mod, 5 neg, 6 abs,
    7 dispatch, 8 unusedA, 9 unusedB. Exports: add, sub, mul, div,
    dispatch. Table slots: [neg, abs]. unusedB -> unusedA -> mod form a
    dead call chain.
    """
    t_bin = FuncType((I32, I32), (I32,))
    t_un = FuncType((I32,), (I32,))
    binop = lambda name: (ins("local.get", 0), ins("local.get", 1), ins(name))
    abs_body = (
        ins("local.get", 0),
        ins("local.get", 0),
        ins("i32.const", 31),
        ins("i32.shr_s"),
        ins("i32.xor"),
        ins("local.get", 0),
        ins("i32.const", 31),
        ins("i32.shr_s"),
        ins("i32.sub"),
    )
    return Module(
        types=(t_bin, t_un),
        functions=(
            Function(0, (), binop("i32.add")),
            Function(0, (), binop("i32.sub")),
            Function(0, (), binop("i32.mul")),
            Function(0, (), binop("i32.div_s")),
            Function(0, (), binop("i32.rem_s")),
            Function(1, (), (ins("i32.const", 0), ins("local.get", 0), ins("i32.sub"))),
            Function(1, (), abs_body),
            Function(0, (), (ins("local.get", 1), ins("local.get", 0), ins("call_indirect", 1))),
            Function(1, (), (ins("local.get", 0), ins("i32.const", 3), ins("call", 4))),
            Function(1, (), (ins("local.get", 0), ins("call", 8))),
        ),
        tables=(Limits(2),),
        elements=(ElementSegment(0, (ins("i32.const", 0),), (5, 6)),),
        exports=(
            Export("add", "func", 0),
            Export("sub", "func", 1),
            Export("mul", "func", 2),
            Export("div", "func", 3),
            Export("dispatch", "func", 7),
        ),
    )


CALCULATOR_WORKLOAD = wl(
    inv("add", i32v(2), i32v(3)),
    inv("sub", i32v(10), i32v(4)),
    inv("dispatch", i32v(0), i32v(7)),
)

ADD_WORKLOAD = wl(inv("add", i32v(2), i32v(3)))


# ---------------------------------------------------------------------------
# registries

ROUND_TRIP_MODULES = [
    ("empty", empty_module()),
    ("add", add_module()),
    ("main-helper", main_helper_module()),
    ("indirect", indirect_module()),
    ("unused-import", unused_import_module()),
    ("used-import", used_import_module()),
    ("memory-data", memory_data_module()),
    ("globals-counter", globals_counter_module()),
    ("imported-global", imported_global_module()),
    ("start", start_module()),
    ("loop-count", loop_count_module()),
    ("br-table", br_table_module()),
    ("if-else", if_else_module()),
    ("floats32", floats32_module()),
    ("floats64", floats64_module()),
    ("i64-ops", i64_ops_module()),
    ("conversions", conversions_module()),
    ("memory-grow", memory_grow_module()),
    ("select-drop", select_drop_module()),
    ("many-locals", many_locals_module()),
    ("multi-type", multi_type_module()),
    ("custom-name", custom_name_module()),
    ("abort", abort_module()),
    ("deep-recursion", deep_recursion_module()),
    ("divide-trap", divide_trap_module()),
    ("oob-memory", oob_memory_module()),
    ("table-traps", table_traps_module()),
    ("nested-blocks", nested_blocks_module()),
    ("exported-kinds", exported_kinds_module()),
    ("i64-host", i64_host_module()),
    ("calculator", calculator_module()),
]

PAIRS = [
    ("empty", empty_module(), wl()),
    ("add", add_module(), wl(inv("add", i32v(2), i32v(3)), inv("add", i32v(-1), i32v(1)))),
    ("main-helper", main_helper_module(), wl(inv("main"))),
    ("indirect", indirect_module(), wl(inv("dispatch", i32v(1)))),
    ("unused-import", unused_import_module(), wl(inv("add2", i32v(2), i32v(3)))),
    ("used-import", used_import_module(), wl(inv("notify", i32v(42)))),
    (
        "memory-data",
        memory_data_module(),
        wl(
            inv("peek", i32v(8)),
            inv("poke", i32v(100), i32v(258)),
            inv("peek", i32v(100)),
            inv("peek", i32v(101)),
            inv("msize"),
        ),
    ),
    ("globals-counter", globals_counter_module(), wl(inv("inc"), inv("inc"), inv("get"))),
    ("start", start_module(), wl(inv("get"))),
    ("loop-count", loop_count_module(), wl(inv("sumto", i32v(4)), inv("sumto", i32v(0)))),
    (
        "br-table",
        br_table_module(),
        wl(inv("pick", i32v(0)), inv("pick", i32v(1)), inv("pick", i32v(7))),
    ),
    ("if-else", if_else_module(), wl(inv("nonzero", i32v(5)), inv("nonzero", i32v(0)))),
    (
        "floats32",
        floats32_module(),
        wl(inv("fadd", f32v(1.5), f32v(2.25)), inv("fsqrt", f32v(9.0)), inv("fsqrt", f32v(-4.0))),
    ),
    (
        "floats64",
        floats64_module(),
        wl(
            inv("fdiv", f64v(1.0), f64v(0.0)),
            inv("fdiv", f64v(-1.0), f64v(0.0)),
            inv("fmin", f64v(-0.0), f64v(0.0)),
        ),
    ),
    (
        "i64-ops",
        i64_ops_module(),
        wl(inv("shl", i64v(1), i64v(40)), inv("mul64", i64v(1 << 32), i64v(1 << 32))),
    ),
    (
        "conversions",
        conversions_module(),
        wl(inv("trunc", f64v(3.9)), inv("extend", i32v(-5)), inv("tof32", i32v(16777217))),
    ),
    (
        "memory-grow",
        memory_grow_module(),
        wl(inv("size"), inv("grow", i32v(1)), inv("size"), inv("grow", i32v(5)), inv("size")),
    ),
    (
        "select-drop",
        select_drop_module(),
        wl(inv("pickmax", i32v(3), i32v(9)), inv("pickmax", i32v(9), i32v(3)), inv("dropper")),
    ),
    ("many-locals", many_locals_module(), wl(inv("f"))),
    (
        "multi-type",
        multi_type_module(),
        wl(inv("nopf"), inv("idf", i32v(7)), inv("dbl", f64v(3.5))),
    ),
    ("custom-name", custom_name_module(), wl(inv("first"))),
    ("abort", abort_module(), wl(inv("fine"), inv("crash"))),
    ("deep-recursion", deep_recursion_module(), wl(inv("spin", i32v(0)))),
    ("divide-trap", divide_trap_module(), wl(inv("div0"), inv("ovf"))),
    (
        "oob-memory",
        oob_memory_module(),
        wl(inv("readi", i32v(65532)), inv("readi", i32v(65533))),
    ),
    (
        "table-traps",
        table_traps_module(),
        wl(
            inv("dispatch", i32v(0)),
            inv("dispatch", i32v(1)),
            inv("dispatch", i32v(2)),
            inv("dispatch", i32v(9)),
        ),
    ),
    (
        "nested-blocks",
        nested_blocks_module(),
        wl(inv("nested", i32v(0)), inv("nested", i32v(1))),
    ),
    ("exported-kinds", exported_kinds_module(), wl(inv("f"))),
    ("i64-host", i64_host_module(), wl(inv("notify64", i64v(1 << 40)))),
    ("calculator", calculator_module(), CALCULATOR_WORKLOAD),
]

# workload texts that json.loads or float() reject with an exception of
# their own, or that json.loads accepts although they are not JSON or
# repeat a key (it keeps the last), and the DocumentError each must become
HOSTILE_WORKLOADS = {
    "huge-f64": (
        '{"invocations": [{"func": "f", "args": [{"f64": %s}]}]}' % ("9" * 400),
        "$.invocations[0].args[0]: f64 literal out of range",
    ),
    "long-fuel": (
        '{"invocations": [], "fuel": %s}' % ("1" * 5001),
        "$: integer literal has too many digits",
    ),
    "deep-nesting": ("[" * 100_000, "$: document nested too deeply"),
    "nan-literal": (
        '{"invocations": [{"func": "f", "args": [{"f64": NaN}]}]}',
        '$: NaN is not JSON; write the string "nan"',
    ),
    "infinity-literal": (
        '{"invocations": [{"func": "f", "args": [{"f32": -Infinity}, {"f64": Infinity}]}]}',
        '$: -Infinity is not JSON; write the string "-inf"',
    ),
    "duplicate-document-keys": (
        '{"invocations": [{"func": "f"}], "invocations": [], "fuel": 5, "fuel": 7}',
        "$: duplicate field 'invocations'",
    ),
    "duplicate-invocation-key": (
        '{"invocations": [{"func": "f", "args": [], "func": "g"}]}',
        "$.invocations[0]: duplicate field 'func'",
    ),
    "duplicate-value-key": (
        '{"invocations": [{"func": "f", "args": [{"i32": 1}, {"i32": 1, "i32": 2}]}]}',
        "$.invocations[0].args[1]: duplicate field 'i32'",
    ),
}


def _check_fixtures():
    for name, m in ROUND_TRIP_MODULES:
        report = validate_module(m)
        assert report.ok, f"fixture {name} invalid: {report.errors}"


_check_fixtures()
