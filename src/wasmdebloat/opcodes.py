"""WebAssembly 1.0 (MVP) opcode tables.

One entry per opcode: mnemonic, immediate layout, and the stack signature
for the "simple" instructions whose typing is context-free. Control flow,
calls, parametric and variable instructions carry ``None`` signatures and
are handled explicitly by the validator and the interpreter.

The memory and numeric instructions (WebAssembly Core Specification 1.0,
sections 2.4, 3.3 and 5.4) are typed from their mnemonics by ``_op``,
one run of opcodes per row of ``_ROWS``. With ``t`` the type before the dot:
- ``t.load*`` is ``[i32] -> [t]`` and ``t.store*`` is ``[i32 t] -> []``;
  the width accessed is the one in the name (``load8_s``), or else ``t``'s.
- ``t.eqz`` is ``[t] -> [i32]``; a comparison (``_COMPARISONS``, with or
  without ``_s``/``_u``) is ``[t t] -> [i32]``.
- A conversion ``t.op_t2`` or ``t.op_t2_sx`` is ``[t2] -> [t]``.
- Any other operator is ``[t] -> [t]`` if unary (``_UNARY``), else
  ``[t t] -> [t]``.
"""

from __future__ import annotations

from dataclasses import dataclass

I32 = "i32"
I64 = "i64"
F32 = "f32"
F64 = "f64"

VAL_TYPES = (I32, I64, F32, F64)

# value-type byte encodings
VALTYPE_CODES = {I32: 0x7F, I64: 0x7E, F32: 0x7D, F64: 0x7C}
CODE_VALTYPES = {v: k for k, v in VALTYPE_CODES.items()}

BLOCKTYPE_EMPTY = 0x40
FUNCREF_CODE = 0x70
FUNCTYPE_CODE = 0x60

# section ids
SEC_CUSTOM = 0
SEC_TYPE = 1
SEC_IMPORT = 2
SEC_FUNCTION = 3
SEC_TABLE = 4
SEC_MEMORY = 5
SEC_GLOBAL = 6
SEC_EXPORT = 7
SEC_START = 8
SEC_ELEMENT = 9
SEC_CODE = 10
SEC_DATA = 11

SECTION_NAMES = {
    SEC_CUSTOM: "custom",
    SEC_TYPE: "type",
    SEC_IMPORT: "import",
    SEC_FUNCTION: "function",
    SEC_TABLE: "table",
    SEC_MEMORY: "memory",
    SEC_GLOBAL: "global",
    SEC_EXPORT: "export",
    SEC_START: "start",
    SEC_ELEMENT: "element",
    SEC_CODE: "code",
    SEC_DATA: "data",
}

# control
UNREACHABLE = 0x00
NOP = 0x01
BLOCK = 0x02
LOOP = 0x03
IF = 0x04
ELSE = 0x05
END = 0x0B
BR = 0x0C
BR_IF = 0x0D
BR_TABLE = 0x0E
RETURN = 0x0F
CALL = 0x10
CALL_INDIRECT = 0x11

# parametric
DROP = 0x1A
SELECT = 0x1B

# variable
LOCAL_GET = 0x20
LOCAL_SET = 0x21
LOCAL_TEE = 0x22
GLOBAL_GET = 0x23
GLOBAL_SET = 0x24

# memory administration
MEMORY_SIZE = 0x3F
MEMORY_GROW = 0x40

# constants
I32_CONST = 0x41
I64_CONST = 0x42
F32_CONST = 0x43
F64_CONST = 0x44


@dataclass(frozen=True)
class Op:
    name: str
    # immediate layout: '' | 'block' (a block type) | 'index' (one u32)
    # | 'br_table' | 'call_indirect' | 'memarg' | 'memidx'
    # | 'i32' | 'i64' | 'f32' | 'f64'
    imm: str = ""
    pops: tuple[str, ...] | None = None
    pushes: tuple[str, ...] | None = None
    width: int = 0  # accessed byte width for memory instructions


def _widths(types: str, ops: str) -> str:
    """One operator family written out for each type of ``types``, in turn."""
    return " ".join(f"{t}.{o}" for t in types.split() for o in ops.split())


# the memory and numeric instructions: each row is a run of mnemonics in
# opcode order, keyed by its first opcode
_ROWS = {
    0x28: "i32.load i64.load f32.load f64.load i32.load8_s i32.load8_u i32.load16_s i32.load16_u"
    " i64.load8_s i64.load8_u i64.load16_s i64.load16_u i64.load32_s i64.load32_u i32.store"
    " i64.store f32.store f64.store i32.store8 i32.store16 i64.store8 i64.store16 i64.store32",
    0x45: _widths("i32 i64", "eqz eq ne lt_s lt_u gt_s gt_u le_s le_u ge_s ge_u"),
    0x5B: _widths("f32 f64", "eq ne lt gt le ge"),
    0x67: _widths("i32 i64", "clz ctz popcnt add sub mul div_s div_u rem_s rem_u and or xor shl"
                  " shr_s shr_u rotl rotr"),
    0x8B: _widths("f32 f64", "abs neg ceil floor trunc nearest sqrt add sub mul div min max"
                  " copysign"),
    0xA7: "i32.wrap_i64 i32.trunc_f32_s i32.trunc_f32_u i32.trunc_f64_s i32.trunc_f64_u"
    " i64.extend_i32_s i64.extend_i32_u i64.trunc_f32_s i64.trunc_f32_u i64.trunc_f64_s"
    " i64.trunc_f64_u f32.convert_i32_s f32.convert_i32_u f32.convert_i64_s f32.convert_i64_u"
    " f32.demote_f64 f64.convert_i32_s f64.convert_i32_u f64.convert_i64_s f64.convert_i64_u"
    " f64.promote_f32 i32.reinterpret_f32 i64.reinterpret_f64 f32.reinterpret_i32"
    " f64.reinterpret_i64",
}
_UNARY = {"clz", "ctz", "popcnt", "abs", "neg", "ceil", "floor", "trunc", "nearest", "sqrt"}
_COMPARISONS = {"eq", "ne", "lt", "gt", "le", "ge"}


def _op(name: str) -> Op:
    """The entry of the memory or numeric instruction ``name``, typed by
    the rules in the module docstring."""
    t, _, mnemonic = name.partition(".")
    base, _, suffix = mnemonic.partition("_")
    if base.startswith("load"):
        return Op(name, "memarg", (I32,), (t,), int(base[4:] or t[1:]) // 8)
    if base.startswith("store"):
        return Op(name, "memarg", (I32, t), (), int(base[5:] or t[1:]) // 8)
    if base == "eqz":
        return Op(name, "", (t,), (I32,))
    if base in _COMPARISONS:
        return Op(name, "", (t, t), (I32,))
    if suffix[:3] in VAL_TYPES:  # a conversion from the type it names
        return Op(name, "", (suffix[:3],), (t,))
    return Op(name, "", (t,) if base in _UNARY else (t, t), (t,))


OPS: dict[int, Op] = {
    UNREACHABLE: Op("unreachable"),
    NOP: Op("nop"),
    BLOCK: Op("block", "block"),
    LOOP: Op("loop", "block"),
    IF: Op("if", "block"),
    BR: Op("br", "index"),
    BR_IF: Op("br_if", "index"),
    BR_TABLE: Op("br_table", "br_table"),
    RETURN: Op("return"),
    CALL: Op("call", "index"),
    CALL_INDIRECT: Op("call_indirect", "call_indirect"),
    DROP: Op("drop"),
    SELECT: Op("select"),
    LOCAL_GET: Op("local.get", "index"),
    LOCAL_SET: Op("local.set", "index"),
    LOCAL_TEE: Op("local.tee", "index"),
    GLOBAL_GET: Op("global.get", "index"),
    GLOBAL_SET: Op("global.set", "index"),
    MEMORY_SIZE: Op("memory.size", "memidx", (), (I32,)),
    MEMORY_GROW: Op("memory.grow", "memidx", (I32,), (I32,)),
    I32_CONST: Op("i32.const", "i32", (), (I32,)),
    I64_CONST: Op("i64.const", "i64", (), (I64,)),
    F32_CONST: Op("f32.const", "f32", (), (F32,)),
    F64_CONST: Op("f64.const", "f64", (), (F64,)),
}
for _first, _names in _ROWS.items():
    OPS.update((_first + i, _op(name)) for i, name in enumerate(_names.split()))
OPS = dict(sorted(OPS.items()))  # ascending opcode order

NAME_TO_OPCODE = {op.name: code for code, op in OPS.items()}
