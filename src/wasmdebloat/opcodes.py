"""WebAssembly 1.0 (MVP) opcode tables.

One entry per opcode: mnemonic, immediate layout, and the stack signature
for the "simple" instructions whose typing is context-free. Control flow,
calls, parametric and variable instructions carry ``None`` signatures and
are handled explicitly by the validator and the interpreter.
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


def _simple(name: str, pops: tuple[str, ...], pushes: tuple[str, ...]) -> Op:
    return Op(name, "", pops, pushes)


def _load(name: str, t: str, width: int) -> Op:
    return Op(name, "memarg", (I32,), (t,), width)


def _store(name: str, t: str, width: int) -> Op:
    return Op(name, "memarg", (I32, t), (), width)


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
    0x28: _load("i32.load", I32, 4),
    0x29: _load("i64.load", I64, 8),
    0x2A: _load("f32.load", F32, 4),
    0x2B: _load("f64.load", F64, 8),
    0x2C: _load("i32.load8_s", I32, 1),
    0x2D: _load("i32.load8_u", I32, 1),
    0x2E: _load("i32.load16_s", I32, 2),
    0x2F: _load("i32.load16_u", I32, 2),
    0x30: _load("i64.load8_s", I64, 1),
    0x31: _load("i64.load8_u", I64, 1),
    0x32: _load("i64.load16_s", I64, 2),
    0x33: _load("i64.load16_u", I64, 2),
    0x34: _load("i64.load32_s", I64, 4),
    0x35: _load("i64.load32_u", I64, 4),
    0x36: _store("i32.store", I32, 4),
    0x37: _store("i64.store", I64, 8),
    0x38: _store("f32.store", F32, 4),
    0x39: _store("f64.store", F64, 8),
    0x3A: _store("i32.store8", I32, 1),
    0x3B: _store("i32.store16", I32, 2),
    0x3C: _store("i64.store8", I64, 1),
    0x3D: _store("i64.store16", I64, 2),
    0x3E: _store("i64.store32", I64, 4),
    MEMORY_SIZE: Op("memory.size", "memidx", (), (I32,)),
    MEMORY_GROW: Op("memory.grow", "memidx", (I32,), (I32,)),
    I32_CONST: Op("i32.const", "i32", (), (I32,)),
    I64_CONST: Op("i64.const", "i64", (), (I64,)),
    F32_CONST: Op("f32.const", "f32", (), (F32,)),
    F64_CONST: Op("f64.const", "f64", (), (F64,)),
    0x45: _simple("i32.eqz", (I32,), (I32,)),
    0x46: _simple("i32.eq", (I32, I32), (I32,)),
    0x47: _simple("i32.ne", (I32, I32), (I32,)),
    0x48: _simple("i32.lt_s", (I32, I32), (I32,)),
    0x49: _simple("i32.lt_u", (I32, I32), (I32,)),
    0x4A: _simple("i32.gt_s", (I32, I32), (I32,)),
    0x4B: _simple("i32.gt_u", (I32, I32), (I32,)),
    0x4C: _simple("i32.le_s", (I32, I32), (I32,)),
    0x4D: _simple("i32.le_u", (I32, I32), (I32,)),
    0x4E: _simple("i32.ge_s", (I32, I32), (I32,)),
    0x4F: _simple("i32.ge_u", (I32, I32), (I32,)),
    0x50: _simple("i64.eqz", (I64,), (I32,)),
    0x51: _simple("i64.eq", (I64, I64), (I32,)),
    0x52: _simple("i64.ne", (I64, I64), (I32,)),
    0x53: _simple("i64.lt_s", (I64, I64), (I32,)),
    0x54: _simple("i64.lt_u", (I64, I64), (I32,)),
    0x55: _simple("i64.gt_s", (I64, I64), (I32,)),
    0x56: _simple("i64.gt_u", (I64, I64), (I32,)),
    0x57: _simple("i64.le_s", (I64, I64), (I32,)),
    0x58: _simple("i64.le_u", (I64, I64), (I32,)),
    0x59: _simple("i64.ge_s", (I64, I64), (I32,)),
    0x5A: _simple("i64.ge_u", (I64, I64), (I32,)),
    0x5B: _simple("f32.eq", (F32, F32), (I32,)),
    0x5C: _simple("f32.ne", (F32, F32), (I32,)),
    0x5D: _simple("f32.lt", (F32, F32), (I32,)),
    0x5E: _simple("f32.gt", (F32, F32), (I32,)),
    0x5F: _simple("f32.le", (F32, F32), (I32,)),
    0x60: _simple("f32.ge", (F32, F32), (I32,)),
    0x61: _simple("f64.eq", (F64, F64), (I32,)),
    0x62: _simple("f64.ne", (F64, F64), (I32,)),
    0x63: _simple("f64.lt", (F64, F64), (I32,)),
    0x64: _simple("f64.gt", (F64, F64), (I32,)),
    0x65: _simple("f64.le", (F64, F64), (I32,)),
    0x66: _simple("f64.ge", (F64, F64), (I32,)),
    0x67: _simple("i32.clz", (I32,), (I32,)),
    0x68: _simple("i32.ctz", (I32,), (I32,)),
    0x69: _simple("i32.popcnt", (I32,), (I32,)),
    0x6A: _simple("i32.add", (I32, I32), (I32,)),
    0x6B: _simple("i32.sub", (I32, I32), (I32,)),
    0x6C: _simple("i32.mul", (I32, I32), (I32,)),
    0x6D: _simple("i32.div_s", (I32, I32), (I32,)),
    0x6E: _simple("i32.div_u", (I32, I32), (I32,)),
    0x6F: _simple("i32.rem_s", (I32, I32), (I32,)),
    0x70: _simple("i32.rem_u", (I32, I32), (I32,)),
    0x71: _simple("i32.and", (I32, I32), (I32,)),
    0x72: _simple("i32.or", (I32, I32), (I32,)),
    0x73: _simple("i32.xor", (I32, I32), (I32,)),
    0x74: _simple("i32.shl", (I32, I32), (I32,)),
    0x75: _simple("i32.shr_s", (I32, I32), (I32,)),
    0x76: _simple("i32.shr_u", (I32, I32), (I32,)),
    0x77: _simple("i32.rotl", (I32, I32), (I32,)),
    0x78: _simple("i32.rotr", (I32, I32), (I32,)),
    0x79: _simple("i64.clz", (I64,), (I64,)),
    0x7A: _simple("i64.ctz", (I64,), (I64,)),
    0x7B: _simple("i64.popcnt", (I64,), (I64,)),
    0x7C: _simple("i64.add", (I64, I64), (I64,)),
    0x7D: _simple("i64.sub", (I64, I64), (I64,)),
    0x7E: _simple("i64.mul", (I64, I64), (I64,)),
    0x7F: _simple("i64.div_s", (I64, I64), (I64,)),
    0x80: _simple("i64.div_u", (I64, I64), (I64,)),
    0x81: _simple("i64.rem_s", (I64, I64), (I64,)),
    0x82: _simple("i64.rem_u", (I64, I64), (I64,)),
    0x83: _simple("i64.and", (I64, I64), (I64,)),
    0x84: _simple("i64.or", (I64, I64), (I64,)),
    0x85: _simple("i64.xor", (I64, I64), (I64,)),
    0x86: _simple("i64.shl", (I64, I64), (I64,)),
    0x87: _simple("i64.shr_s", (I64, I64), (I64,)),
    0x88: _simple("i64.shr_u", (I64, I64), (I64,)),
    0x89: _simple("i64.rotl", (I64, I64), (I64,)),
    0x8A: _simple("i64.rotr", (I64, I64), (I64,)),
    0x8B: _simple("f32.abs", (F32,), (F32,)),
    0x8C: _simple("f32.neg", (F32,), (F32,)),
    0x8D: _simple("f32.ceil", (F32,), (F32,)),
    0x8E: _simple("f32.floor", (F32,), (F32,)),
    0x8F: _simple("f32.trunc", (F32,), (F32,)),
    0x90: _simple("f32.nearest", (F32,), (F32,)),
    0x91: _simple("f32.sqrt", (F32,), (F32,)),
    0x92: _simple("f32.add", (F32, F32), (F32,)),
    0x93: _simple("f32.sub", (F32, F32), (F32,)),
    0x94: _simple("f32.mul", (F32, F32), (F32,)),
    0x95: _simple("f32.div", (F32, F32), (F32,)),
    0x96: _simple("f32.min", (F32, F32), (F32,)),
    0x97: _simple("f32.max", (F32, F32), (F32,)),
    0x98: _simple("f32.copysign", (F32, F32), (F32,)),
    0x99: _simple("f64.abs", (F64,), (F64,)),
    0x9A: _simple("f64.neg", (F64,), (F64,)),
    0x9B: _simple("f64.ceil", (F64,), (F64,)),
    0x9C: _simple("f64.floor", (F64,), (F64,)),
    0x9D: _simple("f64.trunc", (F64,), (F64,)),
    0x9E: _simple("f64.nearest", (F64,), (F64,)),
    0x9F: _simple("f64.sqrt", (F64,), (F64,)),
    0xA0: _simple("f64.add", (F64, F64), (F64,)),
    0xA1: _simple("f64.sub", (F64, F64), (F64,)),
    0xA2: _simple("f64.mul", (F64, F64), (F64,)),
    0xA3: _simple("f64.div", (F64, F64), (F64,)),
    0xA4: _simple("f64.min", (F64, F64), (F64,)),
    0xA5: _simple("f64.max", (F64, F64), (F64,)),
    0xA6: _simple("f64.copysign", (F64, F64), (F64,)),
    0xA7: _simple("i32.wrap_i64", (I64,), (I32,)),
    0xA8: _simple("i32.trunc_f32_s", (F32,), (I32,)),
    0xA9: _simple("i32.trunc_f32_u", (F32,), (I32,)),
    0xAA: _simple("i32.trunc_f64_s", (F64,), (I32,)),
    0xAB: _simple("i32.trunc_f64_u", (F64,), (I32,)),
    0xAC: _simple("i64.extend_i32_s", (I32,), (I64,)),
    0xAD: _simple("i64.extend_i32_u", (I32,), (I64,)),
    0xAE: _simple("i64.trunc_f32_s", (F32,), (I64,)),
    0xAF: _simple("i64.trunc_f32_u", (F32,), (I64,)),
    0xB0: _simple("i64.trunc_f64_s", (F64,), (I64,)),
    0xB1: _simple("i64.trunc_f64_u", (F64,), (I64,)),
    0xB2: _simple("f32.convert_i32_s", (I32,), (F32,)),
    0xB3: _simple("f32.convert_i32_u", (I32,), (F32,)),
    0xB4: _simple("f32.convert_i64_s", (I64,), (F32,)),
    0xB5: _simple("f32.convert_i64_u", (I64,), (F32,)),
    0xB6: _simple("f32.demote_f64", (F64,), (F32,)),
    0xB7: _simple("f64.convert_i32_s", (I32,), (F64,)),
    0xB8: _simple("f64.convert_i32_u", (I32,), (F64,)),
    0xB9: _simple("f64.convert_i64_s", (I64,), (F64,)),
    0xBA: _simple("f64.convert_i64_u", (I64,), (F64,)),
    0xBB: _simple("f64.promote_f32", (F32,), (F64,)),
    0xBC: _simple("i32.reinterpret_f32", (F32,), (I32,)),
    0xBD: _simple("i64.reinterpret_f64", (F64,), (I64,)),
    0xBE: _simple("f32.reinterpret_i32", (I32,), (F32,)),
    0xBF: _simple("f64.reinterpret_i64", (I64,), (F64,)),
}

NAME_TO_OPCODE = {op.name: code for code, op in OPS.items()}
