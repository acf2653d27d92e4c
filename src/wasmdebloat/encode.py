"""Binary encoder for WebAssembly 1.0 modules.

Deterministic: sections in canonical id order, empty sections omitted,
minimal-length LEB128 throughout. Custom sections are appended after the
data section in their recorded order; their position relative to other
sections is not part of the Module representation.

``_SECTIONS`` lists the sections in that order, each with the ``Module``
field it writes and the ``Writer`` method that writes one item, so
``encode`` writes the vector framing and the rule that empty sections
are left out once. Start, which holds one index rather than a vector, is
the one exception. The function and code sections both write
``functions``: a type index per function, then its locals and body.
"""

from __future__ import annotations

from itertools import groupby

from . import opcodes as op
from .errors import EncodeError
from .module import (
    DataSegment,
    ElementSegment,
    Export,
    Expr,
    FuncType,
    Function,
    Global,
    GlobalType,
    Import,
    Limits,
    MemType,
    Module,
    TableType,
)

_EXTERN_KIND_CODES = {"func": 0, "table": 1, "memory": 2, "global": 3}
# immediate kind per opcode; the ELSE and END markers have none
_IMM = {code: info.imm for code, info in op.OPS.items()} | {op.ELSE: "", op.END: ""}


class Writer:
    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def byte(self, b: int) -> None:
        self.buf.append(b)

    def raw(self, data: bytes) -> None:
        self.buf += data

    def u32(self, value: int) -> None:
        if not 0 <= value < 1 << 32:
            raise EncodeError(f"u32 out of range: {value}")
        while True:
            b = value & 0x7F
            value >>= 7
            if value:
                self.buf.append(b | 0x80)
            else:
                self.buf.append(b)
                return

    def _sleb(self, value: int, bits: int) -> None:
        if not -(1 << (bits - 1)) <= value < 1 << (bits - 1):
            raise EncodeError(f"s{bits} out of range: {value}")
        while True:
            b = value & 0x7F
            value >>= 7
            if (value == 0 and not b & 0x40) or (value == -1 and b & 0x40):
                self.buf.append(b)
                return
            self.buf.append(b | 0x80)

    def s32(self, value: int) -> None:
        self._sleb(value, 32)

    def s64(self, value: int) -> None:
        self._sleb(value, 64)

    def name(self, text: str) -> None:
        raw = text.encode("utf-8")
        self.u32(len(raw))
        self.raw(raw)

    def valtype(self, vt: str) -> None:
        if vt not in op.VALTYPE_CODES:
            raise EncodeError(f"not a WebAssembly 1.0 value type: {vt!r}")
        self.byte(op.VALTYPE_CODES[vt])

    def limits(self, lim: Limits) -> None:
        self.byte(0x00 if lim.maximum is None else 0x01)
        self.u32(lim.minimum)
        if lim.maximum is not None:
            self.u32(lim.maximum)

    def table_type(self, tt: TableType) -> None:
        self.byte(op.FUNCREF_CODE)
        self.limits(tt.limits)

    def global_type(self, gt: GlobalType) -> None:
        self.valtype(gt.valtype)
        self.byte(0x01 if gt.mutable else 0x00)

    def mem_type(self, mt: MemType) -> None:
        self.limits(mt.limits)

    def vector(self, write_item, items) -> None:
        """A vector: its length, then each item written by ``write_item``."""
        self.u32(len(items))
        for item in items:
            write_item(self, item)

    def func_type(self, ft: FuncType) -> None:
        self.byte(op.FUNCTYPE_CODE)
        self.vector(Writer.valtype, ft.params)
        self.vector(Writer.valtype, ft.results)

    def import_(self, imp: Import) -> None:
        self.name(imp.module)
        self.name(imp.name)
        self.byte(_EXTERN_KIND_CODES[imp.kind])
        _IMPORT_DESCS[imp.kind](self, imp.desc)

    def function(self, fn: Function) -> None:
        self.u32(fn.type_index)

    def global_(self, g: Global) -> None:
        self.global_type(g.type)
        write_expr(self, g.init)

    def export(self, exp: Export) -> None:
        self.name(exp.name)
        self.byte(_EXTERN_KIND_CODES[exp.kind])
        self.u32(exp.index)

    def element_segment(self, seg: ElementSegment) -> None:
        self.u32(seg.table_index)
        write_expr(self, seg.offset)
        self.vector(Writer.u32, seg.func_indices)

    def code_entry(self, fn: Function) -> None:
        entry = Writer()
        # runs of equal types, each one (count, type) group
        groups = [(len(list(run)), vt) for vt, run in groupby(fn.locals)]
        entry.vector(Writer.local_group, groups)
        write_expr(entry, fn.body)
        self.u32(len(entry.buf))
        self.raw(entry.buf)

    def local_group(self, group: tuple[int, str]) -> None:
        count, vt = group
        self.u32(count)
        self.valtype(vt)

    def data_segment(self, seg: DataSegment) -> None:
        self.u32(seg.memory_index)
        write_expr(self, seg.offset)
        self.u32(len(seg.data))
        self.raw(seg.data)


_IMPORT_DESCS = {
    "func": Writer.u32,
    "table": Writer.table_type,
    "memory": Writer.mem_type,
    "global": Writer.global_type,
}

# the writer of one item is None for start, one index rather than a vector
_SECTIONS = (
    (op.SEC_TYPE, "types", Writer.func_type),
    (op.SEC_IMPORT, "imports", Writer.import_),
    (op.SEC_FUNCTION, "functions", Writer.function),
    (op.SEC_TABLE, "tables", Writer.table_type),
    (op.SEC_MEMORY, "memories", Writer.mem_type),
    (op.SEC_GLOBAL, "globals", Writer.global_),
    (op.SEC_EXPORT, "exports", Writer.export),
    (op.SEC_START, "start", None),
    (op.SEC_ELEMENT, "elements", Writer.element_segment),
    (op.SEC_CODE, "functions", Writer.code_entry),
    (op.SEC_DATA, "data", Writer.data_segment),
)


def write_expr(w: Writer, body: Expr) -> None:
    """Write ``body`` and its final ``end``. An immediate of the wrong shape
    for its opcode raises ``EncodeError`` naming the mnemonic."""
    for instr in body:
        code = instr.opcode
        imm = _IMM.get(code)
        if imm is None:
            what = f"0x{code:02x}" if type(code) is int else repr(code)
            raise EncodeError(f"unknown opcode {what}")
        w.byte(code)
        if imm == "":
            continue
        try:
            if imm == "block":
                bt = instr.args[0]
                w.byte(op.BLOCKTYPE_EMPTY if bt is None else op.VALTYPE_CODES[bt])
            elif imm == "index":
                w.u32(instr.args[0])
            elif imm == "br_table":
                labels, default = instr.args
                w.vector(Writer.u32, labels)
                w.u32(default)
            elif imm == "call_indirect":
                w.u32(instr.args[0])
                w.byte(0x00)
            elif imm == "memarg":
                align, offset = instr.args
                w.u32(align)
                w.u32(offset)
            elif imm == "memidx":
                w.byte(0x00)
            elif imm == "i32":
                w.s32(instr.args[0])
            elif imm == "i64":
                w.s64(instr.args[0])
            elif imm == "f32":
                w.raw(instr.args[0].to_bytes(4, "little"))
            elif imm == "f64":
                w.raw(instr.args[0].to_bytes(8, "little"))
            else:
                raise AssertionError(f"unhandled immediate kind {imm!r}")
        except (AttributeError, LookupError, OverflowError, TypeError, ValueError):
            raise EncodeError(f"{op.OPS[code].name}: malformed immediate {instr.args!r}") from None
    w.byte(op.END)


def _section(out: Writer, sec_id: int, payload: Writer) -> None:
    out.byte(sec_id)
    out.u32(len(payload.buf))
    out.raw(payload.buf)


def encode(m: Module) -> bytes:
    out = Writer()
    out.raw(b"\x00asm\x01\x00\x00\x00")
    for sec_id, field, write_item in _SECTIONS:
        value = getattr(m, field)
        if value is None or write_item is not None and not value:
            continue
        w = Writer()
        if write_item is None:
            w.u32(value)
        else:
            w.vector(write_item, value)
        _section(out, sec_id, w)

    for name, payload in m.custom_sections:
        w = Writer()
        w.name(name)
        w.raw(payload)
        _section(out, op.SEC_CUSTOM, w)

    return bytes(out.buf)
