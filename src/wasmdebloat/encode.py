"""Binary encoder for WebAssembly 1.0 modules.

Deterministic: sections in canonical id order, empty sections omitted,
minimal-length LEB128 throughout. Custom sections are appended after the
data section in their recorded order; their position relative to other
sections is not part of the Module representation.
"""

from __future__ import annotations

from . import opcodes as op
from .errors import EncodeError
from .module import Expr, FuncType, GlobalType, Limits, Module, TableType

_EXPORT_KIND_CODES = {"func": 0, "table": 1, "memory": 2, "global": 3}
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
        self.byte(op.VALTYPE_CODES[vt])

    def limits(self, lim: Limits) -> None:
        if lim.maximum is None:
            self.byte(0x00)
            self.u32(lim.minimum)
        else:
            self.byte(0x01)
            self.u32(lim.minimum)
            self.u32(lim.maximum)

    def table_type(self, tt: TableType) -> None:
        self.byte(op.FUNCREF_CODE)
        self.limits(tt.limits)

    def global_type(self, gt: GlobalType) -> None:
        self.valtype(gt.valtype)
        self.byte(0x01 if gt.mutable else 0x00)

    def func_type(self, ft: FuncType) -> None:
        self.byte(op.FUNCTYPE_CODE)
        self.u32(len(ft.params))
        for vt in ft.params:
            self.valtype(vt)
        self.u32(len(ft.results))
        for vt in ft.results:
            self.valtype(vt)


def write_expr(w: Writer, body: Expr) -> None:
    """Write ``body`` and its final ``end``."""
    for instr in body:
        code = instr.opcode
        w.byte(code)
        imm = _IMM[code]
        if imm == "":
            continue
        if imm == "block":
            bt = instr.args[0]
            w.byte(op.BLOCKTYPE_EMPTY if bt is None else op.VALTYPE_CODES[bt])
        elif imm == "index":
            w.u32(instr.args[0])
        elif imm == "br_table":
            labels, default = instr.args
            w.u32(len(labels))
            for label in labels:
                w.u32(label)
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
    w.byte(op.END)


def _group_locals(locals_: tuple[str, ...]) -> list[tuple[int, str]]:
    groups: list[tuple[int, str]] = []
    for vt in locals_:
        if groups and groups[-1][1] == vt:
            groups[-1] = (groups[-1][0] + 1, vt)
        else:
            groups.append((1, vt))
    return groups


def _section(out: Writer, sec_id: int, payload: Writer) -> None:
    out.byte(sec_id)
    out.u32(len(payload.buf))
    out.raw(bytes(payload.buf))


def encode(m: Module) -> bytes:
    out = Writer()
    out.raw(b"\x00asm\x01\x00\x00\x00")

    if m.types:
        w = Writer()
        w.u32(len(m.types))
        for ft in m.types:
            w.func_type(ft)
        _section(out, op.SEC_TYPE, w)

    if m.imports:
        w = Writer()
        w.u32(len(m.imports))
        for imp in m.imports:
            w.name(imp.module)
            w.name(imp.name)
            w.byte(_EXPORT_KIND_CODES[imp.kind])
            if imp.kind == "func":
                assert isinstance(imp.desc, int)
                w.u32(imp.desc)
            elif imp.kind == "table":
                w.table_type(imp.desc)
            elif imp.kind == "memory":
                w.limits(imp.desc.limits)
            else:
                w.global_type(imp.desc)
        _section(out, op.SEC_IMPORT, w)

    if m.functions:
        w = Writer()
        w.u32(len(m.functions))
        for fn in m.functions:
            w.u32(fn.type_index)
        _section(out, op.SEC_FUNCTION, w)

    if m.tables:
        w = Writer()
        w.u32(len(m.tables))
        for tt in m.tables:
            w.table_type(tt)
        _section(out, op.SEC_TABLE, w)

    if m.memories:
        w = Writer()
        w.u32(len(m.memories))
        for mt in m.memories:
            w.limits(mt.limits)
        _section(out, op.SEC_MEMORY, w)

    if m.globals:
        w = Writer()
        w.u32(len(m.globals))
        for g in m.globals:
            w.global_type(g.type)
            write_expr(w, g.init)
        _section(out, op.SEC_GLOBAL, w)

    if m.exports:
        w = Writer()
        w.u32(len(m.exports))
        for exp in m.exports:
            w.name(exp.name)
            w.byte(_EXPORT_KIND_CODES[exp.kind])
            w.u32(exp.index)
        _section(out, op.SEC_EXPORT, w)

    if m.start is not None:
        w = Writer()
        w.u32(m.start)
        _section(out, op.SEC_START, w)

    if m.elements:
        w = Writer()
        w.u32(len(m.elements))
        for seg in m.elements:
            w.u32(seg.table_index)
            write_expr(w, seg.offset)
            w.u32(len(seg.func_indices))
            for idx in seg.func_indices:
                w.u32(idx)
        _section(out, op.SEC_ELEMENT, w)

    if m.functions:
        w = Writer()
        w.u32(len(m.functions))
        for fn in m.functions:
            entry = Writer()
            groups = _group_locals(fn.locals)
            entry.u32(len(groups))
            for count, vt in groups:
                entry.u32(count)
                entry.valtype(vt)
            write_expr(entry, fn.body)
            w.u32(len(entry.buf))
            w.raw(bytes(entry.buf))
        _section(out, op.SEC_CODE, w)

    if m.data:
        w = Writer()
        w.u32(len(m.data))
        for seg in m.data:
            w.u32(seg.memory_index)
            write_expr(w, seg.offset)
            w.u32(len(seg.data))
            w.raw(seg.data)
        _section(out, op.SEC_DATA, w)

    for name, payload in m.custom_sections:
        w = Writer()
        w.name(name)
        w.raw(payload)
        _section(out, op.SEC_CUSTOM, w)

    return bytes(out.buf)
