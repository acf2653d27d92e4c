"""Binary encoder for WebAssembly 1.0 modules.

Deterministic: sections in canonical id order, empty sections omitted,
minimal-length LEB128 throughout. Custom sections are appended after the
data section in their recorded order; their position relative to other
sections is not part of the Module representation.

``_SECTIONS`` lists the sections in that order, each with the ``Module``
field it writes, the name of its items and the ``Writer`` method that
writes one item, so ``encode`` writes the vector framing, the rule that
empty sections are left out and the location of a failure once. Start,
which holds one index rather than a vector, is the one exception. The
function and code sections both write ``functions``: a type index per
function, then its locals and body. A value the format cannot hold, a
field of the wrong type and an unbalanced body are each an
``EncodeError`` at their item, so the bytes returned always decode.
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
    Module,
)

_EXTERN_KIND_CODES = {"func": 0, "table": 1, "memory": 2, "global": 3}
# immediate kind per opcode; the ELSE and END markers have none and close an arm
_IMM = {code: info.imm for code, info in op.OPS.items()} | {op.ELSE: "close", op.END: "close"}


class Writer:
    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def byte(self, b: int) -> None:
        self.buf.append(b)

    def raw(self, data: bytes) -> None:
        self.buf += data

    def section(self, sec_id: int, payload: bytes) -> None:
        """A section or a name subsection: its id, its size, then ``payload``."""
        self.byte(sec_id)
        self.u32(len(payload))
        self.raw(payload)

    def u32(self, value: int) -> None:
        if type(value) is not int:
            raise TypeError(f"{value!r} is not an integer")
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

    def sleb(self, value: int, bits: int) -> None:
        if type(value) is not int:
            raise TypeError(f"{value!r} is not an integer")
        if not -(1 << (bits - 1)) <= value < 1 << (bits - 1):
            raise EncodeError(f"s{bits} out of range: {value}")
        while True:
            b = value & 0x7F
            value >>= 7
            if (value == 0 and not b & 0x40) or (value == -1 and b & 0x40):
                self.buf.append(b)
                return
            self.buf.append(b | 0x80)

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

    def table_type(self, lim: Limits) -> None:
        self.byte(op.FUNCREF_CODE)
        self.limits(lim)

    def global_type(self, gt: GlobalType) -> None:
        self.valtype(gt.valtype)
        if type(gt.mutable) is not bool:
            raise TypeError(f"{gt.mutable!r} is not a bool")
        self.byte(0x01 if gt.mutable else 0x00)

    def vector(self, write_item, items) -> None:
        """A vector: its length, then each item written by ``write_item``."""
        _check_vector(items)
        self.u32(len(items))
        for item in items:
            write_item(self, item)

    def func_type(self, ft: FuncType) -> None:
        self.byte(op.FUNCTYPE_CODE)
        self.vector(Writer.valtype, ft.params)
        self.vector(Writer.valtype, ft.results)

    def extern_kind(self, kind: str, what: str) -> None:
        if kind not in _EXTERN_KIND_CODES:
            raise EncodeError(f"invalid {what} kind {kind!r}")
        self.byte(_EXTERN_KIND_CODES[kind])

    def import_(self, imp: Import) -> None:
        self.name(imp.module)
        self.name(imp.name)
        self.extern_kind(imp.kind, "import")
        _IMPORT_DESCS[imp.kind](self, imp.desc)

    def function(self, fn: Function) -> None:
        self.u32(fn.type_index)

    def global_(self, g: Global) -> None:
        self.global_type(g.type)
        write_expr(self, g.init)

    def export(self, exp: Export) -> None:
        self.name(exp.name)
        self.extern_kind(exp.kind, "export")
        self.u32(exp.index)

    def element_segment(self, seg: ElementSegment) -> None:
        self.u32(seg.table_index)
        write_expr(self, seg.offset)
        self.vector(Writer.u32, seg.func_indices)

    def code_entry(self, fn: Function) -> None:
        entry = Writer()
        # runs of equal types, each one (count, type) group: a list built
        # here, so written without ``vector``'s check of its type
        groups = [(len(list(run)), vt) for vt, run in groupby(fn.locals)]
        entry.u32(len(groups))
        for group in groups:
            entry.local_group(group)
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


def _check_vector(items) -> None:
    if not isinstance(items, (tuple, list)):
        raise TypeError(f"{items!r} is not a tuple or list")


_IMPORT_DESCS = {
    "func": Writer.u32,
    "table": Writer.table_type,
    "memory": Writer.limits,
    "global": Writer.global_type,
}

# the writer of one item is None for start, one index rather than a vector
_SECTIONS = (
    (op.SEC_TYPE, "types", "type", Writer.func_type),
    (op.SEC_IMPORT, "imports", "import", Writer.import_),
    (op.SEC_FUNCTION, "functions", "func", Writer.function),
    (op.SEC_TABLE, "tables", "table", Writer.table_type),
    (op.SEC_MEMORY, "memories", "memory", Writer.limits),
    (op.SEC_GLOBAL, "globals", "global", Writer.global_),
    (op.SEC_EXPORT, "exports", "export", Writer.export),
    (op.SEC_START, "start", "start", None),
    (op.SEC_ELEMENT, "elements", "element", Writer.element_segment),
    (op.SEC_CODE, "functions", "func", Writer.code_entry),
    (op.SEC_DATA, "data", "data", Writer.data_segment),
)


def write_expr(w: Writer, body: Expr) -> None:
    """Write ``body`` and its final ``end``. An immediate of the wrong shape
    for its opcode raises ``EncodeError`` naming the mnemonic; so does an
    ``else`` or ``end`` out of place, or a construct left open."""
    opens = []  # per open construct, its opcode; ELSE once an if is in its else arm
    for instr in body:
        code = instr.opcode
        imm = _IMM.get(code) if type(code) is int else None
        if imm is None:
            what = f"0x{code:02x}" if type(code) is int else repr(code)
            raise EncodeError(f"unknown opcode {what}")
        w.byte(code)
        if imm == "":
            continue
        if imm == "close":
            if not opens:
                name = "end" if code == op.END else "else"
                raise EncodeError(f"{name}: no open block, loop or if")
            if code == op.END:
                opens.pop()
            elif opens[-1] != op.IF:
                raise EncodeError("else outside if")
            else:
                opens[-1] = op.ELSE
            continue
        try:
            if imm == "block":
                bt = instr.args[0]
                w.byte(op.BLOCKTYPE_EMPTY if bt is None else op.VALTYPE_CODES[bt])
                opens.append(code)
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
            elif imm in ("i32", "i64"):
                w.sleb(instr.args[0], 32 if imm == "i32" else 64)
            elif imm in ("f32", "f64"):  # the float's bits
                bits = instr.args[0]
                if type(bits) is not int:
                    raise TypeError(f"{bits!r} is not an integer")
                w.raw(bits.to_bytes(4 if imm == "f32" else 8, "little"))
            else:
                raise AssertionError(f"unhandled immediate kind {imm!r}")
        except (AttributeError, LookupError, OverflowError, TypeError, ValueError):
            raise EncodeError(f"{op.OPS[code].name}: malformed immediate {instr.args!r}") from None
    if opens:
        raise EncodeError(f"{len(opens)} construct(s) not closed at end of body")
    w.byte(op.END)


def encode(m: Module) -> bytes:
    """The bytes of ``m``; a failure raises ``EncodeError`` at the item being
    written, such as ``func[3]`` or ``custom[0]``, or else at its section."""
    out = Writer()
    out.raw(b"\x00asm\x01\x00\x00\x00")
    try:
        for sec_id, field, what, write_item in _SECTIONS:
            i = None
            value = getattr(m, field)
            if write_item is not None:
                _check_vector(value)
            if value is None or write_item is not None and not value:
                continue
            w = Writer()
            if write_item is None:
                w.u32(value)
            else:
                w.u32(len(value))
                for i, item in enumerate(value):
                    write_item(w, item)
            out.section(sec_id, w.buf)
        what, i = "custom", None
        _check_vector(m.custom_sections)
        for i, (name, payload) in enumerate(m.custom_sections):
            w = Writer()
            w.name(name)
            w.raw(payload)
            out.section(op.SEC_CUSTOM, w.buf)
    except (EncodeError, AttributeError, LookupError, TypeError, ValueError) as e:
        if what == "func" and i is not None:  # the imports are written by now
            i += sum(imp.kind == "func" for imp in m.imports or ())
        raise EncodeError(str(e), what if i is None else f"{what}[{i}]") from None
    return bytes(out.buf)
