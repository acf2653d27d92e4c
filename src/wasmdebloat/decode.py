"""Binary decoder for WebAssembly 1.0 modules.

Structural concerns only: grammar, LEB128 bounds, section ordering and
sizing, opcode coverage. Index bounds and typing live in validate.

LEB128 integers are accepted in non-minimal (padded) encodings as long as
they fit the declared bit width and byte budget; the encoder always emits
minimal forms, so byte-identity with arbitrary inputs is not promised.
One reader pair, ``_uleb`` and ``_sleb``, reads every LEB128 integer,
through ``Reader.u32`` or directly in ``read_expr``. Only a one-byte
immediate, which can break no bound, is read inline in ``read_expr``.
``MAX_LOCALS`` caps the expanded locals of all bodies together, so a
short input cannot declare a million locals in each of many bodies.

``_SECTIONS`` maps each non-custom section id to the ``Module`` field it
fills and the ``Reader`` method that reads one item of its vector, so
``decode`` writes the vector framing and the section order once. Start
holds one index, not a vector, and has no item reader. The function and
code sections both fill ``functions``: type indices and bodies are
joined after the walk. One walk over the section headers, ``_sections``,
serves both ``decode`` and ``section_sizes``.
"""

from __future__ import annotations

from typing import Iterator

from . import opcodes as op
from .errors import MalformedBinary
from .module import (
    ELSE,
    END,
    DataSegment,
    ElementSegment,
    Export,
    Expr,
    FuncType,
    Function,
    Global,
    GlobalType,
    Import,
    Instruction,
    Limits,
    MemType,
    Module,
    TableType,
)

MAGIC = b"\x00asm"
VERSION = b"\x01\x00\x00\x00"

# expanded-locals cap over all function bodies of a module; far beyond
# realistic modules, small enough that hostile counts can't balloon memory
MAX_LOCALS = 1_000_000

# deepest block/loop/if nesting accepted in one body: a cap on hostile
# input, like MAX_LOCALS. No pass recurses per level, so it bounds the
# size of explicit stacks, not the Python recursion depth.
MAX_NESTING = 6_000

_EXTERN_KINDS = {0: "func", 1: "table", 2: "memory", 3: "global"}
_BLOCKTYPES = {op.BLOCKTYPE_EMPTY: None, **op.CODE_VALTYPES}

# read_expr's dispatch, indexed by opcode byte: the opcode's immediate
# kind (``Op.imm``), and "else"/"end" for those two bytes. None marks a
# byte that is no opcode.
_KIND: list[str | None] = [None] * 256
for _code, _info in op.OPS.items():
    _KIND[_code] = _info.imm
_KIND[op.ELSE] = "else"
_KIND[op.END] = "end"
# every immediate-free instruction decoded is one of these shared objects
_BARE = [Instruction(c) if k in ("", "memidx") else None for c, k in enumerate(_KIND)]
# and every block, loop and if header one of these, per (opcode, block type byte)
_HEADERS = {
    (code, bt): Instruction(code, (_BLOCKTYPES[bt],))
    for code in (op.BLOCK, op.LOOP, op.IF)
    for bt in _BLOCKTYPES
}


def _uleb(data: bytes, pos: int, end: int, bits: int) -> tuple[int, int]:
    """The unsigned LEB128 integer of at most ``bits`` bits at ``pos``,
    and the position after it. The only unsigned LEB128 reader."""
    start = pos
    stop = pos + (bits + 6) // 7  # one past the last byte a value may use
    result = shift = 0
    while True:
        if pos >= end:
            raise MalformedBinary(pos, "unexpected end of input")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            break
        if pos >= stop:
            raise MalformedBinary(start, "integer representation too long")
        shift += 7
    if result >> bits:
        raise MalformedBinary(start, "integer too large")
    return result, pos


def _sleb(data: bytes, pos: int, end: int, bits: int) -> tuple[int, int]:
    """The signed LEB128 integer of at most ``bits`` bits at ``pos``, and
    the position after it. The only signed LEB128 reader."""
    start = pos
    stop = pos + (bits + 6) // 7
    result = shift = 0
    while True:
        if pos >= end:
            raise MalformedBinary(pos, "unexpected end of input")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        shift += 7
        if b < 0x80:
            break
        if pos >= stop:
            raise MalformedBinary(start, "integer representation too long")
    if b & 0x40:
        result -= 1 << shift  # sign-extend from the last byte's bit 6
    if not -(1 << (bits - 1)) <= result < 1 << (bits - 1):
        raise MalformedBinary(start, "integer too large")
    return result, pos


class Reader:
    # locals_left: how many more expanded locals code entries read through
    # this reader may declare; the code section's reader counts them over
    # all of its bodies
    __slots__ = ("data", "pos", "end", "locals_left")

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end
        self.locals_left = MAX_LOCALS

    def eof(self) -> bool:
        return self.pos >= self.end

    def byte(self) -> int:
        if self.pos >= self.end:
            raise MalformedBinary(self.pos, "unexpected end of input")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def raw(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise MalformedBinary(self.pos, "unexpected end of input")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return bytes(chunk)

    def u32(self) -> int:
        value, self.pos = _uleb(self.data, self.pos, self.end, 32)
        return value

    def sub(self, size: int) -> Reader:
        """A reader over the next ``size`` bytes, which this one skips."""
        if self.pos + size > self.end:
            raise MalformedBinary(self.pos, "section extends past end of input")
        sub = Reader(self.data, self.pos, self.pos + size)
        self.pos += size
        return sub

    def name(self) -> str:
        start = self.pos
        raw = self.raw(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedBinary(start, "malformed UTF-8 name") from None

    def valtype(self) -> str:
        start = self.pos
        code = self.byte()
        vt = op.CODE_VALTYPES.get(code)
        if vt is None:
            raise MalformedBinary(start, f"invalid value type 0x{code:02x}")
        return vt

    def limits(self) -> Limits:
        start = self.pos
        flag = self.byte()
        if flag == 0x00:
            return Limits(self.u32())
        if flag == 0x01:
            return Limits(self.u32(), self.u32())
        raise MalformedBinary(start, f"invalid limits flag 0x{flag:02x}")

    def global_type(self) -> GlobalType:
        vt = self.valtype()
        start = self.pos
        mut = self.byte()
        if mut not in (0, 1):
            raise MalformedBinary(start, f"invalid mutability flag 0x{mut:02x}")
        return GlobalType(vt, mut == 1)

    def table_type(self) -> TableType:
        start = self.pos
        if self.byte() != op.FUNCREF_CODE:
            raise MalformedBinary(start, "invalid table element type")
        return TableType(self.limits())

    def mem_type(self) -> MemType:
        return MemType(self.limits())

    def extern_kind(self, what: str) -> str:
        """The kind of an import or export (``what``)."""
        start = self.pos
        code = self.byte()
        kind = _EXTERN_KINDS.get(code)
        if kind is None:
            raise MalformedBinary(start, f"invalid {what} kind 0x{code:02x}")
        return kind

    def vector(self, read_item) -> tuple:
        """A vector: its length, then that many items read by ``read_item``."""
        return tuple([read_item(self) for _ in range(self.u32())])

    def func_type(self) -> FuncType:
        start = self.pos
        if self.byte() != op.FUNCTYPE_CODE:
            raise MalformedBinary(start, "expected functype (0x60)")
        return FuncType(self.vector(Reader.valtype), self.vector(Reader.valtype))

    def import_(self) -> Import:
        module = self.name()
        name = self.name()
        kind = self.extern_kind("import")
        return Import(module, name, kind, _IMPORT_DESCS[kind](self))

    def global_(self) -> Global:
        return Global(self.global_type(), read_expr(self))

    def export(self) -> Export:
        name = self.name()
        kind = self.extern_kind("export")
        return Export(name, kind, self.u32())

    def element_segment(self) -> ElementSegment:
        table_index = self.u32()
        offset = read_expr(self)
        return ElementSegment(table_index, offset, self.vector(Reader.u32))

    def code_entry(self) -> tuple[tuple[str, ...], Expr]:
        """One body's expanded locals and instructions. The locals count
        against ``locals_left`` before they are expanded."""
        body = self.sub(self.u32())
        groups = []
        for _ in range(body.u32()):
            at = body.pos
            count = body.u32()
            if count > self.locals_left:
                raise MalformedBinary(at, "too many locals")
            self.locals_left -= count
            groups.append((count, body.valtype()))
        locals_ = tuple(vt for count, vt in groups for _ in range(count))
        instructions = read_expr(body)
        if body.pos != body.end:
            raise MalformedBinary(body.pos, "function body size mismatch")
        return locals_, instructions

    def data_segment(self) -> DataSegment:
        memory_index = self.u32()
        offset = read_expr(self)
        return DataSegment(memory_index, offset, self.raw(self.u32()))


_IMPORT_DESCS = {
    "func": Reader.u32,
    "table": Reader.table_type,
    "memory": Reader.mem_type,
    "global": Reader.global_type,
}


def read_expr(r: Reader) -> Expr:
    """Read instructions up to the expression's final ``end``.

    One loop over the bytes, on local copies of the reader's state; the
    reader's position is written back on return and on error. The
    instructions go to one list in binary order (see ``module``). Per
    open construct a flag says whether it is an ``if`` still in its then
    arm, the one place an ``else`` may stand; an ``else`` followed at once
    by its ``end`` is not stored. One-byte LEB128 immediates are read
    inline, longer ones by ``_uleb``/``_sleb``.
    """
    data, pos, end = r.data, r.pos, r.end
    kinds, bare, headers, uleb, sleb = _KIND, _BARE, _HEADERS, _uleb, _sleb
    # tuple.__new__ skips the Python-level __new__ of the named tuple
    new, Instr = tuple.__new__, Instruction
    out: list[Instruction] = []
    append = out.append
    # per open construct, innermost last: is it an if in its then arm
    then_arm: list[bool] = []
    try:
        while True:
            if pos >= end:
                raise MalformedBinary(pos, "unexpected end of input")
            opcode = data[pos]
            pos += 1
            kind = kinds[opcode]
            if kind == "":
                append(bare[opcode])
            elif kind == "i32" or kind == "i64":
                if pos < end and (v := data[pos]) < 0x80:
                    pos += 1
                    if v >= 0x40:
                        v -= 0x80
                else:
                    v, pos = sleb(data, pos, end, 32 if kind == "i32" else 64)
                append(new(Instr, (opcode, (v,))))
            elif kind == "index":
                if pos < end and (v := data[pos]) < 0x80:
                    pos += 1
                else:
                    v, pos = uleb(data, pos, end, 32)
                append(new(Instr, (opcode, (v,))))
            elif kind == "memarg":
                if pos < end and (align := data[pos]) < 0x80:
                    pos += 1
                else:
                    align, pos = uleb(data, pos, end, 32)
                if pos < end and (offset := data[pos]) < 0x80:
                    pos += 1
                else:
                    offset, pos = uleb(data, pos, end, 32)
                append(new(Instr, (opcode, (align, offset))))
            elif kind == "end":
                if not then_arm:
                    return tuple(out)
                then_arm.pop()
                if out[-1] is ELSE:
                    out.pop()  # an empty else arm
                append(END)
            elif kind == "block":
                if len(then_arm) >= MAX_NESTING:
                    raise MalformedBinary(pos - 1, f"blocks nested deeper than {MAX_NESTING}")
                if pos >= end:
                    raise MalformedBinary(pos, "unexpected end of input")
                header = headers.get((opcode, data[pos]))
                if header is None:
                    raise MalformedBinary(pos, f"invalid block type 0x{data[pos]:02x}")
                pos += 1
                append(header)
                then_arm.append(opcode == op.IF)
            elif kind == "else":
                if not then_arm or not then_arm[-1]:
                    raise MalformedBinary(pos - 1, "else outside if")
                then_arm[-1] = False
                append(ELSE)
            elif kind == "call_indirect":
                typeidx, pos = uleb(data, pos, end, 32)
                if pos >= end:
                    raise MalformedBinary(pos, "unexpected end of input")
                if data[pos] != 0x00:
                    raise MalformedBinary(pos, "zero byte expected after call_indirect")
                pos += 1
                append(new(Instr, (opcode, (typeidx,))))
            elif kind == "memidx":
                if pos >= end:
                    raise MalformedBinary(pos, "unexpected end of input")
                if data[pos] != 0x00:
                    raise MalformedBinary(pos, "zero byte expected (memory index)")
                pos += 1
                append(bare[opcode])
            elif kind == "br_table":
                count, pos = uleb(data, pos, end, 32)
                labels = []
                for _ in range(count):
                    label, pos = uleb(data, pos, end, 32)
                    labels.append(label)
                default, pos = uleb(data, pos, end, 32)
                append(new(Instr, (opcode, (tuple(labels), default))))
            elif kind == "f32" or kind == "f64":
                n = 4 if kind == "f32" else 8
                if pos + n > end:
                    raise MalformedBinary(pos, "unexpected end of input")
                append(new(Instr, (opcode, (int.from_bytes(data[pos : pos + n], "little"),))))
                pos += n
            else:
                raise MalformedBinary(pos - 1, f"unknown opcode 0x{opcode:02x}")
    finally:
        r.pos = pos


_SECTIONS = {
    op.SEC_TYPE: ("types", Reader.func_type),
    op.SEC_IMPORT: ("imports", Reader.import_),
    op.SEC_FUNCTION: ("functions", Reader.u32),
    op.SEC_TABLE: ("tables", Reader.table_type),
    op.SEC_MEMORY: ("memories", Reader.mem_type),
    op.SEC_GLOBAL: ("globals", Reader.global_),
    op.SEC_EXPORT: ("exports", Reader.export),
    op.SEC_START: ("start", None),
    op.SEC_ELEMENT: ("elements", Reader.element_segment),
    op.SEC_CODE: ("functions", Reader.code_entry),
    op.SEC_DATA: ("data", Reader.data_segment),
}


def _sections(data: bytes) -> Iterator[tuple[int, int, Reader]]:
    """Each section of the module ``data``: the offset of its id byte,
    the id, and a reader over its contents. Checks the module header,
    rejects unknown ids and bounds each size by the input."""
    r = Reader(data)
    if r.raw(4) != MAGIC:
        raise MalformedBinary(0, "bad magic")
    if r.raw(4) != VERSION:
        raise MalformedBinary(4, "unsupported version")
    while not r.eof():
        sec_start = r.pos
        sec_id = r.byte()
        if sec_id > op.SEC_DATA:
            raise MalformedBinary(sec_start, f"unknown section id {sec_id}")
        yield sec_start, sec_id, r.sub(r.u32())


def decode(data: bytes) -> Module:
    contents: dict[int, object] = {}
    customs: list[tuple[str, bytes]] = []
    last_section = 0
    for sec_start, sec_id, sub in _sections(data):
        if sec_id == op.SEC_CUSTOM:
            customs.append((sub.name(), sub.raw(sub.end - sub.pos)))
            continue
        if sec_id <= last_section:
            raise MalformedBinary(sec_start, "section out of order")
        last_section = sec_id
        read_item = _SECTIONS[sec_id][1]
        contents[sec_id] = sub.u32() if read_item is None else sub.vector(read_item)
        if sub.pos != sub.end:
            raise MalformedBinary(
                sub.pos, f"section size mismatch in {op.SECTION_NAMES[sec_id]} section"
            )

    type_indices = contents.pop(op.SEC_FUNCTION, ())
    bodies = contents.pop(op.SEC_CODE, ())
    if len(type_indices) != len(bodies):
        raise MalformedBinary(len(data), "function and code section counts disagree")
    functions = tuple(Function(ti, *code) for ti, code in zip(type_indices, bodies))
    return Module(
        functions=functions,
        custom_sections=tuple(customs),
        **{_SECTIONS[sec_id][0]: value for sec_id, value in contents.items()},
    )


def section_sizes(data: bytes) -> dict[int, int]:
    """Byte count per section id, header bytes included.

    Custom sections aggregate under id 0. Totals plus the 8-byte module
    header always equal the input length.
    """
    sizes: dict[int, int] = {}
    for sec_start, sec_id, sub in _sections(data):
        sizes[sec_id] = sizes.get(sec_id, 0) + sub.end - sec_start
    return sizes
