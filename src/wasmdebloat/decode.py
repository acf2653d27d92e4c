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
"""

from __future__ import annotations

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

_IMPORT_KINDS = {0: "func", 1: "table", 2: "memory", 3: "global"}
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
    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end

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


def _check_header(r: Reader) -> None:
    if r.raw(4) != MAGIC:
        raise MalformedBinary(0, "bad magic")
    if r.raw(4) != VERSION:
        raise MalformedBinary(4, "unsupported version")


def _section_reader(r: Reader, size: int) -> Reader:
    if r.pos + size > r.end:
        raise MalformedBinary(r.pos, "section extends past end of input")
    sub = Reader(r.data, r.pos, r.pos + size)
    r.pos += size
    return sub


def _finish_section(sub: Reader, sec_id: int) -> None:
    if sub.pos != sub.end:
        raise MalformedBinary(
            sub.pos, f"section size mismatch in {op.SECTION_NAMES[sec_id]} section"
        )


def decode(data: bytes) -> Module:
    r = Reader(data)
    _check_header(r)

    types: tuple[FuncType, ...] = ()
    imports: tuple[Import, ...] = ()
    func_type_indices: tuple[int, ...] = ()
    tables: tuple[TableType, ...] = ()
    memories: tuple[MemType, ...] = ()
    globals_: tuple[Global, ...] = ()
    exports: tuple[Export, ...] = ()
    start: int | None = None
    elements: tuple[ElementSegment, ...] = ()
    data_segs: tuple[DataSegment, ...] = ()
    customs: list[tuple[str, bytes]] = []
    bodies: list[tuple[tuple[str, ...], tuple[Instruction, ...]]] = []

    last_section = 0
    while not r.eof():
        sec_start = r.pos
        sec_id = r.byte()
        if sec_id > op.SEC_DATA:
            raise MalformedBinary(sec_start, f"unknown section id {sec_id}")
        size = r.u32()
        sub = _section_reader(r, size)
        if sec_id == op.SEC_CUSTOM:
            name = sub.name()
            customs.append((name, sub.raw(sub.end - sub.pos)))
            continue
        if sec_id <= last_section:
            raise MalformedBinary(sec_start, "section out of order")
        last_section = sec_id

        if sec_id == op.SEC_TYPE:
            out = []
            for _ in range(sub.u32()):
                at = sub.pos
                if sub.byte() != op.FUNCTYPE_CODE:
                    raise MalformedBinary(at, "expected functype (0x60)")
                params = tuple(sub.valtype() for _ in range(sub.u32()))
                results = tuple(sub.valtype() for _ in range(sub.u32()))
                out.append(FuncType(params, results))
            types = tuple(out)
        elif sec_id == op.SEC_IMPORT:
            out = []
            for _ in range(sub.u32()):
                mod_name = sub.name()
                item_name = sub.name()
                at = sub.pos
                kind_byte = sub.byte()
                kind = _IMPORT_KINDS.get(kind_byte)
                if kind is None:
                    raise MalformedBinary(at, f"invalid import kind 0x{kind_byte:02x}")
                desc: object
                if kind == "func":
                    desc = sub.u32()
                elif kind == "table":
                    desc = sub.table_type()
                elif kind == "memory":
                    desc = MemType(sub.limits())
                else:
                    desc = sub.global_type()
                out.append(Import(mod_name, item_name, kind, desc))
            imports = tuple(out)
        elif sec_id == op.SEC_FUNCTION:
            func_type_indices = tuple(sub.u32() for _ in range(sub.u32()))
        elif sec_id == op.SEC_TABLE:
            tables = tuple(sub.table_type() for _ in range(sub.u32()))
        elif sec_id == op.SEC_MEMORY:
            memories = tuple(MemType(sub.limits()) for _ in range(sub.u32()))
        elif sec_id == op.SEC_GLOBAL:
            out = []
            for _ in range(sub.u32()):
                gt = sub.global_type()
                out.append(Global(gt, read_expr(sub)))
            globals_ = tuple(out)
        elif sec_id == op.SEC_EXPORT:
            out = []
            for _ in range(sub.u32()):
                name = sub.name()
                at = sub.pos
                kind_byte = sub.byte()
                kind = _IMPORT_KINDS.get(kind_byte)
                if kind is None:
                    raise MalformedBinary(at, f"invalid export kind 0x{kind_byte:02x}")
                out.append(Export(name, kind, sub.u32()))
            exports = tuple(out)
        elif sec_id == op.SEC_START:
            start = sub.u32()
        elif sec_id == op.SEC_ELEMENT:
            out = []
            for _ in range(sub.u32()):
                table_index = sub.u32()
                offset = read_expr(sub)
                funcs = tuple(sub.u32() for _ in range(sub.u32()))
                out.append(ElementSegment(table_index, offset, funcs))
            elements = tuple(out)
        elif sec_id == op.SEC_CODE:
            total = 0  # expanded locals so far, over every body
            for _ in range(sub.u32()):
                body_size = sub.u32()
                body_r = _section_reader(sub, body_size)
                local_groups = []
                for _ in range(body_r.u32()):
                    at = body_r.pos
                    count = body_r.u32()
                    total += count
                    if total > MAX_LOCALS:
                        raise MalformedBinary(at, "too many locals")
                    local_groups.append((count, body_r.valtype()))
                locals_ = tuple(
                    vt for count, vt in local_groups for _ in range(count)
                )
                body = read_expr(body_r)
                if body_r.pos != body_r.end:
                    raise MalformedBinary(body_r.pos, "function body size mismatch")
                bodies.append((locals_, body))
        elif sec_id == op.SEC_DATA:
            out = []
            for _ in range(sub.u32()):
                memory_index = sub.u32()
                offset = read_expr(sub)
                payload = sub.raw(sub.u32())
                out.append(DataSegment(memory_index, offset, payload))
            data_segs = tuple(out)
        _finish_section(sub, sec_id)

    if len(func_type_indices) != len(bodies):
        raise MalformedBinary(
            len(data), "function and code section counts disagree"
        )
    functions = tuple(
        Function(ti, locs, body)
        for ti, (locs, body) in zip(func_type_indices, bodies)
    )
    return Module(
        types=types,
        imports=imports,
        functions=functions,
        tables=tables,
        memories=memories,
        globals=globals_,
        exports=exports,
        start=start,
        elements=elements,
        data=data_segs,
        custom_sections=tuple(customs),
    )


def section_sizes(data: bytes) -> dict[int, int]:
    """Byte count per section id, header bytes included.

    Custom sections aggregate under id 0. Totals plus the 8-byte module
    header always equal the input length.
    """
    r = Reader(data)
    _check_header(r)
    sizes: dict[int, int] = {}
    while not r.eof():
        sec_start = r.pos
        sec_id = r.byte()
        if sec_id > op.SEC_DATA:
            raise MalformedBinary(sec_start, f"unknown section id {sec_id}")
        size = r.u32()
        _section_reader(r, size)
        total = r.pos - sec_start
        sizes[sec_id] = sizes.get(sec_id, 0) + total
    return sizes
