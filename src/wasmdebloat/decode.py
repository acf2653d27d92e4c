"""Binary decoder for WebAssembly 1.0 modules.

Structural concerns only: grammar, LEB128 bounds, section ordering and
sizing, opcode coverage. Index bounds and typing live in validate.

LEB128 integers are accepted in non-minimal (padded) encodings as long as
they fit the declared bit width and byte budget; the encoder always emits
minimal forms, so byte-identity with arbitrary inputs is not promised.
"""

from __future__ import annotations

from . import opcodes as op
from .errors import MalformedBinary
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
    Instruction,
    Limits,
    MemType,
    Module,
    TableType,
    close_block,
)

MAGIC = b"\x00asm"
VERSION = b"\x01\x00\x00\x00"

# expanded-locals cap per function; far beyond realistic modules, small
# enough that a hostile count can't balloon memory
MAX_LOCALS = 1_000_000

# deepest block/loop/if nesting accepted in one body: a cap on hostile
# input, like MAX_LOCALS. No pass recurses per level, so it bounds the
# size of explicit stacks, not the Python recursion depth.
MAX_NESTING = 6_000

_IMPORT_KINDS = {0: "func", 1: "table", 2: "memory", 3: "global"}
_BLOCKTYPES = {op.BLOCKTYPE_EMPTY: None, **op.CODE_VALTYPES}
# every immediate-free instruction decoded is one of these shared objects
_BARE = {code: Instruction(code) for code, info in op.OPS.items() if info.imm in ("", "memidx")}


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

    def uint(self, bits: int) -> int:
        start = self.pos
        result = 0
        shift = 0
        max_bytes = (bits + 6) // 7
        while True:
            b = self.byte()
            result |= (b & 0x7F) << shift
            shift += 7
            if not (b & 0x80):
                break
            if shift >= 7 * max_bytes:
                raise MalformedBinary(start, "integer representation too long")
        if result >> bits:
            raise MalformedBinary(start, "integer too large")
        return result

    def sint(self, bits: int) -> int:
        start = self.pos
        result = 0
        shift = 0
        max_bytes = (bits + 6) // 7
        while True:
            b = self.byte()
            result |= (b & 0x7F) << shift
            shift += 7
            if not (b & 0x80):
                if b & 0x40:
                    result |= -1 << shift
                break
            if shift >= 7 * max_bytes:
                raise MalformedBinary(start, "integer representation too long")
        if not -(1 << (bits - 1)) <= result < 1 << (bits - 1):
            raise MalformedBinary(start, "integer too large")
        return result

    def u32(self) -> int:
        return self.uint(32)

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

    One loop over the bytes; nested constructs are built with the same
    explicit stack as ``module.nest``, so nesting costs no recursion.
    """
    out: list[Instruction] = []
    open_: list[tuple[int, tuple, list]] = []  # as in nest()
    while True:
        start = r.pos
        opcode = r.byte()
        if opcode == op.END:
            if not open_:
                return tuple(out)
            out = close_block(open_, out)
            continue
        if opcode == op.ELSE:
            # an if whose args hold only its block type is in its then arm
            if not open_ or open_[-1][0] != op.IF or len(open_[-1][1]) != 1:
                raise MalformedBinary(start, "else outside if")
            code, args, outer = open_[-1]
            open_[-1] = (code, args + (tuple(out),), outer)
            out = []
            continue
        info = op.OPS.get(opcode)
        if info is None:
            raise MalformedBinary(start, f"unknown opcode 0x{opcode:02x}")
        imm = info.imm
        if imm == "":
            out.append(_BARE[opcode])
        elif imm in ("label", "func", "local", "global"):
            out.append(Instruction(opcode, (r.u32(),)))
        elif imm == "memarg":
            out.append(Instruction(opcode, (r.u32(), r.u32())))
        elif imm == "i32":
            out.append(Instruction(opcode, (r.sint(32),)))
        elif imm == "block" or imm == "if":
            if len(open_) >= MAX_NESTING:
                raise MalformedBinary(start, f"blocks nested deeper than {MAX_NESTING}")
            at = r.pos
            bt = r.byte()
            if bt not in _BLOCKTYPES:
                raise MalformedBinary(at, f"invalid block type 0x{bt:02x}")
            open_.append((opcode, (_BLOCKTYPES[bt],), out))
            out = []
        elif imm == "br_table":
            labels = tuple(r.u32() for _ in range(r.u32()))
            out.append(Instruction(opcode, (labels, r.u32())))
        elif imm == "call_indirect":
            typeidx = r.u32()
            at = r.pos
            if r.byte() != 0x00:
                raise MalformedBinary(at, "zero byte expected after call_indirect")
            out.append(Instruction(opcode, (typeidx,)))
        elif imm == "memidx":
            at = r.pos
            if r.byte() != 0x00:
                raise MalformedBinary(at, "zero byte expected (memory index)")
            out.append(_BARE[opcode])
        elif imm == "i64":
            out.append(Instruction(opcode, (r.sint(64),)))
        elif imm == "f32":
            out.append(Instruction(opcode, (int.from_bytes(r.raw(4), "little"),)))
        elif imm == "f64":
            out.append(Instruction(opcode, (int.from_bytes(r.raw(8), "little"),)))
        else:
            raise AssertionError(f"unhandled immediate kind {imm!r}")


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
            for _ in range(sub.u32()):
                body_size = sub.u32()
                body_r = _section_reader(sub, body_size)
                local_groups = []
                total = 0
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
