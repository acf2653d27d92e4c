"""Binary decoder for WebAssembly 1.0 modules.

One pass checks the structure and the operand-stack types of function
bodies. Binary order puts every section a body's types depend on before
the code section, so ``_functions`` checks each body as it reads it,
with ``walk_expr``, the one loop over expression bytes. It records the
type errors on the module (``Module.body_errors``) for validate, and
builds the instructions only when ``Function.body`` is first read, in a
second walk against the same context.

LEB128 integers are accepted in non-minimal (padded) encodings as long as
they fit the declared bit width and byte budget; the encoder always emits
minimal forms, so byte-identity with arbitrary inputs is not promised.
``_leb``, signed or not, reads every LEB128 integer of more than one byte
that is read at all: ``walk_expr`` skips a constant it does not build
when it is too short to break its bound. ``MAX_LOCALS`` caps the expanded
locals of all bodies together, so a short input cannot declare a million
locals in each of many bodies. ``MAX_FUNCTION_LOCALS`` caps one function's
parameters and locals together, ``MAX_PARAMS`` one type's parameters and
``MAX_BR_TABLE`` one ``br_table``'s targets, as V8 does.

``_SECTIONS`` maps each non-custom section id to the ``Module`` field it
fills and the ``Reader`` method that reads one item of its vector, so
``decode`` writes the vector framing and the section order once. Start
holds one index, not a vector; ``_functions`` reads the code section.
One walk over the section headers, ``_sections``, serves both ``decode``
and ``section_sizes``.
"""

from __future__ import annotations

from functools import partial
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
    Module,
)

MAGIC = b"\x00asm"
VERSION = b"\x01\x00\x00\x00"

# expanded-locals cap over all function bodies of a module; far beyond
# realistic modules, small enough that hostile counts can't balloon memory
MAX_LOCALS = 1_000_000

# V8's caps on the parameters plus locals of one function, on the
# parameters of one function type and on the targets of one br_table
MAX_FUNCTION_LOCALS = 50_000
MAX_PARAMS = 1_000
MAX_BR_TABLE = 65_520

# deepest block/loop/if nesting accepted in one body: a cap on hostile
# input, like MAX_LOCALS. No pass recurses per level, so it bounds the
# size of explicit stacks, not the Python recursion depth.
MAX_NESTING = 6_000

_EXTERN_KINDS = {0: "func", 1: "table", 2: "memory", 3: "global"}
_BLOCKTYPES = {op.BLOCKTYPE_EMPTY: None, **op.CODE_VALTYPES}

# walk_expr's dispatch, indexed by opcode byte: "op" for an instruction with a
# fixed stack signature and no immediate, the immediate kind (``Op.imm``)
# for one with an immediate, "bare" for any other, and "else"/"end" for
# those two bytes. None marks a byte that is no opcode.
_KIND: list[str | None] = [None] * 256
# per opcode with a fixed stack signature (``Op.pops`` is not None): minus
# the number of values it pops, the types it pops (bottom first, a list
# to compare with the top of the stack), the types it pushes, and the
# natural alignment exponent of a memory access
_SIMPLE: list[tuple | None] = [None] * 256
for _code, _info in op.OPS.items():
    _KIND[_code] = _info.imm or ("bare" if _info.pops is None else "op")
    if _info.pops is not None:
        _natural = _info.width.bit_length() - 1
        _SIMPLE[_code] = (-len(_info.pops), list(_info.pops), _info.pushes, _natural)
_KIND[op.ELSE] = "else"
_KIND[op.END] = "end"
_NAMES = [op.OPS[c].name if c in op.OPS else None for c in range(256)]
# every immediate-free instruction built is one of these shared objects
_BARE = [Instruction(c) if k in ("op", "bare", "memidx") else None for c, k in enumerate(_KIND)]


def _leb(data: bytes, pos: int, end: int, bits: int, signed: bool = False) -> tuple[int, int]:
    """The LEB128 integer, ``signed`` or not, of at most ``bits`` bits at
    ``pos``, and the position after it. The only LEB128 reader."""
    start = pos
    stop = pos + (bits + 6) // 7  # one past the last byte a value may use
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
    lo = 0
    if signed:
        lo = -(1 << (bits - 1))
        if b & 0x40:
            result -= 1 << shift  # sign-extend from the last byte's bit 6
    if not lo <= result < lo + (1 << bits):
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
        pos = self.pos
        if pos < self.end and (value := self.data[pos]) < 0x80:
            self.pos = pos + 1
        else:
            value, self.pos = _leb(self.data, pos, self.end, 32)
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

    def table_type(self) -> Limits:
        start = self.pos
        if self.byte() != op.FUNCREF_CODE:
            raise MalformedBinary(start, "invalid table element type")
        return self.limits()

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
        params = self.vector(Reader.valtype)
        if len(params) > MAX_PARAMS:  # at the count, after the functype byte
            raise MalformedBinary(start + 1, "too many parameters")
        return FuncType(params, self.vector(Reader.valtype))

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

    def data_segment(self) -> DataSegment:
        memory_index = self.u32()
        offset = read_expr(self)
        return DataSegment(memory_index, offset, self.raw(self.u32()))


_IMPORT_DESCS = {
    "func": Reader.u32,
    "table": Reader.table_type,
    "memory": Reader.limits,
    "global": Reader.global_type,
}


def body_context(m: Module, type_indices: tuple[int, ...] = ()) -> tuple:
    """What typing a body needs of its module ``m``: the types, every
    function's type index (``type_indices`` are those of functions ``m``
    does not hold yet, numbered after its own), every global's type, and
    whether there is a table and a memory."""
    func_types = m.func_type_indices + type_indices
    return m.types, func_types, m.global_types, m.num_tables > 0, m.num_memories > 0


_NO_CONTEXT = body_context(Module())  # for a walk of the structure only


def read_expr(r: Reader) -> Expr:
    """Read the instructions of a constant expression to its ``end``."""
    return walk_expr(r, _NO_CONTEXT, None, (), [], True)


def _pop(stack: list[str], dead: bool, expect: str | None, ctx: str, msgs: list[str]) -> str:
    """Pop an operand of type ``expect`` (None: any) for ``ctx``. Dead
    code may pop any type below the bottom of its stack."""
    if not stack:
        if not dead:
            msgs.append(f"{ctx}: operand stack underflow")
        return expect or "unknown"
    t = stack.pop()
    if expect is not None and t != expect:
        msgs.append(f"{ctx}: expected {expect}, got {t}")
    return t


def _pop_all(stack: list[str], dead: bool, types, ctx: str, msgs: list[str]) -> None:
    for t in reversed(types):
        _pop(stack, dead, t, ctx, msgs)


def _close_arm(ctrl: list, stack: list[str], dead: bool, end: bool, msgs: list[str]):
    """Check that the arm an ``else`` or ``end`` closes leaves exactly its
    results; ``end`` also closes its construct. Returns the stack and dead
    flag to go on with."""
    saved, was_dead, results, arm, label = ctrl[-1]
    _pop_all(stack, dead, results, arm, msgs)
    if stack and not dead:
        msgs.append(f"{arm}: {len(stack)} extra value(s) on stack")
    if not end:
        ctrl[-1] = (saved, was_dead, results, "if: else", label)
        return [], False
    if arm == "if: then" and results:
        # a result-typed if needs an else arm; an empty one reports the arity
        _pop_all([], False, results, "if: else", msgs)
    ctrl.pop()
    saved += results
    return saved, was_dead


def _dead(stack: list[str], msgs: list[str] | None = None, msg: str = "") -> bool:
    """Report ``msg``, if any, and type the rest of the arm as dead code."""
    if msgs is not None:
        msgs.append(msg)
    stack.clear()
    return True


def walk_expr(
    r: Reader, ctx: tuple, type_index, locals_: tuple, msgs: list, build=False
) -> Expr | None:
    """The one loop over an expression's bytes. It raises
    ``MalformedBinary`` for the structure, appends a body's type errors to
    ``msgs`` in the order found and, with ``build``, returns the
    instructions (see ``module``). The reader's position is written back.

    Typing follows the WebAssembly 1.0 validation appendix, with code after
    ``unreachable``, ``br``, ``br_table`` and ``return`` typed
    polymorphically (``dead``). A body without a valid type (``type_index``
    None, out of range, or naming more than one result, reported on the
    type) is walked for its structure only.
    """
    types = ctx[0]
    if type_index is not None and type_index < len(types) and len(types[type_index].results) < 2:
        locals_, results = types[type_index].params + locals_, types[type_index].results
    else:
        if type_index is not None and type_index >= len(types):
            msgs.append(f"type index {type_index} out of range")
        ctx, locals_, results, msgs = _NO_CONTEXT, (), (), []
    data, pos, end = r.data, r.pos, r.end
    types, func_types, global_types, has_table, has_memory = ctx
    new, Instr = tuple.__new__, Instruction  # skips the named tuple's __new__
    out: list[Instruction] = []
    append = out.append
    stack: list[str] = []
    dead = False
    # per open construct, the function's own first: the enclosing stack
    # and dead flag to restore, its result types, its current arm ("if:
    # then" is the one place an else may stand) and its label's types
    ctrl: list[tuple] = [([], False, results, "function end", results)]
    try:
        while True:
            if pos >= end:
                raise MalformedBinary(pos, "unexpected end of input")
            opcode = data[pos]
            pos += 1
            kind = _KIND[opcode]
            if kind == "op":
                cut, pops, pushes, _ = _SIMPLE[opcode]
                if stack[cut:] == pops:  # the operands are the top of the stack
                    stack[cut:] = pushes
                else:
                    _pop_all(stack, dead, pops, _NAMES[opcode], msgs)
                    stack += pushes
                if build:
                    append(_BARE[opcode])
            elif kind == "i32" or kind == "i64":
                # read only if built, unterminated or long enough to overflow
                at = pos
                while pos < end and data[pos] >= 0x80:
                    pos += 1
                pos += 1
                if build or pos > end or pos - at >= (5 if kind == "i32" else 10):
                    v, pos = _leb(data, at, end, 32 if kind == "i32" else 64, True)
                    if build:
                        append(new(Instr, (opcode, (v,))))
                stack.append(kind)
            elif kind == "index":
                if pos < end and (v := data[pos]) < 0x80:
                    pos += 1
                else:
                    v, pos = _leb(data, pos, end, 32)
                name = _NAMES[opcode]
                if opcode == op.LOCAL_GET and v < len(locals_):
                    stack.append(locals_[v])
                elif opcode in (op.LOCAL_GET, op.LOCAL_SET, op.LOCAL_TEE):
                    if v >= len(locals_):
                        dead = _dead(stack, msgs, f"{name}: local index {v} out of range")
                    else:
                        _pop(stack, dead, locals_[v], name, msgs)
                        if opcode == op.LOCAL_TEE:
                            stack.append(locals_[v])
                elif opcode == op.CALL:
                    if v >= len(func_types):
                        dead = _dead(stack, msgs, f"{name}: function index {v} out of range")
                    elif (t := func_types[v]) >= len(types):
                        msg = f"{name}: function {v} has type index {t} out of range"
                        dead = _dead(stack, msgs, msg)
                    else:
                        _pop_all(stack, dead, types[t].params, name, msgs)
                        stack += types[t].results
                elif opcode in (op.GLOBAL_GET, op.GLOBAL_SET):
                    if v >= len(global_types):
                        dead = _dead(stack, msgs, f"{name}: global index {v} out of range")
                    elif opcode == op.GLOBAL_GET:
                        stack.append(global_types[v].valtype)
                    else:
                        if not global_types[v].mutable:
                            msgs.append(f"{name}: global {v} is immutable")
                        _pop(stack, dead, global_types[v].valtype, name, msgs)
                else:  # br or br_if
                    if opcode == op.BR_IF:
                        _pop(stack, dead, "i32", name, msgs)
                    if v >= len(ctrl):
                        msgs.append(f"{name}: label depth {v} out of range")
                    else:
                        label = ctrl[-1 - v][4]
                        _pop_all(stack, dead, label, name, msgs)
                        if opcode == op.BR_IF:
                            stack += label
                    if opcode == op.BR:
                        dead = _dead(stack)
                if build:
                    append(new(Instr, (opcode, (v,))))
            elif kind == "end":
                if len(ctrl) > 1:
                    stack, dead = _close_arm(ctrl, stack, dead, True, msgs)
                    if build:
                        if out[-1] is ELSE:
                            out.pop()  # an empty else arm
                        append(END)
                else:
                    _close_arm(ctrl, stack, dead, True, msgs)
                    return tuple(out) if build else None
            elif kind == "block":
                if len(ctrl) > MAX_NESTING:
                    raise MalformedBinary(pos - 1, f"blocks nested deeper than {MAX_NESTING}")
                if pos >= end:
                    raise MalformedBinary(pos, "unexpected end of input")
                if data[pos] not in _BLOCKTYPES:
                    raise MalformedBinary(pos, f"invalid block type 0x{data[pos]:02x}")
                bt = _BLOCKTYPES[data[pos]]
                pos += 1
                arm = _NAMES[opcode]
                if opcode == op.IF:
                    _pop(stack, dead, "i32", arm, msgs)
                    arm = "if: then"
                arity = () if bt is None else (bt,)
                ctrl.append((stack, dead, arity, arm, () if opcode == op.LOOP else arity))
                stack, dead = [], False
                if build:
                    append(new(Instr, (opcode, (bt,))))
            elif kind == "memarg" or kind == "memidx":
                name = _NAMES[opcode]
                if kind == "memidx":
                    if pos >= end:
                        raise MalformedBinary(pos, "unexpected end of input")
                    if data[pos] != 0x00:
                        raise MalformedBinary(pos, "zero byte expected (memory index)")
                    pos += 1
                    instr = _BARE[opcode]
                else:
                    align, pos = _leb(data, pos, end, 32)
                    offset, pos = _leb(data, pos, end, 32)
                    instr = new(Instr, (opcode, (align, offset)))
                _, pops, pushes, natural = _SIMPLE[opcode]
                _pop_all(stack, dead, pops, name, msgs)
                stack += pushes
                if kind == "memarg" and align > natural:
                    msgs.append(f"{name}: alignment 2**{align} over natural {1 << natural}")
                if not has_memory:
                    msgs.append(f"{name}: module has no memory")
                if build:
                    append(instr)
            elif kind == "bare":  # unreachable, nop, return, drop, select
                if opcode == op.DROP:
                    _pop(stack, dead, None, "drop", msgs)
                elif opcode == op.SELECT:
                    _pop(stack, dead, "i32", "select", msgs)
                    t1 = _pop(stack, dead, None, "select", msgs)
                    t2 = _pop(stack, dead, t1 if t1 != "unknown" else None, "select", msgs)
                    stack.append(t2 if t1 == "unknown" else t1)
                elif opcode != op.NOP:  # unreachable or return
                    if opcode == op.RETURN:
                        _pop_all(stack, dead, results, "return", msgs)
                    dead = _dead(stack)
                if build:
                    append(_BARE[opcode])
            elif kind == "else":
                if len(ctrl) > 1 and ctrl[-1][3] == "if: then":
                    stack, dead = _close_arm(ctrl, stack, dead, False, msgs)
                    if build:
                        append(ELSE)
                else:
                    raise MalformedBinary(pos - 1, "else outside if")
            elif kind == "call_indirect":
                t, pos = _leb(data, pos, end, 32)
                if pos >= end:
                    raise MalformedBinary(pos, "unexpected end of input")
                if data[pos] != 0x00:
                    raise MalformedBinary(pos, "zero byte expected after call_indirect")
                pos += 1
                if not has_table:
                    msgs.append("call_indirect: module has no table")
                if t >= len(types):
                    dead = _dead(stack, msgs, f"call_indirect: type index {t} out of range")
                else:
                    _pop(stack, dead, "i32", "call_indirect", msgs)
                    _pop_all(stack, dead, types[t].params, "call_indirect", msgs)
                    stack += types[t].results
                if build:
                    append(new(Instr, (opcode, (t,))))
            elif kind == "br_table":
                count, after = _leb(data, pos, end, 32)
                if count > MAX_BR_TABLE:
                    raise MalformedBinary(pos, "too many br_table targets")
                pos = after
                labels = []
                for _ in range(count):
                    depth, pos = _leb(data, pos, end, 32)
                    labels.append(depth)
                default, pos = _leb(data, pos, end, 32)
                _pop(stack, dead, "i32", "br_table", msgs)
                if default >= len(ctrl):
                    msgs.append(f"br_table: label depth {default} out of range")
                else:
                    label = ctrl[-1 - default][4]
                    for depth in labels:
                        if depth >= len(ctrl):
                            msgs.append(f"br_table: label depth {depth} out of range")
                        elif ctrl[-1 - depth][4] != label:
                            msgs.append(f"br_table: label type mismatch at depth {depth}")
                    _pop_all(stack, dead, label, "br_table", msgs)
                dead = _dead(stack)
                if build:
                    append(new(Instr, (opcode, (tuple(labels), default))))
            elif kind == "f32" or kind == "f64":
                n = 4 if kind == "f32" else 8
                if pos + n > end:
                    raise MalformedBinary(pos, "unexpected end of input")
                stack.append(kind)
                if build:
                    bits = int.from_bytes(data[pos : pos + n], "little")
                    append(new(Instr, (opcode, (bits,))))
                pos += n
            else:
                raise MalformedBinary(pos - 1, f"unknown opcode 0x{opcode:02x}")
    finally:
        r.pos = pos


def _functions(r: Reader, contents: dict[int, object], errs: list) -> tuple[Function, ...]:
    """The code section: each body is checked as it is read, its type
    errors going to ``errs``, and becomes a ``Function`` that builds its
    instructions on first read (a body past the function section's count
    has no type index)."""
    type_indices = contents.get(op.SEC_FUNCTION, ())
    before = Module(**{_SECTIONS[s][0]: v for s, v in contents.items() if s != op.SEC_FUNCTION})
    ctx = body_context(before, type_indices)
    functions = []
    locals_left = MAX_LOCALS  # over all bodies
    for i in range(r.u32()):
        body = r.sub(r.u32())
        type_index = type_indices[i] if i < len(type_indices) else None
        groups = []
        for g in range(body.u32()):
            if not g:  # the function's parameters count toward its cap
                room = MAX_FUNCTION_LOCALS
                if type_index is not None and type_index < len(before.types):
                    room -= len(before.types[type_index].params)
            at = body.pos
            count = body.u32()
            if count > locals_left or count > room:
                raise MalformedBinary(at, "too many locals")
            locals_left -= count
            room -= count
            groups.append((count, body.valtype()))
        locals_ = tuple(vt for count, vt in groups for _ in range(count))
        start = body.pos
        msgs: list[str] = []
        walk_expr(body, ctx, type_index, locals_, msgs)
        if body.pos != body.end:
            raise MalformedBinary(body.pos, "function body size mismatch")
        errs += [(f"func[{before.num_funcs + i}]", msg) for msg in msgs]
        read_body = partial(_expr, r.data, start, body.end, ctx, type_index, locals_)
        functions.append(Function.decoded(type_index, locals_, read_body))
    return tuple(functions)


def _expr(data: bytes, start: int, end: int, ctx: tuple, type_index, locals_: tuple) -> Expr:
    """A body's instructions, built by a walk that types them as the
    check did, so that it formats no message for a valid body."""
    return walk_expr(Reader(data, start, end), ctx, type_index, locals_, [], True)


_SECTIONS = {
    op.SEC_TYPE: ("types", Reader.func_type),
    op.SEC_IMPORT: ("imports", Reader.import_),
    op.SEC_FUNCTION: ("functions", Reader.u32),
    op.SEC_TABLE: ("tables", Reader.table_type),
    op.SEC_MEMORY: ("memories", Reader.limits),
    op.SEC_GLOBAL: ("globals", Reader.global_),
    op.SEC_EXPORT: ("exports", Reader.export),
    op.SEC_START: ("start", None),
    op.SEC_ELEMENT: ("elements", Reader.element_segment),
    op.SEC_CODE: ("functions", None),  # read by _functions
    op.SEC_DATA: ("data", Reader.data_segment),
}


def _sections(data: bytes) -> Iterator[tuple[int, int, Reader]]:
    """Each section of the module ``data``: the offset of its id byte,
    the id, and a reader over its contents. Checks the module header,
    rejects unknown ids and bounds each size by the input."""
    r = Reader(bytes(data))  # immutable: decoded bodies are read again when built
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
    errs: list[tuple[str, str]] = []  # the bodies' type errors
    last_section = 0
    for sec_start, sec_id, sub in _sections(data):
        if sec_id == op.SEC_CUSTOM:
            customs.append((sub.name(), sub.raw(sub.end - sub.pos)))
            continue
        if sec_id <= last_section:
            raise MalformedBinary(sec_start, "section out of order")
        last_section = sec_id
        read_item = _SECTIONS[sec_id][1]
        if sec_id == op.SEC_CODE:
            contents[sec_id] = _functions(sub, contents, errs)
        else:
            contents[sec_id] = sub.u32() if read_item is None else sub.vector(read_item)
        if sub.pos != sub.end:
            raise MalformedBinary(
                sub.pos, f"section size mismatch in {op.SECTION_NAMES[sec_id]} section"
            )

    type_indices = contents.pop(op.SEC_FUNCTION, ())
    functions = contents.pop(op.SEC_CODE, ())
    if len(type_indices) != len(functions):
        raise MalformedBinary(len(data), "function and code section counts disagree")
    m = Module(
        functions=functions,
        custom_sections=tuple(customs),
        **{_SECTIONS[sec_id][0]: value for sec_id, value in contents.items()},
    )
    object.__setattr__(m, "body_errors", tuple(errs))
    return m


def section_sizes(data: bytes) -> dict[int, int]:
    """Byte count per section id, header bytes included.

    Custom sections aggregate under id 0. Totals plus the 8-byte module
    header always equal the input length.
    """
    sizes: dict[int, int] = {}
    for sec_start, sec_id, sub in _sections(data):
        sizes[sec_id] = sizes.get(sec_id, 0) + sub.end - sec_start
    return sizes
