"""Tracing interpreter for WebAssembly 1.0 modules.

Executes a workload against one instance while recording which functions
ran (the execution trace) and what the run observably did (the
observation log).

Each function body is compiled once per instance, on first entry, which
also records it as entered, into straight-line runs (``_compile``). A
run's nodes compute and trap; its exit only moves control, and is one of
four: a branch, a branch table, a call or the end. A branch goes to a
run, keeping the values it carries and dropping those beneath them, all
fixed at compile time (Titzer, "A fast in-place interpreter for
WebAssembly", OOPSLA 2022); ``if`` and ``br_if`` are tables of one
branch, and ``call_indirect`` is a node that checks its slot and leaves
the callee for the call. A straight line of more than _MAX_NODES
instructions is cut into runs, each a branch to the next. In a run, each
instruction is a node, whose operands are of one of four kinds: a local
read, a constant, a child node, or a value taken off the operand stack,
which only the lowest operands are (``_trees``). A producer folds into
its consumer only if no instruction between them can trap or writes a
local, a global or memory; otherwise, at the run's end and past
_MAX_DEPTH levels, its tree becomes a top-level node that pushes its
value. A run is one Python function of the frame's locals (closure
generation: Feeley & Lapalme, "Using closures for code generation",
Computer Languages 1987), with every node's template from one table,
``_OPERATORS``, inlined into it: a superinstruction of the whole run
(Ertl & Gregg, PLDI 2003), so that ``local.get 0; i32.const 5; i32.add``
reads ``push((L[x_0] + x_1) & 0xffffffff)``. Its source is made on first
use from the run's shape, its instructions' opcodes, which alone decide
its trees; local indices, constants and immediates are its factory's
arguments, so no value of a module reaches ``exec``. One loop
(``Instance._execute``) calls a run's function and then takes its exit,
with an explicit operand stack and call stack: a branch raises no
exception and a wasm call adds no Python frame, so nesting depth and
call depth cost no Python recursion. Fuel is one unit per executed
instruction; ``else`` and ``end`` cost nothing. The loop charges a run
once, as it fetches it, and fuel stays exact: a node that traps refunds
the units of the run after its own, and fuel that does not cover a run
runs the instructions it pays for, one by one, then traps.

Numbers are carried as raw bit patterns (unsigned ints); types are
static and were established by validation. Each numeric operator is
written once for both widths, generic over N as the spec defines it
(WebAssembly Core Specification 1.0, section 4.3), as a template with the
names it uses for each width (``_int_ops``, ``_float_ops``). Floats are materialized only
inside the operators, and every arithmetic NaN is canonicalized so
observation logs are deterministic. An integer converts to f32 in one
rounding, through round-to-odd (Boldo & Melquiond, "Emulation of FMA and
correctly rounded sums: proved algorithms using rounding to odd", IEEE
Trans. Computers 2008). A load or store is one ``struct`` call behind an
explicit bounds check, so a store that traps writes nothing. The table
keeps only the slots element segments fill. The run records (``Value``,
``Results``, ``HostCall``, ``ObservationLog``, ...) are ``NamedTuple``s,
so they compare equal to plain tuples: ``Value("i32", 1) == ("i32", 1)``.
"""

from __future__ import annotations

import builtins
import math
import re
import struct
from collections import namedtuple
from keyword import iskeyword
from typing import NamedTuple

from . import opcodes as op
from .errors import LinkError, SignatureMismatch, TrapError, UnknownExport
from .module import Expr, FuncType, Function, Module, MAX_PAGES, PAGE_SIZE

DEFAULT_FUEL = 10_000_000
CALL_STACK_LIMIT = 256

TRAP_UNREACHABLE = "unreachable"
TRAP_DIV_ZERO = "divide-by-zero"
TRAP_INT_OVERFLOW = "integer-overflow"
TRAP_OOB_MEMORY = "out-of-bounds-memory"
TRAP_OOB_TABLE = "out-of-bounds-table"
TRAP_CALL_TYPE = "indirect-call-type-mismatch"
TRAP_UNDEFINED_ELEMENT = "undefined-table-element"
TRAP_STACK_EXHAUSTED = "stack-exhausted"
TRAP_FUEL_EXHAUSTED = "fuel-exhausted"

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_CANON_NAN32 = 0x7FC00000
_CANON_NAN64 = 0x7FF8000000000000


def _s32(u: int) -> int:
    return u - 0x1_0000_0000 if u & 0x8000_0000 else u


def _s64(u: int) -> int:
    return u - 0x1_0000_0000_0000_0000 if u & 0x8000_0000_0000_0000 else u


def f32_from_bits(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def f32_to_bits(x: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", x))[0]
    except OverflowError:
        return 0x7F800000 if x > 0 else 0xFF800000


def f64_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def f64_to_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


class Value(NamedTuple):
    type: str
    bits: int

    @staticmethod
    def i32(v: int) -> "Value":
        return Value("i32", v & _M32)

    @staticmethod
    def i64(v: int) -> "Value":
        return Value("i64", v & _M64)

    @staticmethod
    def f32(x: float) -> "Value":
        """An integer ``x`` is rounded to f32 once, as f32.convert_i64_s does."""
        return Value("f32", _int_to_f32_bits(x) if isinstance(x, int) else f32_to_bits(float(x)))

    @staticmethod
    def f64(x: float) -> "Value":
        return Value("f64", f64_to_bits(float(x)))

    def signed(self) -> int:
        if self.type == "i32":
            return _s32(self.bits)
        if self.type == "i64":
            return _s64(self.bits)
        raise TypeError(f"signed() on {self.type}")

    def to_float(self) -> float:
        if self.type == "f32":
            return f32_from_bits(self.bits)
        if self.type == "f64":
            return f64_from_bits(self.bits)
        raise TypeError(f"to_float() on {self.type}")

    def __str__(self) -> str:
        if self.type in ("i32", "i64"):
            return f"{self.type}:{self.signed()}"
        return f"{self.type}:{self.to_float()!r}"


class Invocation(NamedTuple):
    func: str
    args: tuple[Value, ...] = ()


class Workload(NamedTuple):
    invocations: tuple[Invocation, ...] = ()
    fuel: int = DEFAULT_FUEL


class Results(NamedTuple):
    values: tuple[Value, ...] = ()


class Trap(NamedTuple):
    kind: str
    function_index: int | None = None


class LinkFailure(NamedTuple):
    message: str


class HostCall(NamedTuple):
    name: str
    args: tuple[Value, ...]


class InvocationRecord(NamedTuple):
    invocation: Invocation
    outcome: Results | Trap
    host_calls: tuple[HostCall, ...]


class ObservationLog(NamedTuple):
    records: tuple[InvocationRecord, ...]
    # the memory as the run left it; None without a memory or when
    # instantiation failed
    final_memory: bytearray | None
    instantiation_error: Trap | LinkFailure | None = None
    instantiation_host_calls: tuple[HostCall, ...] = ()


class ExecutionTrace(NamedTuple):
    entered: frozenset[int]
    call_targets: frozenset[int]
    table_observed: frozenset[int]


class HostFunc(NamedTuple):
    type: FuncType
    call: object  # callable(args: tuple[Value, ...]) -> tuple[Value, ...]


def _abort(args: tuple[Value, ...]) -> tuple[Value, ...]:
    raise TrapError(TRAP_UNREACHABLE)


def default_host() -> dict[tuple[str, str], HostFunc]:
    return {
        ("env", "log"): HostFunc(FuncType(("i32",), ()), lambda args: ()),
        ("env", "log64"): HostFunc(FuncType(("i64",), ()), lambda args: ()),
        ("env", "abort"): HostFunc(FuncType((), ()), _abort),
    }


# ---------------------------------------------------------------------------
# numeric semantics
#
# Operators work on raw bits. Each is an expression template over its
# operands ``{a}`` and ``{b}``, written once for the N its builder is called
# with: _int_ops(32) and _int_ops(64) give the i32 and i64 templates,
# _float_ops the f32 and f64 ones, each with the names they use beside the
# module's; the helpers below them are the width-free float steps. A
# template reads each operand once, ``{a}`` before ``{b}``, as the operands
# are computed in that order. Loads and stores: _LOAD and _STORE.


def _trap(kind: str, pos: int) -> TrapError:
    """A trap at unit ``pos`` of its run: the loop refunds the units after."""
    t = TrapError(kind)
    t.pos = pos
    return t


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if math.isnan(a) or a == 0.0:
            return math.nan
        neg = (math.copysign(1.0, a) < 0) != (math.copysign(1.0, b) < 0)
        return -math.inf if neg else math.inf
    return a / b


def _fsqrt(x: float) -> float:
    if x < 0:
        return math.nan
    return math.sqrt(x)


def _fmin(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b:
        # prefer the negative zero
        return a if math.copysign(1.0, a) < 0 else b
    return a if a < b else b


def _rounding(to_int):
    """The float rounding ``to_int`` gives (ceil, floor, trunc, nearest):
    NaNs and infinities stay as they are, and a zero keeps its sign."""

    def rounded(x: float) -> float:
        if math.isnan(x) or math.isinf(x):
            return x
        r = to_int(x)
        return math.copysign(0.0, x) if r == 0 else float(r)

    return rounded


def _int_to_f32_bits(n: int) -> int:
    """Round an integer to the nearest f32, ties to even, in one rounding:
    float(n) would round to 53 bits and then to 24, and can make a tie the
    second rounding breaks the wrong way. Round-to-odd keeps the top 53
    bits of |n| and ORs every bit below them into the last one kept; that
    float is exact, and rounding it to f32 rounds n."""
    m = abs(n)
    shift = max(m.bit_length() - 53, 0)
    odd = math.ldexp((m >> shift) | bool(m & ((1 << shift) - 1)), shift)
    return f32_to_bits(-odd if n < 0 else odd)


def _f32_result(x: float) -> int:
    return _CANON_NAN32 if math.isnan(x) else f32_to_bits(x)


def _f64_result(x: float) -> int:
    return _CANON_NAN64 if math.isnan(x) else f64_to_bits(x)


def _int_ops(bits: int) -> tuple[dict[str, str], dict[str, object]]:
    """The iN templates for N = ``bits``, by name without the type prefix,
    and the names they use."""
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)  # the sign bit: (u ^ half) - half is u read signed

    def div_s(a: int, b: int, pos: int) -> int:
        if b == 0:
            raise _trap(TRAP_DIV_ZERO, pos)
        a, b = (a ^ half) - half, (b ^ half) - half
        if a == -half and b == -1:
            raise _trap(TRAP_INT_OVERFLOW, pos)
        q = abs(a) // abs(b)
        return (-q if (a < 0) != (b < 0) else q) & mask

    def rem_s(a: int, b: int, pos: int) -> int:
        if b == 0:
            raise _trap(TRAP_DIV_ZERO, pos)
        a, b = (a ^ half) - half, (b ^ half) - half
        r = abs(a) % abs(b)
        return (-r if a < 0 else r) & mask

    def div_u(a: int, b: int, pos: int) -> int:
        if b == 0:
            raise _trap(TRAP_DIV_ZERO, pos)
        return a // b

    def rem_u(a: int, b: int, pos: int) -> int:
        if b == 0:
            raise _trap(TRAP_DIV_ZERO, pos)
        return a % b

    def rotl(a: int, k: int) -> int:
        k %= bits
        return ((a << k) | (a >> (bits - k))) & mask

    def rotr(a: int, k: int) -> int:
        k %= bits
        return ((a >> k) | (a << (bits - k))) & mask

    def ctz(a: int) -> int:
        return (a & -a).bit_length() - 1 if a else bits

    # flipping the sign bit maps signed order onto unsigned order
    templates = {
        "eqz": "1 if {a} == 0 else 0",
        "eq": "1 if {a} == {b} else 0",
        "ne": "1 if {a} != {b} else 0",
        "lt_s": "1 if {a} ^ half < {b} ^ half else 0",
        "lt_u": "1 if {a} < {b} else 0",
        "gt_s": "1 if {a} ^ half > {b} ^ half else 0",
        "gt_u": "1 if {a} > {b} else 0",
        "le_s": "1 if {a} ^ half <= {b} ^ half else 0",
        "le_u": "1 if {a} <= {b} else 0",
        "ge_s": "1 if {a} ^ half >= {b} ^ half else 0",
        "ge_u": "1 if {a} >= {b} else 0",
        "clz": "bits - {a}.bit_length()",
        "ctz": "ctz({a})",
        "popcnt": "bin({a}).count('1')",
        "add": "({a} + {b}) & mask",
        "sub": "({a} - {b}) & mask",
        "mul": "({a} * {b}) & mask",
        "div_s": "div_s({a}, {b}, pos)",
        "div_u": "div_u({a}, {b}, pos)",
        "rem_s": "rem_s({a}, {b}, pos)",
        "rem_u": "rem_u({a}, {b}, pos)",
        "and": "{a} & {b}",
        "or": "{a} | {b}",
        "xor": "{a} ^ {b}",
        "shl": "({a} << {b} % bits) & mask",
        "shr_s": "(({a} ^ half) - half >> {b} % bits) & mask",
        "shr_u": "{a} >> {b} % bits",
        "rotl": "rotl({a}, {b})",
        "rotr": "rotr({a}, {b})",
    }
    names = dict(mask=mask, half=half, bits=bits, div_s=div_s, rem_s=rem_s, div_u=div_u)
    return templates, names | dict(rem_u=rem_u, rotl=rotl, rotr=rotr, ctz=ctz)


def _float_ops(read, result, sign: int) -> tuple[dict[str, str], dict[str, object]]:
    """The fN templates, by name without the type prefix, and the names
    they use: ``read`` turns fN bits into a float, ``result`` a float into
    canonical fN bits, and ``sign`` is the sign bit."""
    # Python's round ties to even
    ceil, floor, trunc, nearest = map(_rounding, (math.ceil, math.floor, int, round))
    templates = {
        "eq": "1 if read({a}) == read({b}) else 0",
        "ne": "1 if read({a}) != read({b}) else 0",
        "lt": "1 if read({a}) < read({b}) else 0",
        "gt": "1 if read({a}) > read({b}) else 0",
        "le": "1 if read({a}) <= read({b}) else 0",
        "ge": "1 if read({a}) >= read({b}) else 0",
        "abs": "{a} & magnitude",
        "neg": "{a} ^ sign",
        "ceil": "result(ceil(read({a})))",
        "floor": "result(floor(read({a})))",
        "trunc": "result(trunc(read({a})))",
        "nearest": "result(nearest(read({a})))",
        "sqrt": "result(_fsqrt(read({a})))",
        "add": "result(read({a}) + read({b}))",
        "sub": "result(read({a}) - read({b}))",
        "mul": "result(read({a}) * read({b}))",
        "div": "result(_fdiv(read({a}), read({b})))",
        "min": "result(_fmin(read({a}), read({b})))",
        # max(a, b) = -min(-a, -b), NaNs and the zeros' signs included
        "max": "result(-_fmin(-read({a}), -read({b})))",
        "copysign": "({a} & magnitude) | ({b} & sign)",
    }
    names = dict(read=read, result=result, sign=sign, magnitude=sign - 1)
    return templates, names | dict(ceil=ceil, floor=floor, trunc=trunc, nearest=nearest)


def _trunc(read, bits: int, signed: bool):
    """``iN.trunc_fM_sx`` for N = ``bits``: ``read`` gives the fM float."""
    mask = (1 << bits) - 1
    lo, hi = (-(1 << bits - 1), mask >> 1) if signed else (0, mask)

    def trunc(a: int, pos: int) -> int:
        x = read(a)
        if math.isnan(x) or math.isinf(x):
            raise _trap(TRAP_INT_OVERFLOW, pos)
        v = int(x)
        if not lo <= v <= hi:
            raise _trap(TRAP_INT_OVERFLOW, pos)
        return v & mask

    return trunc


class _Template(NamedTuple):
    """The source of an instruction's node: ``body`` reads the operands
    ``{a}``, ``{b}`` and ``{c}``, in that order, and its last line is the
    value the node pushes, if the instruction pushes one; ``setup`` takes
    the node's immediates and instance objects from ``args`` and ``inst``
    once per function, and ``pos`` is its trap position. Every name they
    assign is the node's own."""

    body: str
    arity: int
    pushes: bool
    effect: bool  # whether it can trap or writes a local, a global or memory
    names: dict[str, object] = {}  # the names it uses beside the module's
    setup: str = ""


# opcode -> its template, for every instruction but local.get and the
# constants, which are operands
_OPERATORS: dict[int, _Template] = {}


def _typed(name: str, body: str, names: dict = {}, effect: bool = False, setup: str = "") -> None:
    """Enter the template of ``name``, which pops and pushes what its
    signature in opcodes.OPS says."""
    code = op.NAME_TO_OPCODE[name]
    info = op.OPS[code]
    _OPERATORS[code] = _Template(body, len(info.pops), bool(info.pushes), effect, names, setup)


# an operator traps only through the trap position it is given
for _t, (_templates, _names) in (
    ("i32", _int_ops(32)),
    ("i64", _int_ops(64)),
    ("f32", _float_ops(f32_from_bits, _f32_result, 0x80000000)),
    ("f64", _float_ops(f64_from_bits, _f64_result, 0x8000000000000000)),
):
    for _name, _body in _templates.items():
        _typed(f"{_t}.{_name}", _body, _names, "pos" in _body)
for _bits in (32, 64):
    for _t, _read in (("f32", f32_from_bits), ("f64", f64_from_bits)):
        for _sx in ("s", "u"):
            _names = {"trunc": _trunc(_read, _bits, _sx == "s")}
            _typed(f"i{_bits}.trunc_{_t}_{_sx}", "trunc({a}, pos)", _names, effect=True)
for _name, _body in {
    "i32.wrap_i64": "{a} & _M32",
    "i64.extend_i32_s": "_s32({a}) & _M64",
    "i64.extend_i32_u": "{a}",
    "f32.convert_i32_s": "_int_to_f32_bits(_s32({a}))",
    "f32.convert_i32_u": "_int_to_f32_bits({a})",
    "f32.convert_i64_s": "_int_to_f32_bits(_s64({a}))",
    "f32.convert_i64_u": "_int_to_f32_bits({a})",
    "f32.demote_f64": "_f32_result(f64_from_bits({a}))",
    "f64.convert_i32_s": "f64_to_bits(float(_s32({a})))",
    "f64.convert_i32_u": "f64_to_bits(float({a}))",
    "f64.convert_i64_s": "f64_to_bits(float(_s64({a})))",
    "f64.convert_i64_u": "f64_to_bits(float({a}))",
    "f64.promote_f32": "_f64_result(f32_from_bits({a}))",
    "i32.reinterpret_f32": "{a}",
    "i64.reinterpret_f64": "{a}",
    "f32.reinterpret_i32": "{a}",
    "f64.reinterpret_i64": "{a}",
}.items():
    _typed(_name, _body)

# a load or store is one struct call, ``access``, behind a bounds check;
# a load's mask turns a sign-extended read into the result type's bits, a
# store's drops the bits the width truncates
_LOAD = """addr = {a} + offset_
if addr + width > len(mem):
    raise _trap(TRAP_OOB_MEMORY, pos)
access(mem, addr)[0] & mask"""
_STORE = """addr, value = {a} + offset_, {b}
if addr + width > len(mem):
    raise _trap(TRAP_OOB_MEMORY, pos)
access(mem, addr, value & mask)"""
# constants, opcode -> mask
_CONST_MASKS: dict[int, int] = {}
for _code, _info in op.OPS.items():
    if _info.imm == "memarg":
        _fmt = ("bhiq" if _info.name.endswith("_s") else "BHIQ")[_info.width.bit_length() - 1]
        _s = struct.Struct("<" + _fmt)
        if _info.pushes:
            _mask = _M32 if _info.pushes[0] in (op.I32, op.F32) else _M64
            _body, _names = _LOAD, dict(access=_s.unpack_from, mask=_mask)
        else:
            _body, _names = _STORE, dict(access=_s.pack_into, mask=(1 << 8 * _info.width) - 1)
        _names["width"] = _info.width
        _typed(_info.name, _body, _names, effect=True, setup="offset_, mem = args[1], inst.mem")
    elif _info.imm in op.VAL_TYPES:
        _CONST_MASKS[_code] = _M32 if _info.pushes[0] in (op.I32, op.F32) else _M64

_typed("memory.size", "len(mem) // PAGE_SIZE", setup="mem = inst.mem")
_typed(
    "memory.grow",
    # a growth past the cap gives -1, and one page at a time makes no
    # temporary as large as the growth
    """delta, current = {a}, len(mem) // PAGE_SIZE
if current + delta > cap:
    current = _M32
else:
    for _ in range(delta):
        mem.extend(_ZERO_PAGE)
current""",
    effect=True,
    setup="""mem, limit = inst.mem, inst.module.memories[0].maximum
cap = MAX_PAGES if limit is None else min(limit, MAX_PAGES)""",
)
# the instructions without a signature in opcodes.OPS
_GLOBAL_SETUP = "i_, globals_ = args[0], inst.globals"
_OPERATORS.update({
    op.LOCAL_SET: _Template("L[i_] = {a}", 1, False, True, setup="i_, = args"),
    op.LOCAL_TEE: _Template("L[i_] = v = {a}\nv", 1, True, True, setup="i_, = args"),
    op.GLOBAL_GET: _Template("globals_[i_]", 0, True, False, setup=_GLOBAL_SETUP),
    op.GLOBAL_SET: _Template("globals_[i_] = {a}", 1, False, True, setup=_GLOBAL_SETUP),
    op.DROP: _Template("{a}", 1, False, False),  # computed for what it does
    op.SELECT: _Template("({a}, {b})[not {c}]", 3, True, False),
    op.UNREACHABLE: _Template("raise _trap(TRAP_UNREACHABLE, pos)", 0, False, True),
    # the callee, for the _CALL after it
    op.CALL_INDIRECT: _Template(
        """slot = {a}
if slot >= size:
    raise _trap(TRAP_OOB_TABLE, pos)
callee = table.get(slot)
if callee is None:
    raise _trap(TRAP_UNDEFINED_ELEMENT, pos)
observed.add(callee)
if sigs[callee] != sig:
    raise _trap(TRAP_CALL_TYPE, pos)
callee""",
        1, True, True,
        setup="""sig, table, size = inst._type_ids[args[0]], inst.table, inst.table_size
observed, sigs = inst.table_observed, inst._func_sigs""",
    ),
})


# ---------------------------------------------------------------------------
# compiled form
#
# A body compiles to runs (units, run, exit, body), entered only at their
# start: ``body`` is the instructions before the exit, at most _MAX_NODES
# of them, a fuel unit each, and ``run`` the function of the frame's
# locals that computes the run's top-level nodes in turn, pushing the
# value of each that pushes. The exits: (_BR, run, keep, drop),
# (_BR_TABLE, targets, default) of (run, keep, drop) targets, indexed by
# the popped value, (_CALL, callee, argc), whose callee None is on the
# stack, and (_END,).

_BR, _BR_TABLE, _CALL, _END = range(4)

_MAX_DEPTH = 32  # the deepest operand tree that one node computes
# the most instructions a run holds, and so the most nodes one function
# computes: a longer straight line is cut into runs that fall through
_MAX_NODES = 256
_MAX_SHAPES = 2048  # the most shapes _SHAPES holds; a full table starts over

# wasm frames the call stack may hold besides the running one
_MAX_SUSPENDED = CALL_STACK_LIMIT - 1

_ZERO_PAGE = bytes(PAGE_SIZE)

# opcode -> how an instruction in a run moves the stack height
_HEIGHTS = {code: t.pushes - t.arity for code, t in _OPERATORS.items()}
_HEIGHTS.update(dict.fromkeys((op.LOCAL_GET, *_CONST_MASKS), 1))


def _trees(codes: tuple) -> list[tuple]:
    """The top-level nodes of a run of instructions with opcodes
    ``codes``, folded as the module docstring says, as (place, node,
    depth): the node's instruction's place in the run, the node and the
    depth of its tree. A node is (opcode, *operands), an operand either
    ``s``, a value off the operand stack, or (place, node) of a child.
    The operands of an instruction that can trap or writes are all that
    stays pending beneath it, and a tree deeper than _MAX_DEPTH puts its
    operands on the stack."""
    trees: list[tuple] = []
    pend: list[tuple] = []  # the operands not computed yet, as trees are

    def flush(upto: int | None = None) -> None:
        trees.extend(pend[:upto])
        del pend[:upto]

    for i, opcode in enumerate(codes):
        if opcode == op.LOCAL_GET or opcode in _CONST_MASKS:
            pend.append((i, (opcode,), 1))
            continue
        t = _OPERATORS.get(opcode)
        if t is None:  # nop, block or loop
            continue
        k = t.arity
        n = min(k, len(pend))
        if t.effect and len(pend) > n:
            flush(len(pend) - n)
        node, depth = (opcode, *"s" * k), 1
        if n:
            places, nodes, depths = zip(*pend[-n:])
            depth = max(depths) + 1
            if depth > _MAX_DEPTH:
                flush()
                depth = 1
            else:
                del pend[-n:]
                node = (opcode, *"s" * (k - n), *zip(places, nodes))
        (pend if t.pushes else trees).append((i, node, depth))
    flush()
    return trees


# shape -> the factory of its functions, filled on first use. A run's
# shape is its instructions' opcodes
_SHAPES: dict[tuple, object] = {}

# a name in a template, which is its node's own unless it is the module's,
# a builtin, a keyword, or the run function's locals L or its factory's inst
_IDENTIFIER = re.compile(r"(?<![\w.{])[A-Za-z_]\w*")
# the globals of every factory: the module's, and a template's names that
# are not integers, suffixed with its opcode
_SCOPE = dict(globals())


def _factory(shape: tuple):
    """The factory of the functions of the runs of ``shape``, folded into
    its top-level nodes by ``_trees``: its arguments are a run's
    instructions ``B``, the place ``base`` of the first in its run and
    the instance. Each node's template is inlined, its own names suffixed
    with its place and its operands computed in place; the children of a
    node that pops are computed first, into temporaries, so that the pops
    come in order. A template's integers are written as literals; local
    indices, constants and immediates come from ``B``, so no value of a
    module reaches ``exec``."""
    unpack, setup = ["_"] * len(shape), []

    def node(i: int, tree: tuple) -> tuple[list[str], str | None]:
        """The lines that compute the node at place ``i`` and the
        expression of its value."""
        opcode, *kinds = tree
        if opcode not in _OPERATORS:  # a local read or a constant
            unpack[i] = f"(_, (x_{i},))"
            if opcode == op.LOCAL_GET:
                return [], f"L[x_{i}]"
            setup.append(f"x_{i} &= {_CONST_MASKS[opcode]:#x}")
            return [], f"x_{i}"
        t = _OPERATORS[opcode]
        taken = kinds.count("s")
        lines, operands = [], {}
        for j, (x, kind) in enumerate(zip("abc", kinds)):
            if kind == "s":
                operands[x] = "pop()" if j == taken - 1 else f"pop({j - taken})"
                continue
            child_lines, value = node(*kind)
            lines += child_lines
            if taken:
                lines.append(f"{x}_{i} = {value}")
                value = f"{x}_{i}"
            operands[x] = f"({value})"

        def rename(m: re.Match) -> str:
            word = m[0]
            if word in t.names:
                value = t.names[word]
                if isinstance(value, int):
                    return f"{value:#x}"
                _SCOPE[f"{word}_{opcode:x}"] = value
                return f"{word}_{opcode:x}"
            if word in ("L", "inst") or word in _SCOPE or word in builtins.__dict__ or iskeyword(word):
                return word
            return f"{word}_{i}"

        if "args" in t.setup:
            unpack[i] = f"(_, args_{i})"
        if "pos" in t.body:
            setup.append(f"pos_{i} = base + {i + 1}")
        if t.setup:
            setup.append(_IDENTIFIER.sub(rename, t.setup))
        body = _IDENTIFIER.sub(rename, t.body).format(**operands).split("\n")
        value = body.pop() if t.pushes else None
        return lines + body, value

    body = []
    for i, tree, _ in _trees(shape):
        lines, value = node(i, tree)
        body += lines if value is None else [*lines, f"push({value})"]
    source = "\n    ".join([
        "def factory(B, base, inst):",
        f"{', '.join(unpack)}, = B" if shape else "",
        *"\n".join(setup).split("\n"),
        "pop, push = inst._stack.pop, inst._stack.append",
        "def run(L):",
        *["    " + line for line in body or ["pass"]],
        "return run",
    ])
    exec(source, _SCOPE)
    factory = _SCOPE.pop("factory")
    if len(_SHAPES) >= _MAX_SHAPES:
        _SHAPES.clear()
    _SHAPES[shape] = factory
    return factory


def _function(inst: Instance, body: tuple, base: int = 0):
    """The function of a run of instructions ``body``, the first at place
    ``base`` of the run it is in."""
    shape = tuple([code for code, _ in body])
    factory = _SHAPES.get(shape) or _factory(shape)
    return factory(body, base, inst)


# a body, block, loop or if the compiler is inside: the label a branch to
# it goes to, the values the branch carries, the static stack height at
# entry, the values it leaves, and the label a false if condition goes to
_Control = namedtuple("_Control", "label keep height arity else_label", defaults=(None,))


def _compile(inst: Instance, fn: Function) -> list[tuple]:
    """Compile one body in a single pass over its instructions.

    A branch, ``if``, call or else-jump ends the run as its exit, and so
    does ``call_indirect`` after its node; ``loop`` and ``END`` end it
    with a _BR to the next run, so every label starts a run, and a run
    that reaches _MAX_NODES instructions ends the same way. A header
    pushes a ``_Control``; ``END`` pops it and places its label (a loop's
    is at its start) and an ``if``'s else label. A target ``(label, keep,
    drop)`` keeps the top ``keep`` values and drops the ``drop`` beneath
    them, back to the label's height at entry, from the static heights of
    validated code. Labels are numbered as they open and resolved at the end.
    """
    m = inst.module
    runs: list[tuple] = []
    body: list = []  # the instructions of the run being built
    pcs: list[int | None] = []  # label id -> run index, set once known
    h = 0  # static operand-stack height above the frame's base

    def new_label(pc: int | None = None) -> int:
        pcs.append(pc)
        return len(pcs) - 1

    def target(depth: int, h: int) -> tuple[int, int, int]:
        c = ctrl[-1 - depth]
        return (c.label, c.keep, h - c.keep - c.height)

    def onward() -> tuple[int, int, int]:
        """The target of falling through from the run being built."""
        return (new_label(len(runs) + 1), 0, 0)

    def close(exit_: tuple, unit: int = 1) -> None:
        run = tuple(body)
        runs.append((len(run) + unit, _function(inst, run), exit_, run))
        body.clear()

    n = len(m.types[fn.type_index].results)
    ctrl = [_Control(new_label(), n, 0, n)]
    for instr in fn.body:
        opcode, args = instr
        if opcode == op.END:
            c = ctrl.pop()
            if body:
                close((_BR, *onward()), 0)
            for label in (c.label, c.else_label):
                if label is not None and pcs[label] is None:
                    pcs[label] = len(runs)
            h = c.height + c.arity
        elif opcode == op.ELSE:
            c = ctrl[-1]
            close((_BR, *target(0, h)), 0)
            pcs[c.else_label] = len(runs)
            h = c.height
        elif not op.LOOP < opcode < op.CALL_INDIRECT:
            body.append(instr)
            h += _HEIGHTS.get(opcode, 0)
            if opcode == op.LOOP:  # a branch back re-enters past its unit
                close((_BR, *onward()), 0)
                ctrl.append(_Control(new_label(len(runs)), 0, h, 0 if args[0] is None else 1))
            elif opcode == op.BLOCK:
                arity = 0 if args[0] is None else 1
                ctrl.append(_Control(new_label(), arity, h, arity))
            elif opcode == op.CALL_INDIRECT:
                callee = m.types[args[0]]
                h += len(callee.results) - len(callee.params) - 1
                close((_CALL, None, len(callee.params)), 0)
            if len(body) == _MAX_NODES:
                close((_BR, *onward()), 0)
        elif opcode == op.CALL:
            callee = m.func_type_of(args[0])
            h += len(callee.results) - len(callee.params)
            close((_CALL, args[0], len(callee.params)))
        elif opcode == op.IF:
            arity = 0 if args[0] is None else 1
            h -= 1
            else_label = new_label()
            close((_BR_TABLE, ((else_label, 0, 0),), onward()))  # 0: the else arm
            ctrl.append(_Control(new_label(), arity, h, arity, else_label))
        elif opcode == op.BR:
            close((_BR, *target(args[0], h)))
        elif opcode == op.BR_IF:
            h -= 1
            close((_BR_TABLE, (onward(),), target(args[0], h)))  # 0: fall through
        elif opcode == op.BR_TABLE:
            h -= 1
            labels, default = args
            close((_BR_TABLE, tuple(target(d, h) for d in labels), target(default, h)))
        elif opcode == op.RETURN:
            close((_BR, *target(len(ctrl) - 1, h)))
        else:
            raise AssertionError(f"unhandled opcode 0x{opcode:02x}")
    if body:
        close((_END,), 0)
    pcs[ctrl[0].label] = len(runs)
    close((_END,), 0)

    def resolve(t: tuple[int, int, int]) -> tuple[int, int, int]:
        return (pcs[t[0]], t[1], t[2])

    for i, (units, stmts, exit_, run_body) in enumerate(runs):
        if exit_[0] == _BR:
            exit_ = (_BR, *resolve(exit_[1:]))
        elif exit_[0] == _BR_TABLE:
            exit_ = (_BR_TABLE, tuple(map(resolve, exit_[1])), resolve(exit_[2]))
        runs[i] = (units, stmts, exit_, run_body)
    return runs


def _paid_part(inst: Instance, body: tuple, paid: int):
    """The function of a run whose budget pays for its first ``paid``
    instructions: those, a function each, then the fuel trap. A function
    of one instruction has the shape of a run of it alone, so a partial
    run makes no shape of its own."""
    parts = [_function(inst, body[i : i + 1], i) for i in range(paid)]

    def out_of_fuel(L):
        for part in parts:
            part(L)
        raise _trap(TRAP_FUEL_EXHAUSTED, paid)

    return out_of_fuel


# ---------------------------------------------------------------------------
# execution


class Instance:
    """A linked, initialized module plus its runtime and trace state."""

    def __init__(self, m: Module, host: dict | None = None):
        self.module = m
        self.host = default_host() if host is None else host
        self.mem: bytearray | None = None
        # the table's size and its filled slots: slot -> function index
        self.table_size = 0
        self.table: dict[int, int] = {}
        self.globals: list[int] = []
        self.host_log: list[HostCall] = []
        self.entered: set[int] = set()
        self.call_targets: set[int] = set()
        self.table_observed: set[int] = set()
        self.fuel = 0
        # the operand stack every frame shares, which compiled code pushes to
        self._stack: list[int] = []
        # function export name -> (function index, type)
        self._exports = {
            e.name: (e.index, m.func_type_of(e.index)) for e in m.exports if e.kind == "func"
        }
        # per imported function: its "module.name" and what implements it
        self._host_funcs: list[tuple[str, HostFunc]] = []
        self._n_imports = m.num_func_imports
        # per combined function index: (runs, zeroed locals), compiled on
        # first entry
        self._compiled: list[tuple[list[tuple], list[int]] | None] = [None] * m.num_funcs
        # structurally equal types share an id, which call_indirect compares
        canon: dict[FuncType, int] = {}
        self._type_ids = [canon.setdefault(ft, len(canon)) for ft in m.types]
        self._func_sigs = [self._type_ids[t] for t in m.func_type_indices]

    # -- instantiation

    def initialize(self, fuel: int = DEFAULT_FUEL) -> None:
        m = self.module
        for imp in m.imports:
            if imp.kind != "func":
                raise LinkError(
                    f"unsatisfied {imp.kind} import {imp.module}.{imp.name}"
                )
            hf = self.host.get((imp.module, imp.name))
            if hf is None:
                raise LinkError(f"unknown import {imp.module}.{imp.name}")
            expected = m.types[imp.desc]
            if hf.type != expected:
                raise LinkError(
                    f"import {imp.module}.{imp.name}: host provides "
                    f"{hf.type}, module expects {expected}"
                )
            self._host_funcs.append((f"{imp.module}.{imp.name}", hf))

        self.globals = [self._eval_const(g.init) for g in m.globals]
        if m.tables:
            self.table_size = m.tables[0].minimum
        if m.memories:
            self.mem = bytearray(m.memories[0].minimum * PAGE_SIZE)

        # all segment bounds are checked before any writes happen
        elem_offsets = [self._eval_const(seg.offset) for seg in m.elements]
        for seg, off in zip(m.elements, elem_offsets):
            if off + len(seg.func_indices) > self.table_size:
                raise TrapError(TRAP_OOB_TABLE)
        data_offsets = [self._eval_const(seg.offset) for seg in m.data]
        for seg, off in zip(m.data, data_offsets):
            if self.mem is None or off + len(seg.data) > len(self.mem):
                raise TrapError(TRAP_OOB_MEMORY)
        for seg, off in zip(m.elements, elem_offsets):
            for i, funcidx in enumerate(seg.func_indices):
                self.table[off + i] = funcidx
        for seg, off in zip(m.data, data_offsets):
            self.mem[off : off + len(seg.data)] = seg.data

        if m.start is not None:
            self.fuel = fuel
            self._execute(m.start, [])

    def _eval_const(self, expr: Expr) -> int:
        # a t.const: a global.get may only read an imported global, and a
        # global import fails to link before any initializer runs
        instr = expr[0]
        return instr.args[0] & _CONST_MASKS[instr.opcode]

    # -- invocation

    def _call_host(self, funcidx: int, raw_args: list[int]) -> list[int]:
        name, hf = self._host_funcs[funcidx]
        args = tuple(map(Value, hf.type.params, raw_args))
        self.host_log.append(HostCall(name, args))
        try:
            results = hf.call(args)
        except TrapError as t:
            raise TrapError(t.kind, funcidx) from None
        return [v.bits for v in results]

    def _enter(self, funcidx: int) -> tuple[list[tuple], list[int]]:
        """The first entry of a defined function: compile its body, and
        record it as entered, so the trace needs no probe on later calls.
        Returns its compiled code and zeroed locals."""
        self.entered.add(funcidx)
        fn = self.module.functions[funcidx - self._n_imports]
        compiled = self._compiled[funcidx] = (_compile(self, fn), [0] * len(fn.locals))
        return compiled

    def _execute(self, funcidx: int, args: list[int]) -> list[int]:
        """Run a function, and every wasm call it makes, in one loop; an
        import is the host's call.

        A run's function computes and traps; its exit moves control, within
        the frame (_BR, _BR_TABLE) or between frames (_CALL, _END). All
        frames share one operand stack. A call moves its arguments into
        the callee's locals and suspends the caller on ``frames``; the
        callee's _END leaves exactly its results where the arguments were.
        Fuel lives in a local and is written back however the loop exits.
        A trap raised without a function index gets the running one's.
        """
        n_imports = self._n_imports
        if funcidx < n_imports:
            return self._call_host(funcidx, args)
        call_targets, compiled = self.call_targets, self._compiled
        stack = self._stack
        pop = stack.pop
        base = len(stack)  # a host function may call in: what is below is its caller's
        frames: list[tuple] = []  # suspended callers: (code, pc, locals, funcidx)
        max_suspended = _MAX_SUSPENDED

        code, zeros = compiled[funcidx] or self._enter(funcidx)
        locals_ = args + zeros
        pc = units = 0
        fuel = self.fuel
        try:
            while True:
                units, run, exit_, body = code[pc]
                pc += 1
                fuel -= units
                # a run that costs nothing runs even on a negative budget
                if fuel < 0 and units:
                    run = _paid_part(self, body, max(fuel + units, 0))
                run(locals_)
                # the exits in the order of how often they run
                k = exit_[0]
                if k == _CALL:
                    _, callee, argc = exit_
                    if callee is None:  # a call_indirect's, which its run pushed
                        callee = pop()
                    if len(frames) >= max_suspended:
                        raise TrapError(TRAP_STACK_EXHAUSTED)
                    call_targets.add(callee)
                    top = len(stack) - argc
                    if callee < n_imports:
                        call_args = stack[top:]
                        del stack[top:]
                        stack.extend(self._call_host(callee, call_args))
                    else:
                        frames.append((code, pc, locals_, funcidx))
                        code, zeros = compiled[callee] or self._enter(callee)
                        locals_ = stack[top:]
                        del stack[top:]
                        locals_ += zeros
                        pc = 0
                        funcidx = callee
                elif k == _END:
                    if not frames:
                        return stack[base:]
                    code, pc, locals_, funcidx = frames.pop()
                elif k == _BR_TABLE:
                    i = pop()
                    labels = exit_[1]
                    pc, keep, drop = labels[i] if i < len(labels) else exit_[2]
                    if drop:
                        top = len(stack) - keep
                        del stack[top - drop : top]
                else:  # _BR
                    _, pc, keep, drop = exit_
                    if drop:  # the values under the top ``keep``
                        top = len(stack) - keep
                        del stack[top - drop : top]
        except TrapError as t:
            # a trap at unit ``pos`` of its run refunds the units after it
            fuel += units - getattr(t, "pos", units)
            if t.function_index is None:
                t.function_index = funcidx
            raise
        finally:
            self.fuel = fuel
            del stack[base:]

    def trace(self) -> ExecutionTrace:
        return ExecutionTrace(
            frozenset(self.entered),
            frozenset(self.call_targets),
            frozenset(self.table_observed),
        )


def instantiate(m: Module, host: dict | None = None, fuel: int = DEFAULT_FUEL) -> Instance:
    inst = Instance(m, host)
    inst.initialize(fuel)
    return inst


def invoke(
    inst: Instance, export_name: str, args: tuple[Value, ...] = (), fuel: int = DEFAULT_FUEL
) -> Results | Trap:
    exp = inst._exports.get(export_name)
    if exp is None:
        raise UnknownExport(export_name)
    funcidx, ft = exp
    got = tuple([v.type for v in args])
    if got != ft.params:
        raise SignatureMismatch(str(ft), f"({', '.join(got)})")
    inst.fuel = fuel
    try:
        raw = inst._execute(funcidx, [v.bits for v in args])
    except TrapError as t:
        return Trap(t.kind, t.function_index)
    return Results(tuple(map(Value, ft.results, raw)))


def run_workload(m: Module, w: Workload) -> tuple[ObservationLog, ExecutionTrace]:
    inst = Instance(m)
    failure: Trap | LinkFailure | None = None
    try:
        inst.initialize(w.fuel)
    except LinkError as e:
        failure = LinkFailure(str(e))
    except TrapError as t:
        failure = Trap(t.kind, t.function_index)
    init_calls = tuple(inst.host_log)

    records: list[InvocationRecord] = []
    if failure is None:
        host_log = inst.host_log
        fuel = w.fuel
        for inv in w.invocations:
            mark = len(host_log)
            # through invoke, whose spans perfbench counts per invocation
            outcome = invoke(inst, inv.func, inv.args, fuel)
            records.append(InvocationRecord(inv, outcome, tuple(host_log[mark:])))

    log = ObservationLog(
        records=tuple(records),
        # the instance ends here, so the log takes its buffer over
        final_memory=inst.mem if failure is None else None,
        instantiation_error=failure,
        instantiation_host_calls=init_calls,
    )
    return log, inst.trace()
