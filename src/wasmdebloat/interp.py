"""Tracing interpreter for WebAssembly 1.0 modules.

Executes a workload against one instance while recording which functions
ran (the execution trace) and what the run observably did (the
observation log).

Each function body is compiled once per instance, on first entry, which
also records it as entered, into straight-line runs (``_compile``). A
run's statements compute and trap; its exit only moves control, and is
one of four: a branch, a branch table, a call or the end. A branch goes
to a run, keeping the values it carries and dropping those beneath them,
all fixed at compile time (Titzer, "A fast in-place interpreter for
WebAssembly", OOPSLA 2022); ``if`` and ``br_if`` are tables of one
branch, and ``call_indirect`` is a statement that checks its slot and
leaves the callee for the call. In a run, an instruction's closure takes
as children the closures that compute its operands (closure generation:
Feeley & Lapalme, "Using closures for code generation", Computer
Languages 1987; ``_run_compiler``): ``local.get 1; local.get 0; i32.add;
local.set 1`` is one closure. A producer folds into its consumer only if
no instruction between them can trap or writes a local, a global or
memory; otherwise, at the run's end and past _MAX_DEPTH levels (a Python
frame each), its tree becomes a statement that pushes its value. One
loop (``Instance._execute``) runs that code with an explicit operand
stack and call stack: a branch raises no exception and a wasm call adds
no Python frame, so nesting depth and call depth cost no Python
recursion. Fuel is one unit per executed instruction; ``else`` and
``end`` cost nothing. The loop charges a run once, as it fetches it, and
fuel stays exact: a statement that traps refunds the units of the run
after its own, and fuel that does not cover a run runs the instructions
it pays for, compiled as a run, then traps.

Numbers are carried as raw bit patterns (unsigned ints); types are
static and were established by validation. Each numeric operator is
written once for both widths, generic over N as the spec defines it
(WebAssembly Core Specification 1.0, section 4.3), and built for each
width (``_int_ops``, ``_float_ops``). Floats are materialized only
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

import math
import struct
from collections import namedtuple
from operator import itemgetter
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
        return Value("f32", f32_to_bits(float(x)))

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


# host registry: (module, name) -> HostFunc
HostConfig = dict


def _abort(args: tuple[Value, ...]) -> tuple[Value, ...]:
    raise TrapError(TRAP_UNREACHABLE)


def default_host() -> HostConfig:
    return {
        ("env", "log"): HostFunc(FuncType(("i32",), ()), lambda args: ()),
        ("env", "log64"): HostFunc(FuncType(("i64",), ()), lambda args: ()),
        ("env", "abort"): HostFunc(FuncType((), ()), _abort),
    }


# ---------------------------------------------------------------------------
# numeric semantics
#
# Operators work on raw bits. Each is written once, for the N its builder
# is called with: _int_ops(32) and _int_ops(64) give the i32 and i64
# operators, _float_ops the f32 and f64 ones; the helpers below them are
# the width-free float steps. Loads and stores are struct calls (_MEMORY).


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


def _bool(x: bool) -> int:
    return 1 if x else 0


def _int_ops(bits: int) -> dict[str, object]:
    """The iN operators for N = ``bits``, by name without the type prefix."""
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)  # the sign bit: (u ^ half) - half is u read signed

    def div_s(a: int, b: int) -> int:
        if b == 0:
            raise TrapError(TRAP_DIV_ZERO)
        a, b = (a ^ half) - half, (b ^ half) - half
        if a == -half and b == -1:
            raise TrapError(TRAP_INT_OVERFLOW)
        q = abs(a) // abs(b)
        return (-q if (a < 0) != (b < 0) else q) & mask

    def rem_s(a: int, b: int) -> int:
        if b == 0:
            raise TrapError(TRAP_DIV_ZERO)
        a, b = (a ^ half) - half, (b ^ half) - half
        r = abs(a) % abs(b)
        return (-r if a < 0 else r) & mask

    def div_u(a: int, b: int) -> int:
        if b == 0:
            raise TrapError(TRAP_DIV_ZERO)
        return a // b

    def rem_u(a: int, b: int) -> int:
        if b == 0:
            raise TrapError(TRAP_DIV_ZERO)
        return a % b

    def rotl(a: int, k: int) -> int:
        k %= bits
        return ((a << k) | (a >> (bits - k))) & mask

    def rotr(a: int, k: int) -> int:
        k %= bits
        return ((a >> k) | (a << (bits - k))) & mask

    # flipping the sign bit maps signed order onto unsigned order
    return {
        "eqz": lambda a: _bool(a == 0),
        "eq": lambda a, b: _bool(a == b),
        "ne": lambda a, b: _bool(a != b),
        "lt_s": lambda a, b: _bool(a ^ half < b ^ half),
        "lt_u": lambda a, b: _bool(a < b),
        "gt_s": lambda a, b: _bool(a ^ half > b ^ half),
        "gt_u": lambda a, b: _bool(a > b),
        "le_s": lambda a, b: _bool(a ^ half <= b ^ half),
        "le_u": lambda a, b: _bool(a <= b),
        "ge_s": lambda a, b: _bool(a ^ half >= b ^ half),
        "ge_u": lambda a, b: _bool(a >= b),
        "clz": lambda a: bits - a.bit_length(),
        "ctz": lambda a: (a & -a).bit_length() - 1 if a else bits,
        "popcnt": lambda a: bin(a).count("1"),
        "add": lambda a, b: (a + b) & mask,
        "sub": lambda a, b: (a - b) & mask,
        "mul": lambda a, b: (a * b) & mask,
        "div_s": div_s,
        "div_u": div_u,
        "rem_s": rem_s,
        "rem_u": rem_u,
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "xor": lambda a, b: a ^ b,
        "shl": lambda a, b: (a << b % bits) & mask,
        "shr_s": lambda a, b: ((a ^ half) - half >> b % bits) & mask,
        "shr_u": lambda a, b: a >> b % bits,
        "rotl": rotl,
        "rotr": rotr,
    }


def _float_ops(read, result, sign: int) -> dict[str, object]:
    """The fN operators, by name without the type prefix: ``read`` turns
    fN bits into a float, ``result`` a float into canonical fN bits, and
    ``sign`` is the sign bit."""
    magnitude = sign - 1
    # Python's round ties to even
    ceil, floor, trunc, nearest = map(_rounding, (math.ceil, math.floor, int, round))
    return {
        "eq": lambda a, b: _bool(read(a) == read(b)),
        "ne": lambda a, b: _bool(read(a) != read(b)),
        "lt": lambda a, b: _bool(read(a) < read(b)),
        "gt": lambda a, b: _bool(read(a) > read(b)),
        "le": lambda a, b: _bool(read(a) <= read(b)),
        "ge": lambda a, b: _bool(read(a) >= read(b)),
        "abs": lambda a: a & magnitude,
        "neg": lambda a: a ^ sign,
        "ceil": lambda a: result(ceil(read(a))),
        "floor": lambda a: result(floor(read(a))),
        "trunc": lambda a: result(trunc(read(a))),
        "nearest": lambda a: result(nearest(read(a))),
        "sqrt": lambda a: result(_fsqrt(read(a))),
        "add": lambda a, b: result(read(a) + read(b)),
        "sub": lambda a, b: result(read(a) - read(b)),
        "mul": lambda a, b: result(read(a) * read(b)),
        "div": lambda a, b: result(_fdiv(read(a), read(b))),
        "min": lambda a, b: result(_fmin(read(a), read(b))),
        # max(a, b) = -min(-a, -b), NaNs and the zeros' signs included
        "max": lambda a, b: result(-_fmin(-read(a), -read(b))),
        "copysign": lambda a, b: (a & magnitude) | (b & sign),
    }


def _trunc(read, bits: int, signed: bool):
    """``iN.trunc_fM_sx`` for N = ``bits``: ``read`` gives the fM float."""
    mask = (1 << bits) - 1
    lo, hi = (-(1 << bits - 1), mask >> 1) if signed else (0, mask)

    def trunc(a: int) -> int:
        x = read(a)
        if math.isnan(x) or math.isinf(x):
            raise TrapError(TRAP_INT_OVERFLOW)
        v = int(x)
        if not lo <= v <= hi:
            raise TrapError(TRAP_INT_OVERFLOW)
        return v & mask

    return trunc


# the operators, opcode -> f(a, b) or f(a), on raw bits and returning raw
# bits
_OPERATORS: dict[int, object] = {}
for _t, _ops in (
    ("i32", _int_ops(32)),
    ("i64", _int_ops(64)),
    ("f32", _float_ops(f32_from_bits, _f32_result, 0x80000000)),
    ("f64", _float_ops(f64_from_bits, _f64_result, 0x8000000000000000)),
):
    for _name, _f in _ops.items():
        _code = op.NAME_TO_OPCODE[f"{_t}.{_name}"]
        _OPERATORS[_code] = _f
for _bits in (32, 64):
    for _t, _read in (("f32", f32_from_bits), ("f64", f64_from_bits)):
        for _sx in ("s", "u"):
            _code = op.NAME_TO_OPCODE[f"i{_bits}.trunc_{_t}_{_sx}"]
            _OPERATORS[_code] = _trunc(_read, _bits, _sx == "s")
_OPERATORS.update(
    {
        op.NAME_TO_OPCODE["i32.wrap_i64"]: lambda a: a & _M32,
        op.NAME_TO_OPCODE["i64.extend_i32_s"]: lambda a: _s32(a) & _M64,
        op.NAME_TO_OPCODE["i64.extend_i32_u"]: lambda a: a,
        op.NAME_TO_OPCODE["f32.convert_i32_s"]: lambda a: _int_to_f32_bits(_s32(a)),
        op.NAME_TO_OPCODE["f32.convert_i32_u"]: lambda a: _int_to_f32_bits(a),
        op.NAME_TO_OPCODE["f32.convert_i64_s"]: lambda a: _int_to_f32_bits(_s64(a)),
        op.NAME_TO_OPCODE["f32.convert_i64_u"]: lambda a: _int_to_f32_bits(a),
        op.NAME_TO_OPCODE["f32.demote_f64"]: lambda a: _f32_result(f64_from_bits(a)),
        op.NAME_TO_OPCODE["f64.convert_i32_s"]: lambda a: f64_to_bits(float(_s32(a))),
        op.NAME_TO_OPCODE["f64.convert_i32_u"]: lambda a: f64_to_bits(float(a)),
        op.NAME_TO_OPCODE["f64.convert_i64_s"]: lambda a: f64_to_bits(float(_s64(a))),
        op.NAME_TO_OPCODE["f64.convert_i64_u"]: lambda a: f64_to_bits(float(a)),
        op.NAME_TO_OPCODE["f64.promote_f32"]: lambda a: _f64_result(f32_from_bits(a)),
        op.NAME_TO_OPCODE["i32.reinterpret_f32"]: lambda a: a,
        op.NAME_TO_OPCODE["i64.reinterpret_f64"]: lambda a: a,
        op.NAME_TO_OPCODE["f32.reinterpret_i32"]: lambda a: a,
        op.NAME_TO_OPCODE["f64.reinterpret_i64"]: lambda a: a,
    }
)

# derived from opcodes.OPS: memory accesses, opcode -> (width, the
# struct's unpack_from for a load or pack_into for a store, value mask);
# a load's mask turns a sign-extended read into the result type's bits, a
# store's drops the bits the width truncates; constants, opcode -> mask
_MEMORY: dict[int, tuple[int, object, int]] = {}
_CONST_MASKS: dict[int, int] = {}
for _code, _info in op.OPS.items():
    if _info.imm == "memarg":
        _fmt = ("bhiq" if _info.name.endswith("_s") else "BHIQ")[_info.width.bit_length() - 1]
        _s = struct.Struct("<" + _fmt)
        if _info.pushes:
            _mask = _M32 if _info.pushes[0] in (op.I32, op.F32) else _M64
            _MEMORY[_code] = (_info.width, _s.unpack_from, _mask)
        else:
            _MEMORY[_code] = (_info.width, _s.pack_into, (1 << 8 * _info.width) - 1)
    elif _info.imm in op.VAL_TYPES:
        _CONST_MASKS[_code] = _M32 if _info.pushes[0] in (op.I32, op.F32) else _M64


# ---------------------------------------------------------------------------
# compiled form
#
# A body compiles to runs (units, statements, exit, body), entered only at
# their start: ``body`` is the instructions before the exit, a fuel unit
# each, and a statement a closure of the frame's locals that returns the
# value it pushes, or None. The exits: (_BR, run, keep, drop), (_BR_TABLE,
# targets, default) of (run, keep, drop) targets, indexed by the popped
# value, (_CALL, callee, argc), whose callee None is on the stack, and
# (_END,).

_BR, _BR_TABLE, _CALL, _END = range(4)

_MAX_DEPTH = 32  # the deepest operand tree that one closure computes

# the operators that can trap; the instructions that can trap or write
_TRAPPING = {c for c in _OPERATORS if op.OPS[c].name[4:].startswith(("div_", "rem_", "trunc_"))}
_EFFECTS = {*_TRAPPING, *_MEMORY, op.UNREACHABLE, op.MEMORY_GROW}
_EFFECTS |= {op.GLOBAL_SET, op.LOCAL_SET, op.LOCAL_TEE, op.CALL_INDIRECT}

# wasm frames the call stack may hold besides the running one
_MAX_SUSPENDED = CALL_STACK_LIMIT - 1

_ZERO_PAGE = bytes(PAGE_SIZE)


def _trap(kind: str, pos: int) -> TrapError:
    """A trap at unit ``pos`` of its run: the loop refunds the units after."""
    t = TrapError(kind)
    t.pos = pos
    return t


def _fn(get):
    """An operand, a constant or a closure, as a closure from the locals."""
    return (lambda L: get) if type(get) is int else get


def _operator(f, kids: list, pos: int | None):
    """``f`` of the operands ``kids``; an ``f`` that can trap, at ``pos``."""
    if pos is not None:
        kids = [_fn(k) for k in kids]
        def guarded(L):
            values = [k(L) for k in kids]
            try:
                return f(*values)
            except TrapError as t:
                raise _trap(t.kind, pos) from None
        return guarded
    a, b = _fn(kids[0]), kids[-1]
    if len(kids) == 1:
        return lambda L: f(a(L))
    if type(b) is int:
        return lambda L: f(a(L), b)
    return lambda L: f(a(L), b(L))


def _run_compiler(inst: Instance):
    """A compiler of straight-line runs, folding operand trees as the
    module docstring says: ``add(instr, at)`` compiles the run's next
    instruction, its unit ``at``, and returns its effect on the stack
    height; ``end()`` returns the run's statements."""
    stack, mem, globals_ = inst._stack, inst.mem, inst.globals
    limit = inst.module.memories[0].limits.maximum if inst.module.memories else None
    cap = MAX_PAGES if limit is None else min(limit, MAX_PAGES)
    stmts: list = []
    # the operands not computed yet, above the stack's: (constant or closure, depth)
    pend: list[tuple] = []

    def flush(upto: int | None = None) -> None:
        stmts.extend([_fn(t[0]) for t in pend[:upto]])
        del pend[:upto]

    def operands(k: int, effect: bool) -> tuple[list, int]:
        """The top ``k`` operands, bottom first, and the depth of a tree over
        them, for an instruction that can trap or writes (``effect``) or not.
        If one is on the stack, all go there, and the first child takes them."""
        n = min(k, len(pend))
        if effect and len(pend) > n:
            flush(len(pend) - n)
        kids, depth = [], 1
        for get, d in pend[len(pend) - n :]:
            kids.append(get)
            depth = max(depth, d + 1)
        if n == k and depth <= _MAX_DEPTH:
            del pend[len(pend) - n :]
            return kids, depth
        flush()
        if k == 1:
            return [lambda L: stack.pop()], 2
        taken: list[int] = []
        def take(L):
            taken[:], stack[-k:] = stack[-k:], ()
            return taken[0]
        return [take] + [lambda L, j=j: taken[j] for j in range(1, k)], 2

    def closure(opcode: int, args: tuple, kids: list, pos: int):
        """An instruction's closure over its operands' closures."""
        a, b, c = [_fn(k) for k in kids] + [None] * (3 - len(kids))
        i = args[0] if args else None
        if opcode in _MEMORY:
            offset, width, access, mask = args[1], *_MEMORY[opcode]
            if op.OPS[opcode].pushes:
                def load(L):
                    addr = a(L) + offset
                    if addr + width > len(mem):
                        raise _trap(TRAP_OOB_MEMORY, pos)
                    return access(mem, addr)[0] & mask
                return load
            def store(L):
                addr, value = a(L) + offset, b(L)
                if addr + width > len(mem):
                    raise _trap(TRAP_OOB_MEMORY, pos)
                access(mem, addr, value & mask)
            return store
        if opcode == op.MEMORY_GROW:
            def grow(L):
                delta, current = a(L), len(mem) // PAGE_SIZE
                if current + delta > cap:
                    return _M32  # -1
                for _ in range(delta):  # no temporary as large as the growth
                    mem.extend(_ZERO_PAGE)
                return current
            return grow
        if opcode == op.LOCAL_TEE:
            def tee(L):
                L[i] = v = a(L)
                return v
            return tee
        if opcode == op.LOCAL_SET:
            def set_local(L):
                L[i] = a(L)
            return set_local
        if opcode == op.GLOBAL_SET:
            return lambda L: globals_.__setitem__(i, a(L))
        if opcode == op.DROP:
            return lambda L: None if a(L) else None  # a(L) for what it does
        if opcode == op.SELECT:  # a(L), b(L), then c(L)
            return lambda L: (a(L), b(L))[not c(L)]
        if opcode == op.CALL_INDIRECT:  # the callee, for the _CALL after it
            table, size, observed = inst.table, inst.table_size, inst.table_observed
            sigs, sig = inst._func_sigs, inst._type_ids[i]
            def call_indirect(L):
                slot = a(L)
                if slot >= size:
                    raise _trap(TRAP_OOB_TABLE, pos)
                callee = table.get(slot)
                if callee is None:
                    raise _trap(TRAP_UNDEFINED_ELEMENT, pos)
                observed.add(callee)
                if sigs[callee] != sig:
                    raise _trap(TRAP_CALL_TYPE, pos)
                return callee
            return call_indirect
        if opcode == op.MEMORY_SIZE:
            return lambda L: len(mem) // PAGE_SIZE
        if opcode == op.GLOBAL_GET:
            return lambda L: globals_[i]
        def unreachable(L):
            raise _trap(TRAP_UNREACHABLE, pos)
        return unreachable

    def add(instr, at: int) -> int:
        opcode, args = instr
        if opcode == op.LOCAL_GET or opcode in _CONST_MASKS:
            leaf = itemgetter(args[0]) if opcode == op.LOCAL_GET else args[0] & _CONST_MASKS[opcode]
            pend.append((leaf, 1))
            return 1
        info = op.OPS[opcode]
        if info.pops is not None:
            k, pushes = len(info.pops), len(info.pushes)
        elif opcode in (op.NOP, op.BLOCK, op.LOOP):
            return 0
        else:
            k = 3 if opcode == op.SELECT else 0 if opcode in (op.GLOBAL_GET, op.UNREACHABLE) else 1
            pushes = int(opcode in (op.SELECT, op.GLOBAL_GET, op.LOCAL_TEE, op.CALL_INDIRECT))
        kids, depth = operands(k, opcode in _EFFECTS)
        if opcode in _OPERATORS:
            node = _operator(_OPERATORS[opcode], kids, at if opcode in _TRAPPING else None)
        else:
            node = closure(opcode, args, kids, at)
        if pushes:
            pend.append((node, depth))
        else:
            stmts.append(node)
        return pushes - k

    def end() -> tuple:
        flush()
        run, stmts[:] = tuple(stmts), ()
        return run

    return add, end


# a body, block, loop or if the compiler is inside: the label a branch to
# it goes to, the values the branch carries, the static stack height at
# entry, the values it leaves, and the label a false if condition goes to
_Control = namedtuple("_Control", "label keep height arity else_label", defaults=(None,))


def _compile(inst: Instance, fn: Function) -> list[tuple]:
    """Compile one body in a single pass over its instructions.

    A branch, ``if``, call or else-jump ends the run as its exit, and so
    does ``call_indirect`` after its statement; ``loop`` and ``END`` end it
    with a _BR to the next run, so every label starts a run. A header
    pushes a ``_Control``; ``END`` pops it and places its label (a loop's
    is at its start) and an ``if``'s else label. A target ``(label, keep,
    drop)`` keeps the top ``keep`` values and drops the ``drop`` beneath
    them, back to the label's height at entry, from the static heights of
    validated code. Labels are numbered as they open and resolved at the end.
    """
    m = inst.module
    runs: list[tuple] = []
    body: list = []  # the instructions of the run being built
    add, end = _run_compiler(inst)
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
        runs.append((len(body) + unit, end(), exit_, tuple(body)))
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
            h += add(instr, len(body))
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


def _paid_part(inst: Instance, body: list, paid: int) -> tuple:
    """The statements of a run whose budget pays for its first ``paid``
    instructions: theirs, compiled as a run, then the fuel trap."""
    add, end = _run_compiler(inst)
    for at, instr in enumerate(body[:paid], 1):
        add(instr, at)
    def out_of_fuel(L):
        raise _trap(TRAP_FUEL_EXHAUSTED, paid)
    return (*end(), out_of_fuel)


# ---------------------------------------------------------------------------
# execution


class Instance:
    """A linked, initialized module plus its runtime and trace state."""

    def __init__(self, m: Module, host: HostConfig | None = None):
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
            self.table_size = m.tables[0].limits.minimum
        if m.memories:
            self.mem = bytearray(m.memories[0].limits.minimum * PAGE_SIZE)

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

    def invoke(self, export_name: str, args: tuple[Value, ...], fuel: int) -> Results:
        exp = self._exports.get(export_name)
        if exp is None:
            raise UnknownExport(export_name)
        funcidx, ft = exp
        got = tuple([v.type for v in args])
        if got != ft.params:
            raise SignatureMismatch(str(ft), f"({', '.join(got)})")
        self.fuel = fuel
        raw = self._execute(funcidx, [v.bits for v in args])
        return Results(tuple(map(Value, ft.results, raw)))

    def _call_host(self, funcidx: int, raw_args: list[int]) -> list[int]:
        name, hf = self._host_funcs[funcidx]
        args = tuple(map(Value, hf.type.params, raw_args))
        self.host_log.append(HostCall(name, args))
        try:
            results = hf.call(args)
        except TrapError as t:
            raise TrapError(t.kind, funcidx) from None
        return [v.bits for v in results]

    def _enter(self, funcidx: int, args: list[int]) -> tuple[list[tuple], list[int]]:
        """The compiled code of a defined function and its fresh locals.
        The first entry compiles the body, and records the function as
        entered: the trace needs no probe on later calls."""
        compiled = self._compiled[funcidx]
        if compiled is None:
            self.entered.add(funcidx)
            fn = self.module.functions[funcidx - self._n_imports]
            compiled = (_compile(self, fn), [0] * len(fn.locals))
            self._compiled[funcidx] = compiled
        code, zeros = compiled
        return code, args + zeros

    def _execute(self, funcidx: int, args: list[int]) -> list[int]:
        """Run a function, and every wasm call it makes, in one loop; an
        import is the host's call.

        A run's statements compute and trap; its exit moves control, within
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
        call_targets = self.call_targets
        stack = self._stack
        base = len(stack)  # a host function may call in: what is below is its caller's
        frames: list[tuple] = []  # suspended callers: (code, pc, locals, funcidx)

        code, locals_ = self._enter(funcidx, args)
        pc = units = 0
        fuel = self.fuel
        try:
            while True:
                units, stmts, exit_, body = code[pc]
                pc += 1
                fuel -= units
                # a run that costs nothing runs even on a negative budget
                if fuel < 0 and units:
                    stmts = _paid_part(self, body, max(fuel + units, 0))
                for stmt in stmts:
                    value = stmt(locals_)
                    if value is not None:
                        stack.append(value)
                k = exit_[0]
                if k == _BR:
                    _, pc, keep, drop = exit_
                    if drop:  # the values under the top ``keep``
                        top = len(stack) - keep
                        del stack[top - drop : top]
                elif k == _BR_TABLE:
                    i = stack.pop()
                    labels = exit_[1]
                    pc, keep, drop = labels[i] if i < len(labels) else exit_[2]
                    if drop:
                        top = len(stack) - keep
                        del stack[top - drop : top]
                elif k == _CALL:
                    _, callee, argc = exit_
                    if callee is None:  # a call_indirect's, which its statement pushed
                        callee = stack.pop()
                    if len(frames) >= _MAX_SUSPENDED:
                        raise TrapError(TRAP_STACK_EXHAUSTED)
                    call_targets.add(callee)
                    top = len(stack) - argc
                    call_args = stack[top:]
                    del stack[top:]
                    if callee < n_imports:
                        stack.extend(self._call_host(callee, call_args))
                    else:
                        frames.append((code, pc, locals_, funcidx))
                        code, locals_ = self._enter(callee, call_args)
                        pc = 0
                        funcidx = callee
                else:  # _END
                    if not frames:
                        return stack[base:]
                    code, pc, locals_, funcidx = frames.pop()
        except TrapError as t:
            # a closure's trap refunds the units of its run after it
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


def instantiate(m: Module, host: HostConfig | None = None, fuel: int = DEFAULT_FUEL) -> Instance:
    inst = Instance(m, host)
    inst.initialize(fuel)
    return inst


def invoke(
    inst: Instance, export_name: str, args: tuple[Value, ...] = (), fuel: int = DEFAULT_FUEL
) -> Results | Trap:
    try:
        return inst.invoke(export_name, args, fuel)
    except TrapError as t:
        return Trap(t.kind, t.function_index)


def run_workload(
    m: Module, w: Workload, host: HostConfig | None = None
) -> tuple[ObservationLog, ExecutionTrace]:
    inst = Instance(m, host)
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
