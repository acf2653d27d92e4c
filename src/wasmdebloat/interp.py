"""Tracing interpreter for WebAssembly 1.0 modules.

Executes a workload against one instance while recording which functions
ran (the execution trace) and what the run observably did (the
observation log).

Each function body is compiled once per instance, on first entry, in one
pass over its instructions, which are stored in binary order, with an
explicit control stack (``_compile``), into a list of straight-line runs
``(units, ops, exit)``: the run's fuel, its ops, and the one transfer
that leaves it. Structured control flow becomes exits: every ``br``,
``br_if``, ``br_table``, ``if``, ``else`` and ``return`` carries a
side-table entry with its target run, the values it keeps and the values
it drops, so the stack height to restore is fixed at compile time from
the opcode stack signatures (Titzer, "A fast in-place interpreter for
WebAssembly", OOPSLA 2022).
That first compile also records the function as entered, before its first
instruction runs, so a function that traps at once is still entered.
One loop (``Instance._execute``) runs that code with an explicit operand
stack and call stack: a branch raises no exception and a wasm call adds
no Python frame, so nesting depth and call depth cost no Python
recursion. Fuel is one unit per executed instruction; ``else`` and
``end`` cost nothing. The loop charges a run once, as it fetches it, and
fuel stays exact: fuel that does not cover a run runs the ops it pays
for and then traps, and a trap inside a run refunds the rest of the run.
Within a run, a constant with the binop after it, or a ``local.get``, a
constant and a binop, execute as one fused op (superinstructions: Ertl &
Gregg, PLDI 2003; wasm3's fused ops).

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


# binary operators (opcode -> f(a, b)) and unary ones (opcode -> f(a)),
# each on raw bits and returning raw bits
_BIN: dict[int, object] = {}
_UN: dict[int, object] = {}
for _t, _ops in (
    ("i32", _int_ops(32)),
    ("i64", _int_ops(64)),
    ("f32", _float_ops(f32_from_bits, _f32_result, 0x80000000)),
    ("f64", _float_ops(f64_from_bits, _f64_result, 0x8000000000000000)),
):
    for _name, _f in _ops.items():
        _code = op.NAME_TO_OPCODE[f"{_t}.{_name}"]
        (_BIN if len(op.OPS[_code].pops) == 2 else _UN)[_code] = _f
for _bits in (32, 64):
    for _t, _read in (("f32", f32_from_bits), ("f64", f64_from_bits)):
        for _sx in ("s", "u"):
            _code = op.NAME_TO_OPCODE[f"i{_bits}.trunc_{_t}_{_sx}"]
            _UN[_code] = _trunc(_read, _bits, _sx == "s")
_UN.update(
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
# A body compiles to a list of runs (units, ops, exit); control enters a
# run only at its start. ``ops`` holds tuples whose first field is an op
# kind; ``exit`` is a tuple whose first field is a kind from _BR on. Fuel
# is one unit per body instruction other than ELSE and END, and _UNITS
# gives each kind's units: a fused kind stands for two or three
# instructions, block and loop compile to a _NOP for their unit, and
# _JUMP (over an else arm), _NEXT (to the next run), _END and the fuel
# trap cost nothing.

(
    _BINARY,
    _UNARY,
    _LOCAL_GET,
    _LOCAL_SET,
    _LOCAL_TEE,
    _CONST,
    _LOAD,
    _STORE,
    _GLOBAL_GET,
    _GLOBAL_SET,
    _DROP,
    _SELECT,
    _NOP,
    _MEMORY_SIZE,
    _MEMORY_GROW,
    _UNREACHABLE,
    _CONST_BINARY,  # const c; binop f: (kind, f, c)
    _LOCAL_CONST_BINARY,  # local.get i; const c; binop f: (kind, i, f, c)
    _BR,
    _BR_IF,
    _BR_TABLE,
    _IF,
    _CALL,
    _CALL_INDIRECT,
    _JUMP,
    _NEXT,
    _END,
    _OUT_OF_FUEL,
) = range(28)

_UNITS = (1,) * _CONST_BINARY + (2, 3) + (1,) * (_JUMP - _BR) + (0,) * 4

# kind and stack effect of the ops that have no signature in opcodes.OPS
# and compile to (kind, *immediates)
_UNTYPED = {
    op.LOCAL_GET: (_LOCAL_GET, 1),
    op.LOCAL_SET: (_LOCAL_SET, -1),
    op.LOCAL_TEE: (_LOCAL_TEE, 0),
    op.GLOBAL_GET: (_GLOBAL_GET, 1),
    op.GLOBAL_SET: (_GLOBAL_SET, -1),
    op.DROP: (_DROP, -1),
    op.SELECT: (_SELECT, -2),
    op.NOP: (_NOP, 0),
    op.UNREACHABLE: (_UNREACHABLE, 0),
}

# wasm frames the call stack may hold besides the running one
_MAX_SUSPENDED = CALL_STACK_LIMIT - 1

_ZERO_PAGE = bytes(PAGE_SIZE)


# a function body, block, loop or if the compiler is inside: the label a
# branch to it goes to, the values such a branch carries, the static
# operand-stack height at entry, the values it leaves on the stack, and
# the label a false if condition goes to
_Control = namedtuple("_Control", "label keep height arity else_label", defaults=(None,))


def _compile(m: Module, fn: Function, type_ids: list[int]) -> list[tuple]:
    """Compile one body in a single pass over its instructions.

    Each op goes into the run being built. A branch, ``if``, call or
    else-jump becomes the run's exit and closes it, and placing a label
    closes it with _NEXT, so every label starts a run. A construct's header
    pushes a ``_Control``, ``ELSE`` closes the then arm and places the else
    label, and ``END`` pops the control and places its label unless a loop
    placed it at its start; an ``if`` with no ``ELSE`` gets its else label
    there too. The body's label goes to a last run that holds only _END.
    Branch exits are ``(kind, target run, keep, drop)``: the branch keeps
    the top ``keep`` values and discards the ``drop`` values beneath them,
    which restores the stack height its label had at entry. Both counts
    come from the static stack heights of validated code, so the loop
    keeps no label stack. ``br_table`` holds one ``(run, keep, drop)`` per
    label plus the default; ``if`` and the else-jump hold a target run.
    Labels are numbered as they open and resolved to runs at the end.
    Within a run, a ``const`` and the binop right after it fuse into one
    ``_CONST_BINARY``, and with a ``local.get`` right before them into one
    ``_LOCAL_CONST_BINARY``; as every label starts a run, no label lands
    between fused instructions.
    """
    ft = m.types[fn.type_index]
    runs: list[tuple] = []
    ops: list[tuple] = []  # the ops of the run being built
    pcs: list[int | None] = []  # label id -> run index, set once known

    def new_label(pc: int | None = None) -> int:
        pcs.append(pc)
        return len(pcs) - 1

    def target(depth: int, h: int) -> tuple[int, int, int]:
        c = ctrl[-1 - depth]
        return (c.label, c.keep, h - c.keep - c.height)

    def close(exit_: tuple) -> None:
        units = sum(_UNITS[ins[0]] for ins in ops) + _UNITS[exit_[0]]
        runs.append((units, tuple(ops), exit_))
        ops.clear()

    def place(label: int) -> None:
        if ops:
            close((_NEXT,))
        pcs[label] = len(runs)

    n = len(ft.results)
    ctrl = [_Control(new_label(), n, 0, n)]
    h = 0  # static operand-stack height above the frame's base
    for instr in fn.body:
        opcode = instr.opcode
        args = instr.args
        if opcode == op.END:
            c = ctrl.pop()
            if pcs[c.label] is None:
                place(c.label)
            if c.else_label is not None and pcs[c.else_label] is None:
                place(c.else_label)  # no else arm
            h = c.height + c.arity
            continue
        if opcode == op.ELSE:
            c = ctrl[-1]
            close((_JUMP, c.label))
            place(c.else_label)
            h = c.height
            continue
        info = op.OPS[opcode]
        if opcode in _UNTYPED:
            kind, effect = _UNTYPED[opcode]
            h += effect
            ops.append((kind, *args))
        elif info.pops is not None:
            h += len(info.pushes) - len(info.pops)
            if opcode in _BIN:
                f = _BIN[opcode]
                if not ops or ops[-1][0] != _CONST:
                    ops.append((_BINARY, f))
                else:
                    imm = ops.pop()[1]
                    if ops and ops[-1][0] == _LOCAL_GET:
                        ops[-1] = (_LOCAL_CONST_BINARY, ops[-1][1], f, imm)
                    else:
                        ops.append((_CONST_BINARY, f, imm))
            elif opcode in _UN:
                ops.append((_UNARY, _UN[opcode]))
            elif opcode in _MEMORY:
                ops.append((_LOAD if info.pushes else _STORE, args[1], *_MEMORY[opcode]))
            elif opcode == op.MEMORY_SIZE:
                ops.append((_MEMORY_SIZE,))
            elif opcode == op.MEMORY_GROW:
                ops.append((_MEMORY_GROW,))
            else:
                ops.append((_CONST, args[0] & _CONST_MASKS[opcode]))
        elif opcode == op.CALL:
            callee = m.func_type_of(args[0])
            h += len(callee.results) - len(callee.params)
            close((_CALL, args[0], len(callee.params)))
        elif opcode == op.CALL_INDIRECT:
            callee = m.types[args[0]]
            h += len(callee.results) - len(callee.params) - 1
            close((_CALL_INDIRECT, type_ids[args[0]], len(callee.params)))
        elif opcode == op.BLOCK or opcode == op.LOOP:
            arity = 0 if args[0] is None else 1
            ops.append((_NOP,))
            if opcode == op.LOOP:
                # a branch back re-enters the body, past the loop's _NOP
                close((_NEXT,))
                ctrl.append(_Control(new_label(len(runs)), 0, h, arity))
            else:
                ctrl.append(_Control(new_label(), arity, h, arity))
        elif opcode == op.IF:
            arity = 0 if args[0] is None else 1
            h -= 1
            else_label = new_label()
            close((_IF, else_label))
            ctrl.append(_Control(new_label(), arity, h, arity, else_label))
        elif opcode == op.BR:
            close((_BR, *target(args[0], h)))
        elif opcode == op.BR_IF:
            h -= 1
            close((_BR_IF, *target(args[0], h)))
        elif opcode == op.BR_TABLE:
            h -= 1
            labels, default = args
            close((_BR_TABLE, tuple(target(d, h) for d in labels), target(default, h)))
        elif opcode == op.RETURN:
            close((_BR, *target(len(ctrl) - 1, h)))
        else:
            raise AssertionError(f"unhandled opcode 0x{opcode:02x}")
    if ops:
        close((_END,))
    pcs[ctrl[0].label] = len(runs)
    close((_END,))

    def resolve(t: tuple[int, int, int]) -> tuple[int, int, int]:
        return (pcs[t[0]], t[1], t[2])

    for i, (units, run_ops, exit_) in enumerate(runs):
        k = exit_[0]
        if k == _BR_TABLE:
            exit_ = (k, tuple(map(resolve, exit_[1])), resolve(exit_[2]))
        elif k in (_BR, _BR_IF, _IF, _JUMP):
            exit_ = (k, pcs[exit_[1]], *exit_[2:])
        runs[i] = (units, run_ops, exit_)
    return runs


def _fuel_prefix(ops: tuple, exit_: tuple, fuel: int) -> tuple[tuple, tuple, int]:
    """``fuel`` does not pay for the run: the ops it pays for, the fuel
    trap as the exit after them, and the fuel they leave."""
    run = ops + (exit_,)
    n = 0
    while fuel >= _UNITS[run[n][0]]:
        fuel -= _UNITS[run[n][0]]
        n += 1
    return ops[:n], (_OUT_OF_FUEL,), fuel


def _unwind(stack: list[int], keep: int, drop: int) -> None:
    """Remove the ``drop`` values under the top ``keep`` ones."""
    top = len(stack) - keep
    del stack[top - drop : top]


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
        # function export name -> (function index, type)
        self._exports = {
            e.name: (e.index, m.func_type_of(e.index)) for e in m.exports if e.kind == "func"
        }
        # per imported function: its "module.name" and what implements it
        self._host_funcs: list[tuple[str, HostFunc]] = []
        self._n_imports = m.num_func_imports
        # per combined function index: (code, zeroed locals), compiled on
        # first entry
        self._compiled: list[tuple[list[tuple], list[int]] | None] = [None] * m.num_funcs
        # structurally equal types share an id, which call_indirect compares
        self._type_ids: list[int] = []
        self._func_sigs: list[int] = []

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

        canon: dict[FuncType, int] = {}
        self._type_ids = [canon.setdefault(ft, len(canon)) for ft in m.types]
        self._func_sigs = [self._type_ids[t] for t in m.func_type_indices]

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
            run = self._call_host if m.start < self._n_imports else self._execute
            run(m.start, [])

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
        run = self._call_host if funcidx < self._n_imports else self._execute
        raw = run(funcidx, [v.bits for v in args])
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
            compiled = (_compile(self.module, fn, self._type_ids), [0] * len(fn.locals))
            self._compiled[funcidx] = compiled
        code, zeros = compiled
        return code, args + zeros

    def _execute(self, funcidx: int, args: list[int]) -> list[int]:
        """Run a defined function, and every wasm call it makes, in one loop.

        All frames share one operand stack. A call moves its arguments into
        the callee's locals and suspends the caller on ``frames``; the
        callee's _END leaves exactly its results where the arguments were.
        Fuel lives in a local and is written back however the loop exits.
        A trap raised without a function index gets the running one's.
        """
        n_imports = self._n_imports
        func_sigs = self._func_sigs
        call_targets = self.call_targets
        table_observed = self.table_observed
        mem = self.mem
        table = self.table
        table_size = self.table_size
        globals_ = self.globals
        stack: list[int] = []
        frames: list[tuple] = []  # suspended callers: (code, pc, locals, funcidx)

        code, locals_ = self._enter(funcidx, args)
        pc = 0
        fuel = self.fuel
        try:
            while True:
                units, ops, exit_ = code[pc]
                pc += 1
                fuel -= units
                # a run that costs nothing runs even on a negative budget
                if fuel < 0 and units:
                    ops, exit_, fuel = _fuel_prefix(ops, exit_, fuel + units)
                for ins in ops:
                    k = ins[0]
                    if k == _LOCAL_GET:
                        stack.append(locals_[ins[1]])
                    elif k == _CONST_BINARY:
                        stack[-1] = ins[1](stack[-1], ins[2])
                    elif k == _LOCAL_CONST_BINARY:
                        stack.append(ins[2](locals_[ins[1]], ins[3]))
                    elif k == _BINARY:
                        b = stack.pop()
                        stack[-1] = ins[1](stack[-1], b)
                    elif k == _LOCAL_SET:
                        locals_[ins[1]] = stack.pop()
                    elif k == _CONST:
                        stack.append(ins[1])
                    elif k == _LOCAL_TEE:
                        locals_[ins[1]] = stack[-1]
                    elif k == _STORE:
                        value = stack.pop()
                        addr = stack.pop() + ins[1]
                        if addr + ins[2] > len(mem):
                            raise TrapError(TRAP_OOB_MEMORY)
                        ins[3](mem, addr, value & ins[4])
                    elif k == _LOAD:
                        addr = stack[-1] + ins[1]
                        if addr + ins[2] > len(mem):
                            raise TrapError(TRAP_OOB_MEMORY)
                        stack[-1] = ins[3](mem, addr)[0] & ins[4]
                    elif k == _UNARY:
                        stack[-1] = ins[1](stack[-1])
                    elif k == _NOP:
                        pass
                    elif k == _GLOBAL_GET:
                        stack.append(globals_[ins[1]])
                    elif k == _GLOBAL_SET:
                        globals_[ins[1]] = stack.pop()
                    elif k == _DROP:
                        stack.pop()
                    elif k == _SELECT:
                        cond = stack.pop()
                        v2 = stack.pop()
                        if not cond:
                            stack[-1] = v2
                    elif k == _MEMORY_SIZE:
                        stack.append(len(mem) // PAGE_SIZE)
                    elif k == _MEMORY_GROW:
                        delta = stack[-1]
                        current = len(mem) // PAGE_SIZE
                        cap = self.module.memories[0].limits.maximum
                        cap = MAX_PAGES if cap is None else min(cap, MAX_PAGES)
                        if current + delta > cap:
                            stack[-1] = _M32  # -1
                        else:
                            # page by page: no temporary as large as the growth
                            for _ in range(delta):
                                mem += _ZERO_PAGE
                            stack[-1] = current
                    elif k == _UNREACHABLE:
                        raise TrapError(TRAP_UNREACHABLE)
                    else:
                        raise AssertionError(f"unhandled compiled op {ins!r}")
                k = exit_[0]
                if k == _NEXT:
                    pass
                elif k == _BR_IF or k == _BR:
                    if k == _BR or stack.pop():
                        if exit_[3]:
                            _unwind(stack, exit_[2], exit_[3])
                        pc = exit_[1]
                elif k == _CALL or k == _CALL_INDIRECT:
                    if k == _CALL:
                        callee = exit_[1]
                    else:
                        i = stack.pop()
                        if i >= table_size:
                            raise TrapError(TRAP_OOB_TABLE)
                        callee = table.get(i)
                        if callee is None:
                            raise TrapError(TRAP_UNDEFINED_ELEMENT)
                        table_observed.add(callee)
                        if func_sigs[callee] != exit_[1]:
                            raise TrapError(TRAP_CALL_TYPE)
                    if len(frames) >= _MAX_SUSPENDED:
                        raise TrapError(TRAP_STACK_EXHAUSTED)
                    call_targets.add(callee)
                    argc = exit_[2]
                    if argc:
                        call_args = stack[-argc:]
                        del stack[-argc:]
                    else:
                        call_args = []
                    if callee < n_imports:
                        stack.extend(self._call_host(callee, call_args))
                    else:
                        frames.append((code, pc, locals_, funcidx))
                        code, locals_ = self._enter(callee, call_args)
                        pc = 0
                        funcidx = callee
                elif k == _END:
                    if not frames:
                        return stack
                    code, pc, locals_, funcidx = frames.pop()
                elif k == _IF or k == _JUMP:
                    if k == _JUMP or not stack.pop():
                        pc = exit_[1]
                elif k == _BR_TABLE:
                    i = stack.pop()
                    labels = exit_[1]
                    pc, keep, drop = labels[i] if i < len(labels) else exit_[2]
                    if drop:
                        _unwind(stack, keep, drop)
                elif k == _OUT_OF_FUEL:
                    # 0 also when fuel ran out inside a fused op; fuel that
                    # was negative at the run's fetch stays as it was
                    fuel = min(fuel, 0)
                    raise TrapError(TRAP_FUEL_EXHAUSTED)
                else:
                    raise AssertionError(f"unhandled compiled exit {exit_!r}")
        except TrapError as t:
            if k < _BR:
                # an op trapped: the ops after it and the exit did not run;
                # each op is its own tuple, so identity finds the one
                after = next(j for j, o in enumerate(ops) if o is ins) + 1
                fuel += sum(_UNITS[o[0]] for o in ops[after:]) + _UNITS[exit_[0]]
            if t.function_index is None:
                t.function_index = funcidx
            raise
        finally:
            self.fuel = fuel

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
