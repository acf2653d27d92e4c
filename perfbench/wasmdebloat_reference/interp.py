"""Tracing interpreter for WebAssembly 1.0 modules.

Executes a workload against one instance while recording which functions
ran (the execution trace) and what the run observably did (the
observation log). Entry probes fire before the first body instruction,
so a function that traps immediately is still recorded as entered.

Numbers are carried as raw bit patterns (unsigned ints); types are
static and were established by validation. Floats are materialized only
inside the numeric helpers, and every arithmetic NaN is canonicalized so
observation logs are deterministic.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

from . import opcodes as op
from .errors import LinkError, SignatureMismatch, TrapError, UnknownExport
from .module import Expr, FuncType, Module, PAGE_SIZE

# wasm call frames map onto Python frames several levels deep; the
# interpreter enforces its own depth cap well before this matters
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))

DEFAULT_FUEL = 10_000_000
CALL_STACK_LIMIT = 256
MAX_PAGES = 65536

TRAP_UNREACHABLE = "unreachable"
TRAP_DIV_ZERO = "divide-by-zero"
TRAP_INT_OVERFLOW = "integer-overflow"
TRAP_OOB_MEMORY = "out-of-bounds-memory"
TRAP_OOB_TABLE = "out-of-bounds-table"
TRAP_CALL_TYPE = "indirect-call-type-mismatch"
TRAP_UNDEFINED_ELEMENT = "undefined-table-element"
TRAP_STACK_EXHAUSTED = "stack-exhausted"
TRAP_FUEL_EXHAUSTED = "fuel-exhausted"

TRAP_KINDS = frozenset(
    {
        TRAP_UNREACHABLE,
        TRAP_DIV_ZERO,
        TRAP_INT_OVERFLOW,
        TRAP_OOB_MEMORY,
        TRAP_OOB_TABLE,
        TRAP_CALL_TYPE,
        TRAP_UNDEFINED_ELEMENT,
        TRAP_STACK_EXHAUSTED,
        TRAP_FUEL_EXHAUSTED,
    }
)

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


def fnv1a_64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _M64
    return h


@dataclass(frozen=True)
class Value:
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

    @staticmethod
    def f32_bits(bits: int) -> "Value":
        return Value("f32", bits & _M32)

    @staticmethod
    def f64_bits(bits: int) -> "Value":
        return Value("f64", bits & _M64)

    @staticmethod
    def zero(valtype: str) -> "Value":
        return Value(valtype, 0)

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


@dataclass(frozen=True)
class Invocation:
    func: str
    args: tuple[Value, ...] = ()


@dataclass(frozen=True)
class Workload:
    invocations: tuple[Invocation, ...] = ()
    fuel: int = DEFAULT_FUEL


@dataclass(frozen=True)
class Results:
    values: tuple[Value, ...] = ()


@dataclass(frozen=True)
class Trap:
    kind: str
    function_index: int | None = None


@dataclass(frozen=True)
class LinkFailure:
    message: str


@dataclass(frozen=True)
class HostCall:
    name: str
    args: tuple[Value, ...]


@dataclass(frozen=True)
class InvocationRecord:
    invocation: Invocation
    outcome: Results | Trap
    host_calls: tuple[HostCall, ...]


@dataclass(frozen=True)
class ObservationLog:
    records: tuple[InvocationRecord, ...]
    final_memory_digest: int | None
    instantiation_error: Trap | LinkFailure | None = None
    instantiation_host_calls: tuple[HostCall, ...] = ()


@dataclass(frozen=True)
class ExecutionTrace:
    entered: frozenset[int]
    call_targets: frozenset[int]
    table_observed: frozenset[int]


@dataclass(frozen=True)
class HostFunc:
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


def _idiv_s(a: int, b: int, bits: int) -> int:
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    sa = a - (1 << bits) if a & half else a
    sb = b - (1 << bits) if b & half else b
    if sb == 0:
        raise TrapError(TRAP_DIV_ZERO)
    if sa == -half and sb == -1:
        raise TrapError(TRAP_INT_OVERFLOW)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & mask


def _irem_s(a: int, b: int, bits: int) -> int:
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    sa = a - (1 << bits) if a & half else a
    sb = b - (1 << bits) if b & half else b
    if sb == 0:
        raise TrapError(TRAP_DIV_ZERO)
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & mask


def _idiv_u(a: int, b: int) -> int:
    if b == 0:
        raise TrapError(TRAP_DIV_ZERO)
    return a // b


def _irem_u(a: int, b: int) -> int:
    if b == 0:
        raise TrapError(TRAP_DIV_ZERO)
    return a % b


def _clz(v: int, bits: int) -> int:
    return bits - v.bit_length()


def _ctz(v: int, bits: int) -> int:
    return (v & -v).bit_length() - 1 if v else bits


def _rotl(v: int, k: int, bits: int) -> int:
    k %= bits
    mask = (1 << bits) - 1
    return ((v << k) | (v >> (bits - k))) & mask


def _rotr(v: int, k: int, bits: int) -> int:
    k %= bits
    mask = (1 << bits) - 1
    return ((v >> k) | (v << (bits - k))) & mask


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


def _fmax(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b:
        return a if math.copysign(1.0, a) > 0 else b
    return a if a > b else b


def _round_sign(r: int, x: float) -> float:
    # ceil/floor/trunc/nearest must keep the zero's sign
    return math.copysign(0.0, x) if r == 0 else float(r)


def _fceil(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    return _round_sign(math.ceil(x), x)


def _ffloor(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    return _round_sign(math.floor(x), x)


def _ftrunc(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    return _round_sign(int(x), x)


def _fnearest(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    return _round_sign(round(x), x)  # Python round ties to even


def _trunc_to_int(x: float, lo: int, hi: int) -> int:
    if math.isnan(x) or math.isinf(x):
        raise TrapError(TRAP_INT_OVERFLOW)
    v = int(x)
    if not lo <= v <= hi:
        raise TrapError(TRAP_INT_OVERFLOW)
    return v


def _int_to_f32_bits(n: int) -> int:
    """Round an arbitrary integer to the nearest f32 (ties to even).

    Going through a Python float first would round twice (64 then 32
    bits), which is wrong for some 25+ significant-bit integers.
    """
    if n == 0:
        return 0
    sign = 0x80000000 if n < 0 else 0
    m = abs(n)
    nb = m.bit_length()
    if nb <= 24:
        f = m << (24 - nb)
    else:
        shift = nb - 24
        f = m >> shift
        rem = m & ((1 << shift) - 1)
        half = 1 << (shift - 1)
        if rem > half or (rem == half and f & 1):
            f += 1
            if f == 1 << 24:
                f >>= 1
                nb += 1
    return sign | ((nb - 1 + 127) << 23) | (f & 0x7FFFFF)


def _f32_result(x: float) -> int:
    return _CANON_NAN32 if math.isnan(x) else f32_to_bits(x)


def _f64_result(x: float) -> int:
    return _CANON_NAN64 if math.isnan(x) else f64_to_bits(x)


def _bool(x: bool) -> int:
    return 1 if x else 0


def _f32bin(fn):
    return lambda a, b: _f32_result(fn(f32_from_bits(a), f32_from_bits(b)))


def _f64bin(fn):
    return lambda a, b: _f64_result(fn(f64_from_bits(a), f64_from_bits(b)))


def _f32cmp(fn):
    return lambda a, b: _bool(fn(f32_from_bits(a), f32_from_bits(b)))


def _f64cmp(fn):
    return lambda a, b: _bool(fn(f64_from_bits(a), f64_from_bits(b)))


def _f32un(fn):
    return lambda a: _f32_result(fn(f32_from_bits(a)))


def _f64un(fn):
    return lambda a: _f64_result(fn(f64_from_bits(a)))


_BIN = {
    op.NAME_TO_OPCODE["i32.eq"]: lambda a, b: _bool(a == b),
    op.NAME_TO_OPCODE["i32.ne"]: lambda a, b: _bool(a != b),
    op.NAME_TO_OPCODE["i32.lt_s"]: lambda a, b: _bool(_s32(a) < _s32(b)),
    op.NAME_TO_OPCODE["i32.lt_u"]: lambda a, b: _bool(a < b),
    op.NAME_TO_OPCODE["i32.gt_s"]: lambda a, b: _bool(_s32(a) > _s32(b)),
    op.NAME_TO_OPCODE["i32.gt_u"]: lambda a, b: _bool(a > b),
    op.NAME_TO_OPCODE["i32.le_s"]: lambda a, b: _bool(_s32(a) <= _s32(b)),
    op.NAME_TO_OPCODE["i32.le_u"]: lambda a, b: _bool(a <= b),
    op.NAME_TO_OPCODE["i32.ge_s"]: lambda a, b: _bool(_s32(a) >= _s32(b)),
    op.NAME_TO_OPCODE["i32.ge_u"]: lambda a, b: _bool(a >= b),
    op.NAME_TO_OPCODE["i64.eq"]: lambda a, b: _bool(a == b),
    op.NAME_TO_OPCODE["i64.ne"]: lambda a, b: _bool(a != b),
    op.NAME_TO_OPCODE["i64.lt_s"]: lambda a, b: _bool(_s64(a) < _s64(b)),
    op.NAME_TO_OPCODE["i64.lt_u"]: lambda a, b: _bool(a < b),
    op.NAME_TO_OPCODE["i64.gt_s"]: lambda a, b: _bool(_s64(a) > _s64(b)),
    op.NAME_TO_OPCODE["i64.gt_u"]: lambda a, b: _bool(a > b),
    op.NAME_TO_OPCODE["i64.le_s"]: lambda a, b: _bool(_s64(a) <= _s64(b)),
    op.NAME_TO_OPCODE["i64.le_u"]: lambda a, b: _bool(a <= b),
    op.NAME_TO_OPCODE["i64.ge_s"]: lambda a, b: _bool(_s64(a) >= _s64(b)),
    op.NAME_TO_OPCODE["i64.ge_u"]: lambda a, b: _bool(a >= b),
    op.NAME_TO_OPCODE["i32.add"]: lambda a, b: (a + b) & _M32,
    op.NAME_TO_OPCODE["i32.sub"]: lambda a, b: (a - b) & _M32,
    op.NAME_TO_OPCODE["i32.mul"]: lambda a, b: (a * b) & _M32,
    op.NAME_TO_OPCODE["i32.div_s"]: lambda a, b: _idiv_s(a, b, 32),
    op.NAME_TO_OPCODE["i32.div_u"]: _idiv_u,
    op.NAME_TO_OPCODE["i32.rem_s"]: lambda a, b: _irem_s(a, b, 32),
    op.NAME_TO_OPCODE["i32.rem_u"]: _irem_u,
    op.NAME_TO_OPCODE["i32.and"]: lambda a, b: a & b,
    op.NAME_TO_OPCODE["i32.or"]: lambda a, b: a | b,
    op.NAME_TO_OPCODE["i32.xor"]: lambda a, b: a ^ b,
    op.NAME_TO_OPCODE["i32.shl"]: lambda a, b: (a << (b % 32)) & _M32,
    op.NAME_TO_OPCODE["i32.shr_s"]: lambda a, b: (_s32(a) >> (b % 32)) & _M32,
    op.NAME_TO_OPCODE["i32.shr_u"]: lambda a, b: a >> (b % 32),
    op.NAME_TO_OPCODE["i32.rotl"]: lambda a, b: _rotl(a, b, 32),
    op.NAME_TO_OPCODE["i32.rotr"]: lambda a, b: _rotr(a, b, 32),
    op.NAME_TO_OPCODE["i64.add"]: lambda a, b: (a + b) & _M64,
    op.NAME_TO_OPCODE["i64.sub"]: lambda a, b: (a - b) & _M64,
    op.NAME_TO_OPCODE["i64.mul"]: lambda a, b: (a * b) & _M64,
    op.NAME_TO_OPCODE["i64.div_s"]: lambda a, b: _idiv_s(a, b, 64),
    op.NAME_TO_OPCODE["i64.div_u"]: _idiv_u,
    op.NAME_TO_OPCODE["i64.rem_s"]: lambda a, b: _irem_s(a, b, 64),
    op.NAME_TO_OPCODE["i64.rem_u"]: _irem_u,
    op.NAME_TO_OPCODE["i64.and"]: lambda a, b: a & b,
    op.NAME_TO_OPCODE["i64.or"]: lambda a, b: a | b,
    op.NAME_TO_OPCODE["i64.xor"]: lambda a, b: a ^ b,
    op.NAME_TO_OPCODE["i64.shl"]: lambda a, b: (a << (b % 64)) & _M64,
    op.NAME_TO_OPCODE["i64.shr_s"]: lambda a, b: (_s64(a) >> (b % 64)) & _M64,
    op.NAME_TO_OPCODE["i64.shr_u"]: lambda a, b: a >> (b % 64),
    op.NAME_TO_OPCODE["i64.rotl"]: lambda a, b: _rotl(a, b, 64),
    op.NAME_TO_OPCODE["i64.rotr"]: lambda a, b: _rotr(a, b, 64),
    op.NAME_TO_OPCODE["f32.eq"]: _f32cmp(lambda a, b: a == b),
    op.NAME_TO_OPCODE["f32.ne"]: _f32cmp(lambda a, b: a != b),
    op.NAME_TO_OPCODE["f32.lt"]: _f32cmp(lambda a, b: a < b),
    op.NAME_TO_OPCODE["f32.gt"]: _f32cmp(lambda a, b: a > b),
    op.NAME_TO_OPCODE["f32.le"]: _f32cmp(lambda a, b: a <= b),
    op.NAME_TO_OPCODE["f32.ge"]: _f32cmp(lambda a, b: a >= b),
    op.NAME_TO_OPCODE["f64.eq"]: _f64cmp(lambda a, b: a == b),
    op.NAME_TO_OPCODE["f64.ne"]: _f64cmp(lambda a, b: a != b),
    op.NAME_TO_OPCODE["f64.lt"]: _f64cmp(lambda a, b: a < b),
    op.NAME_TO_OPCODE["f64.gt"]: _f64cmp(lambda a, b: a > b),
    op.NAME_TO_OPCODE["f64.le"]: _f64cmp(lambda a, b: a <= b),
    op.NAME_TO_OPCODE["f64.ge"]: _f64cmp(lambda a, b: a >= b),
    op.NAME_TO_OPCODE["f32.add"]: _f32bin(lambda a, b: a + b),
    op.NAME_TO_OPCODE["f32.sub"]: _f32bin(lambda a, b: a - b),
    op.NAME_TO_OPCODE["f32.mul"]: _f32bin(lambda a, b: a * b),
    op.NAME_TO_OPCODE["f32.div"]: _f32bin(_fdiv),
    op.NAME_TO_OPCODE["f32.min"]: _f32bin(_fmin),
    op.NAME_TO_OPCODE["f32.max"]: _f32bin(_fmax),
    op.NAME_TO_OPCODE["f32.copysign"]: lambda a, b: (a & 0x7FFFFFFF)
    | (b & 0x80000000),
    op.NAME_TO_OPCODE["f64.add"]: _f64bin(lambda a, b: a + b),
    op.NAME_TO_OPCODE["f64.sub"]: _f64bin(lambda a, b: a - b),
    op.NAME_TO_OPCODE["f64.mul"]: _f64bin(lambda a, b: a * b),
    op.NAME_TO_OPCODE["f64.div"]: _f64bin(_fdiv),
    op.NAME_TO_OPCODE["f64.min"]: _f64bin(_fmin),
    op.NAME_TO_OPCODE["f64.max"]: _f64bin(_fmax),
    op.NAME_TO_OPCODE["f64.copysign"]: lambda a, b: (a & 0x7FFFFFFFFFFFFFFF)
    | (b & 0x8000000000000000),
}

_UN = {
    op.NAME_TO_OPCODE["i32.eqz"]: lambda a: _bool(a == 0),
    op.NAME_TO_OPCODE["i64.eqz"]: lambda a: _bool(a == 0),
    op.NAME_TO_OPCODE["i32.clz"]: lambda a: _clz(a, 32),
    op.NAME_TO_OPCODE["i32.ctz"]: lambda a: _ctz(a, 32),
    op.NAME_TO_OPCODE["i32.popcnt"]: lambda a: bin(a).count("1"),
    op.NAME_TO_OPCODE["i64.clz"]: lambda a: _clz(a, 64),
    op.NAME_TO_OPCODE["i64.ctz"]: lambda a: _ctz(a, 64),
    op.NAME_TO_OPCODE["i64.popcnt"]: lambda a: bin(a).count("1"),
    op.NAME_TO_OPCODE["f32.abs"]: lambda a: a & 0x7FFFFFFF,
    op.NAME_TO_OPCODE["f32.neg"]: lambda a: a ^ 0x80000000,
    op.NAME_TO_OPCODE["f32.ceil"]: _f32un(_fceil),
    op.NAME_TO_OPCODE["f32.floor"]: _f32un(_ffloor),
    op.NAME_TO_OPCODE["f32.trunc"]: _f32un(_ftrunc),
    op.NAME_TO_OPCODE["f32.nearest"]: _f32un(_fnearest),
    op.NAME_TO_OPCODE["f32.sqrt"]: _f32un(_fsqrt),
    op.NAME_TO_OPCODE["f64.abs"]: lambda a: a & 0x7FFFFFFFFFFFFFFF,
    op.NAME_TO_OPCODE["f64.neg"]: lambda a: a ^ 0x8000000000000000,
    op.NAME_TO_OPCODE["f64.ceil"]: _f64un(_fceil),
    op.NAME_TO_OPCODE["f64.floor"]: _f64un(_ffloor),
    op.NAME_TO_OPCODE["f64.trunc"]: _f64un(_ftrunc),
    op.NAME_TO_OPCODE["f64.nearest"]: _f64un(_fnearest),
    op.NAME_TO_OPCODE["f64.sqrt"]: _f64un(_fsqrt),
    op.NAME_TO_OPCODE["i32.wrap_i64"]: lambda a: a & _M32,
    op.NAME_TO_OPCODE["i32.trunc_f32_s"]: lambda a: (
        _trunc_to_int(f32_from_bits(a), -(1 << 31), (1 << 31) - 1) & _M32
    ),
    op.NAME_TO_OPCODE["i32.trunc_f32_u"]: lambda a: _trunc_to_int(
        f32_from_bits(a), 0, (1 << 32) - 1
    ),
    op.NAME_TO_OPCODE["i32.trunc_f64_s"]: lambda a: (
        _trunc_to_int(f64_from_bits(a), -(1 << 31), (1 << 31) - 1) & _M32
    ),
    op.NAME_TO_OPCODE["i32.trunc_f64_u"]: lambda a: _trunc_to_int(
        f64_from_bits(a), 0, (1 << 32) - 1
    ),
    op.NAME_TO_OPCODE["i64.extend_i32_s"]: lambda a: _s32(a) & _M64,
    op.NAME_TO_OPCODE["i64.extend_i32_u"]: lambda a: a,
    op.NAME_TO_OPCODE["i64.trunc_f32_s"]: lambda a: (
        _trunc_to_int(f32_from_bits(a), -(1 << 63), (1 << 63) - 1) & _M64
    ),
    op.NAME_TO_OPCODE["i64.trunc_f32_u"]: lambda a: _trunc_to_int(
        f32_from_bits(a), 0, (1 << 64) - 1
    ),
    op.NAME_TO_OPCODE["i64.trunc_f64_s"]: lambda a: (
        _trunc_to_int(f64_from_bits(a), -(1 << 63), (1 << 63) - 1) & _M64
    ),
    op.NAME_TO_OPCODE["i64.trunc_f64_u"]: lambda a: _trunc_to_int(
        f64_from_bits(a), 0, (1 << 64) - 1
    ),
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

# loads: opcode -> (width, sign-extend source bits or None, result mask)
_LOADS = {
    op.NAME_TO_OPCODE["i32.load"]: (4, None, _M32),
    op.NAME_TO_OPCODE["i64.load"]: (8, None, _M64),
    op.NAME_TO_OPCODE["f32.load"]: (4, None, _M32),
    op.NAME_TO_OPCODE["f64.load"]: (8, None, _M64),
    op.NAME_TO_OPCODE["i32.load8_s"]: (1, 8, _M32),
    op.NAME_TO_OPCODE["i32.load8_u"]: (1, None, _M32),
    op.NAME_TO_OPCODE["i32.load16_s"]: (2, 16, _M32),
    op.NAME_TO_OPCODE["i32.load16_u"]: (2, None, _M32),
    op.NAME_TO_OPCODE["i64.load8_s"]: (1, 8, _M64),
    op.NAME_TO_OPCODE["i64.load8_u"]: (1, None, _M64),
    op.NAME_TO_OPCODE["i64.load16_s"]: (2, 16, _M64),
    op.NAME_TO_OPCODE["i64.load16_u"]: (2, None, _M64),
    op.NAME_TO_OPCODE["i64.load32_s"]: (4, 32, _M64),
    op.NAME_TO_OPCODE["i64.load32_u"]: (4, None, _M64),
}

# stores: opcode -> width
_STORES = {
    op.NAME_TO_OPCODE["i32.store"]: 4,
    op.NAME_TO_OPCODE["i64.store"]: 8,
    op.NAME_TO_OPCODE["f32.store"]: 4,
    op.NAME_TO_OPCODE["f64.store"]: 8,
    op.NAME_TO_OPCODE["i32.store8"]: 1,
    op.NAME_TO_OPCODE["i32.store16"]: 2,
    op.NAME_TO_OPCODE["i64.store8"]: 1,
    op.NAME_TO_OPCODE["i64.store16"]: 2,
    op.NAME_TO_OPCODE["i64.store32"]: 4,
}


def _sext(v: int, from_bits: int) -> int:
    if v & (1 << (from_bits - 1)):
        return v - (1 << from_bits)
    return v


# ---------------------------------------------------------------------------
# execution


class _Branch(Exception):
    def __init__(self, depth: int, values: list[int]):
        self.depth = depth
        self.values = values


class _Return(Exception):
    def __init__(self, values: list[int]):
        self.values = values


class _Frame:
    __slots__ = ("locals", "stack", "labels")

    def __init__(self, locals_: list[int]):
        self.locals = locals_
        self.stack: list[int] = []
        self.labels: list[int] = []


class Instance:
    """A linked, initialized module plus its runtime and trace state."""

    def __init__(self, m: Module, host: HostConfig | None = None):
        self.module = m
        self.host = default_host() if host is None else host
        self.mem: bytearray | None = None
        self.table: list[int | None] | None = None
        self.globals: list[int] = []
        self.host_log: list[HostCall] = []
        self.entered: set[int] = set()
        self.call_targets: set[int] = set()
        self.table_observed: set[int] = set()
        self.fuel = 0
        self.func_stack: list[int] = []
        self._exports = {e.name: e for e in m.exports}
        self._host_funcs: list[HostFunc] = []

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
            self._host_funcs.append(hf)

        self.globals = [self._eval_const(g.init) for g in m.globals]
        if m.tables:
            self.table = [None] * m.tables[0].limits.minimum
        if m.memories:
            self.mem = bytearray(m.memories[0].limits.minimum * PAGE_SIZE)

        # all segment bounds are checked before any writes happen
        elem_offsets = [self._eval_const(seg.offset) for seg in m.elements]
        for seg, off in zip(m.elements, elem_offsets):
            if self.table is None or off + len(seg.func_indices) > len(self.table):
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
            self._call_index(m.start, [])

    def _eval_const(self, expr: Expr) -> int:
        instr = expr[0]
        if instr.opcode == op.I32_CONST:
            return instr.args[0] & _M32
        if instr.opcode == op.I64_CONST:
            return instr.args[0] & _M64
        if instr.opcode in (op.F32_CONST, op.F64_CONST):
            return instr.args[0]
        # global.get of an imported global; unreachable with the fixed
        # host (global imports fail linking), kept for completeness
        raise LinkError("initializer references an unavailable global")

    # -- invocation

    def invoke(self, export_name: str, args: tuple[Value, ...], fuel: int) -> Results:
        exp = self._exports.get(export_name)
        if exp is None or exp.kind != "func":
            raise UnknownExport(export_name)
        ft = self.module.func_type_of(exp.index)
        got = tuple(v.type for v in args)
        if got != ft.params:
            raise SignatureMismatch(str(ft), f"({', '.join(got)})")
        self.fuel = fuel
        raw = self._call_index(exp.index, [v.bits for v in args])
        return Results(tuple(Value(t, bits) for t, bits in zip(ft.results, raw)))

    def _call_index(self, funcidx: int, raw_args: list[int]) -> list[int]:
        m = self.module
        n_imports = m.num_func_imports
        if funcidx < n_imports:
            imp = m.func_imports[funcidx]
            hf = self._host_funcs[funcidx]
            args = tuple(
                Value(t, bits) for t, bits in zip(hf.type.params, raw_args)
            )
            self.host_log.append(HostCall(f"{imp.module}.{imp.name}", args))
            try:
                results = hf.call(args)
            except TrapError as t:
                raise TrapError(t.kind, funcidx) from None
            return [v.bits for v in results]

        if len(self.func_stack) >= CALL_STACK_LIMIT:
            raise TrapError(TRAP_STACK_EXHAUSTED, self._here())
        self.entered.add(funcidx)
        fn = m.functions[funcidx - n_imports]
        ft = m.types[fn.type_index]
        frame = _Frame(raw_args + [0] * len(fn.locals))
        frame.labels.append(len(ft.results))
        self.func_stack.append(funcidx)
        try:
            try:
                self._run(frame, fn.body)
                n = len(ft.results)
                return frame.stack[-n:] if n else []
            except _Branch as b:
                return b.values
            except _Return as r:
                return r.values
        finally:
            self.func_stack.pop()

    def _here(self) -> int | None:
        return self.func_stack[-1] if self.func_stack else None

    # -- instruction execution

    def _run(self, frame: _Frame, body: Expr) -> None:
        for instr in body:
            self._step(frame, instr)

    def _step(self, frame: _Frame, instr) -> None:
        if self.fuel <= 0:
            raise TrapError(TRAP_FUEL_EXHAUSTED, self._here())
        self.fuel -= 1

        code = instr.opcode
        stack = frame.stack

        fn = _BIN.get(code)
        if fn is not None:
            b = stack.pop()
            a = stack.pop()
            try:
                stack.append(fn(a, b))
            except TrapError as t:
                raise TrapError(t.kind, self._here()) from None
            return
        fn = _UN.get(code)
        if fn is not None:
            a = stack.pop()
            try:
                stack.append(fn(a))
            except TrapError as t:
                raise TrapError(t.kind, self._here()) from None
            return

        load = _LOADS.get(code)
        if load is not None:
            width, sign_bits, mask = load
            align, offset = instr.args
            addr = stack.pop() + offset
            if self.mem is None or addr + width > len(self.mem):
                raise TrapError(TRAP_OOB_MEMORY, self._here())
            raw = int.from_bytes(self.mem[addr : addr + width], "little")
            if sign_bits is not None:
                raw = _sext(raw, sign_bits) & mask
            stack.append(raw)
            return
        width = _STORES.get(code)
        if width is not None:
            align, offset = instr.args
            value = stack.pop()
            addr = stack.pop() + offset
            if self.mem is None or addr + width > len(self.mem):
                raise TrapError(TRAP_OOB_MEMORY, self._here())
            self.mem[addr : addr + width] = (value & ((1 << 8 * width) - 1)).to_bytes(
                width, "little"
            )
            return

        if code == op.I32_CONST:
            stack.append(instr.args[0] & _M32)
        elif code == op.I64_CONST:
            stack.append(instr.args[0] & _M64)
        elif code in (op.F32_CONST, op.F64_CONST):
            stack.append(instr.args[0])
        elif code == op.LOCAL_GET:
            stack.append(frame.locals[instr.args[0]])
        elif code == op.LOCAL_SET:
            frame.locals[instr.args[0]] = stack.pop()
        elif code == op.LOCAL_TEE:
            frame.locals[instr.args[0]] = stack[-1]
        elif code == op.GLOBAL_GET:
            stack.append(self.globals[instr.args[0]])
        elif code == op.GLOBAL_SET:
            self.globals[instr.args[0]] = stack.pop()
        elif code == op.BLOCK:
            bt, inner = instr.args
            self._exec_block(frame, inner, 0 if bt is None else 1, is_loop=False)
        elif code == op.LOOP:
            _, inner = instr.args
            self._exec_block(frame, inner, 0, is_loop=True)
        elif code == op.IF:
            bt, then_body, else_body = instr.args
            cond = stack.pop()
            chosen = then_body if cond else else_body
            self._exec_block(frame, chosen, 0 if bt is None else 1, is_loop=False)
        elif code in (op.BR, op.BR_IF):
            if code == op.BR_IF and not stack.pop():
                return
            depth = instr.args[0]
            self._branch(frame, depth)
        elif code == op.BR_TABLE:
            labels, default = instr.args
            i = stack.pop()
            depth = labels[i] if i < len(labels) else default
            self._branch(frame, depth)
        elif code == op.RETURN:
            n = frame.labels[0]
            raise _Return(stack[-n:] if n else [])
        elif code == op.CALL:
            self._do_call(frame, instr.args[0])
        elif code == op.CALL_INDIRECT:
            self._do_call_indirect(frame, instr.args[0])
        elif code == op.DROP:
            stack.pop()
        elif code == op.SELECT:
            cond = stack.pop()
            v2 = stack.pop()
            v1 = stack.pop()
            stack.append(v1 if cond else v2)
        elif code == op.MEMORY_SIZE:
            assert self.mem is not None
            stack.append(len(self.mem) // PAGE_SIZE)
        elif code == op.MEMORY_GROW:
            assert self.mem is not None
            delta = stack.pop()
            current = len(self.mem) // PAGE_SIZE
            cap = self.module.memories[0].limits.maximum
            cap = MAX_PAGES if cap is None else min(cap, MAX_PAGES)
            if current + delta > cap:
                stack.append(_M32)  # -1
            else:
                self.mem.extend(bytes(delta * PAGE_SIZE))
                stack.append(current)
        elif code == op.UNREACHABLE:
            raise TrapError(TRAP_UNREACHABLE, self._here())
        elif code == op.NOP:
            pass
        else:
            raise AssertionError(f"unhandled opcode 0x{code:02x}")

    def _branch(self, frame: _Frame, depth: int) -> None:
        arity = frame.labels[-1 - depth]
        values = frame.stack[-arity:] if arity else []
        raise _Branch(depth, values)

    def _exec_block(
        self, frame: _Frame, body: Expr, label_arity: int, is_loop: bool
    ) -> None:
        frame.labels.append(0 if is_loop else label_arity)
        height = len(frame.stack)
        try:
            while True:
                try:
                    self._run(frame, body)
                    return
                except _Branch as b:
                    if b.depth > 0:
                        b.depth -= 1
                        raise
                    del frame.stack[height:]
                    if not is_loop:
                        frame.stack.extend(b.values)
                        return
        finally:
            frame.labels.pop()

    def _do_call(self, frame: _Frame, funcidx: int) -> None:
        if len(self.func_stack) >= CALL_STACK_LIMIT:
            raise TrapError(TRAP_STACK_EXHAUSTED, self._here())
        self.call_targets.add(funcidx)
        ft = self.module.func_type_of(funcidx)
        self._dispatch(frame, funcidx, ft)

    def _do_call_indirect(self, frame: _Frame, typeidx: int) -> None:
        i = frame.stack.pop()
        assert self.table is not None
        if i >= len(self.table):
            raise TrapError(TRAP_OOB_TABLE, self._here())
        funcidx = self.table[i]
        if funcidx is None:
            raise TrapError(TRAP_UNDEFINED_ELEMENT, self._here())
        self.table_observed.add(funcidx)
        expected = self.module.types[typeidx]
        actual = self.module.func_type_of(funcidx)
        if actual != expected:
            raise TrapError(TRAP_CALL_TYPE, self._here())
        if len(self.func_stack) >= CALL_STACK_LIMIT:
            raise TrapError(TRAP_STACK_EXHAUSTED, self._here())
        self.call_targets.add(funcidx)
        self._dispatch(frame, funcidx, expected)

    def _dispatch(self, frame: _Frame, funcidx: int, ft: FuncType) -> None:
        argc = len(ft.params)
        args = frame.stack[-argc:] if argc else []
        if argc:
            del frame.stack[-argc:]
        results = self._call_index(funcidx, args)
        frame.stack.extend(results)

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
        for inv in w.invocations:
            mark = len(inst.host_log)
            outcome = invoke(inst, inv.func, inv.args, w.fuel)
            records.append(
                InvocationRecord(inv, outcome, tuple(inst.host_log[mark:]))
            )

    digest = None
    if failure is None and inst.mem is not None:
        digest = fnv1a_64(bytes(inst.mem))
    log = ObservationLog(
        records=tuple(records),
        final_memory_digest=digest,
        instantiation_error=failure,
        instantiation_host_calls=init_calls,
    )
    return log, inst.trace()
