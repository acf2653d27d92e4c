"""Seeded WebAssembly 1.0 inputs for the debloat benchmark.

Each generator returns a ``Case``: the module bytes, the workload
document text, and what the workload must do on that module -- results,
host calls and final linear memory -- computed here in plain Python
rather than by the package's interpreter. The binary writer below is
this file's own, not the package's encoder, so the inputs for a seed stay
byte-identical whatever the package under test does.

Values are ``(type, bits)`` pairs with ``bits`` the unsigned pattern, as
the package carries them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
PAGE = 65536

I32, I64 = 0x7F, 0x7E
T_FUNC = 0x60

# opcodes the generators emit
END = 0x0B
LOOP = 0x03
BR_IF = 0x0D
CALL = 0x10
CALL_INDIRECT = 0x11
LOCAL_GET, LOCAL_SET, LOCAL_TEE = 0x20, 0x21, 0x22
I32_LOAD, I32_STORE, I32_STORE8 = 0x28, 0x36, 0x3A
I32_CONST, I64_CONST = 0x41, 0x42
I32_LT_U = 0x49
I32_ADD, I32_AND = 0x6A, 0x71

# binary ops as (wasm opcode, Python semantics on unsigned patterns)


def _rotl(bits: int):
    mask = (1 << bits) - 1
    return lambda a, b: ((a << (b % bits)) | (a >> (bits - b % bits))) & mask


def _rotr(bits: int):
    mask = (1 << bits) - 1
    return lambda a, b: ((a >> (b % bits)) | (a << (bits - b % bits))) & mask


BINOPS = {
    32: {
        "add": (0x6A, lambda a, b: (a + b) & M32),
        "sub": (0x6B, lambda a, b: (a - b) & M32),
        "mul": (0x6C, lambda a, b: (a * b) & M32),
        "and": (0x71, lambda a, b: a & b),
        "or": (0x72, lambda a, b: a | b),
        "xor": (0x73, lambda a, b: a ^ b),
        "shl": (0x74, lambda a, b: (a << (b % 32)) & M32),
        "shr_u": (0x76, lambda a, b: a >> (b % 32)),
        "rotl": (0x77, _rotl(32)),
        "rotr": (0x78, _rotr(32)),
    },
    64: {
        "add": (0x7C, lambda a, b: (a + b) & M64),
        "sub": (0x7D, lambda a, b: (a - b) & M64),
        "mul": (0x7E, lambda a, b: (a * b) & M64),
        "and": (0x83, lambda a, b: a & b),
        "or": (0x84, lambda a, b: a | b),
        "xor": (0x85, lambda a, b: a ^ b),
        "shl": (0x86, lambda a, b: (a << (b % 64)) & M64),
        "shr_u": (0x88, lambda a, b: a >> (b % 64)),
        "rotl": (0x89, _rotl(64)),
        "rotr": (0x8A, _rotr(64)),
    },
}


# ---------------------------------------------------------------------------
# binary writer


def uleb(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def sleb(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if (n == 0 and not b & 0x40) or (n == -1 and b & 0x40):
            out.append(b)
            return bytes(out)
        out.append(b | 0x80)


def _vec(items: list[bytes]) -> bytes:
    return uleb(len(items)) + b"".join(items)


def _name(s: str) -> bytes:
    raw = s.encode()
    return uleb(len(raw)) + raw


def _section(sec_id: int, items: list[bytes]) -> bytes:
    payload = _vec(items)
    return bytes([sec_id]) + uleb(len(payload)) + payload


def _signed(bits: int, width: int) -> int:
    return bits - (1 << width) if bits >> (width - 1) else bits


def i32_const(v: int) -> bytes:
    return bytes([I32_CONST]) + sleb(_signed(v & M32, 32))


def i64_const(v: int) -> bytes:
    return bytes([I64_CONST]) + sleb(_signed(v & M64, 64))


def local(opcode: int, index: int) -> bytes:
    return bytes([opcode]) + uleb(index)


def call(funcidx: int) -> bytes:
    return bytes([CALL]) + uleb(funcidx)


def call_indirect(typeidx: int) -> bytes:
    return bytes([CALL_INDIRECT]) + uleb(typeidx) + b"\x00"


def memarg(opcode: int, align: int, offset: int) -> bytes:
    return bytes([opcode]) + uleb(align) + uleb(offset)


@dataclass(frozen=True)
class Func:
    type_index: int
    body: bytes  # instructions without the final end
    i32_locals: int = 0


def build_module(
    *,
    types: list[tuple[tuple[int, ...], tuple[int, ...]]],
    imports: list[tuple[str, str, int]],
    funcs: list[Func],
    exports: list[tuple[str, int]],
    table: list[int] | None = None,
    memory_pages: int | None = None,
    data: list[tuple[int, bytes]] = (),
) -> bytes:
    """Encode a module; ``table`` is one active segment filling a table
    of exactly its length at offset 0."""
    out = bytearray(b"\x00asm\x01\x00\x00\x00")
    out += _section(
        1,
        [bytes([T_FUNC]) + _vec([bytes([p]) for p in ps]) + _vec([bytes([r]) for r in rs])
         for ps, rs in types],
    )
    out += _section(
        2, [_name(mod) + _name(nm) + b"\x00" + uleb(t) for mod, nm, t in imports]
    )
    out += _section(3, [uleb(f.type_index) for f in funcs])
    if table is not None:
        out += _section(4, [b"\x70\x01" + uleb(len(table)) + uleb(len(table))])
    if memory_pages is not None:
        out += _section(5, [b"\x01" + uleb(memory_pages) + uleb(memory_pages)])
    out += _section(7, [_name(nm) + b"\x00" + uleb(idx) for nm, idx in exports])
    if table is not None:
        out += _section(
            9, [b"\x00" + i32_const(0) + bytes([END]) + _vec([uleb(i) for i in table])]
        )
    codes = []
    for f in funcs:
        locals_ = _vec([uleb(f.i32_locals) + bytes([I32])] if f.i32_locals else [])
        body = locals_ + f.body + bytes([END])
        codes.append(uleb(len(body)) + body)
    out += _section(10, codes)
    if data:
        out += _section(
            11,
            [b"\x00" + i32_const(off) + bytes([END]) + uleb(len(raw)) + raw
             for off, raw in data],
        )
    return bytes(out)


# ---------------------------------------------------------------------------
# cases


@dataclass(frozen=True)
class Case:
    module: bytes
    workload: str  # JSON workload document
    fuel: int
    # per invocation: export name and argument values
    invocations: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    # per invocation: result values, then host calls as (name, args)
    results: tuple[tuple[tuple[str, int], ...], ...]
    host_calls: tuple[tuple[tuple[str, tuple[tuple[str, int], ...]], ...], ...]
    memory: bytes | None  # final linear memory


def _workload_doc(invocations, fuel: int) -> str:
    def value(t: str, bits: int):
        # i64 goes as a decimal string, as the document format requires
        return {t: bits if t == "i32" else str(bits)}

    doc = {
        "invocations": [
            {"func": name, "args": [value(t, b) for t, b in args]}
            for name, args in invocations
        ],
        "fuel": fuel,
    }
    return json.dumps(doc, indent=2) + "\n"


def _case(module, invocations, fuel, results, host_calls, memory) -> Case:
    return Case(
        module=module,
        workload=_workload_doc(invocations, fuel),
        fuel=fuel,
        invocations=tuple(invocations),
        results=tuple(results),
        host_calls=tuple(tuple(h) for h in host_calls),
        memory=None if memory is None else bytes(memory),
    )


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# loop-heavy ----------------------------------------------------------------

LOOP_ITERATIONS = 1800
LOOP_INVOCATIONS = 4
LOOP_TABLE = 8
LOOP_STUBBED = 3  # exported, never called
LOOP_DEAD = 3  # neither exported nor referenced


def loop_heavy(seed: int) -> Case:
    """An exported loop whose every iteration makes a direct call, a
    call_indirect through an 8-slot table and an i32.store."""
    rng = _rng("loop-heavy", seed)
    ops = BINOPS[32]
    # types: 0 (i32)->i32, 1 (i32 i32)->i32, 2 (i32)->()
    types = [((I32,), (I32,)), ((I32, I32), (I32,)), ((I32,), ())]
    imports = [("env", "log", 2)]
    LOG = 0
    step_mul, step_add = rng.randrange(3, 1 << 20) | 1, rng.randrange(1 << 30)
    step_shift = rng.randrange(3, 13)

    def step(x):
        y = ops["add"][1](ops["mul"][1](x, step_mul), step_add)
        return y ^ (x >> step_shift)

    funcs = [
        Func(
            0,
            local(LOCAL_GET, 0) + i32_const(step_mul) + bytes([ops["mul"][0]])
            + i32_const(step_add) + bytes([ops["add"][0]])
            + local(LOCAL_GET, 0) + i32_const(step_shift) + bytes([ops["shr_u"][0]])
            + bytes([ops["xor"][0]]),
        )
    ]
    STEP = 1

    # slot k holds ((x ^ a) <mix> b) <rot> r; every slot runs 7 instructions
    mixes = ["add", "sub", "mul"]
    rots = ["rotl", "rotr"]
    slot_fns = []
    for k in range(LOOP_TABLE + LOOP_STUBBED + LOOP_DEAD):
        a, b, r = rng.randrange(1 << 32), rng.randrange(1 << 32) | 1, rng.randrange(1, 32)
        mix, rot = mixes[k % 3], rots[k % 2]
        funcs.append(
            Func(
                0,
                local(LOCAL_GET, 0) + i32_const(a) + bytes([ops["xor"][0]])
                + i32_const(b) + bytes([ops[mix][0]])
                + i32_const(r) + bytes([ops[rot][0]]),
            )
        )
        slot_fns.append(
            lambda x, a=a, b=b, r=r, mix=ops[mix][1], rot=ops[rot][1]: rot(mix(x ^ a, b), r)
        )
    table = [STEP + 1 + k for k in range(LOOP_TABLE)]
    aux = [STEP + 1 + LOOP_TABLE + k for k in range(LOOP_STUBBED)]

    # run(n, s): params 0 n, 1 s; locals 2 i, 3 acc
    base = 4 * rng.randrange(0, (PAGE - 256) // 4)
    body = (
        local(LOCAL_GET, 1) + local(LOCAL_SET, 3)
        + bytes([LOOP, 0x40])
        + local(LOCAL_GET, 3) + call(STEP) + local(LOCAL_SET, 3)
        + local(LOCAL_GET, 3) + local(LOCAL_GET, 3) + i32_const(LOOP_TABLE - 1)
        + bytes([I32_AND]) + call_indirect(0) + local(LOCAL_SET, 3)
        + local(LOCAL_GET, 2) + i32_const(63) + bytes([I32_AND])
        + i32_const(2) + bytes([ops["shl"][0]])
        + local(LOCAL_GET, 3) + memarg(I32_STORE, 2, base)
        + local(LOCAL_GET, 2) + i32_const(1) + bytes([I32_ADD]) + local(LOCAL_TEE, 2)
        + local(LOCAL_GET, 0) + bytes([I32_LT_U, BR_IF, 0, END])
        + local(LOCAL_GET, 3) + call(LOG) + local(LOCAL_GET, 3)
    )
    funcs.append(Func(1, body, i32_locals=2))
    RUN = len(imports) + len(funcs) - 1
    exports = [("run", RUN)] + [(f"aux{k}", idx) for k, idx in enumerate(aux)]
    module = build_module(
        types=types, imports=imports, funcs=funcs, exports=exports,
        table=table, memory_pages=1,
    )

    mem = bytearray(PAGE)
    invocations, results, host_calls = [], [], []
    for _ in range(LOOP_INVOCATIONS):
        s = rng.randrange(1 << 32)
        acc = s
        for i in range(LOOP_ITERATIONS):
            acc = step(acc)
            acc = slot_fns[acc & (LOOP_TABLE - 1)](acc)
            addr = base + ((i & 63) << 2)
            mem[addr : addr + 4] = acc.to_bytes(4, "little")
        invocations.append(("run", (("i32", LOOP_ITERATIONS), ("i32", s))))
        results.append((("i32", acc),))
        host_calls.append([("env.log", (("i32", acc),))])
    return _case(module, invocations, 10_000_000, results, host_calls, mem)


# wide-module ---------------------------------------------------------------

WIDE_FUNCS = 3000
WIDE_IMPORT_PAIRS = 30  # env.log and env.log64, each imported this often
WIDE_TABLE = 750
WIDE_CHAINS = 5
WIDE_CALLS_PER_ENTRY = 3
WIDE_STUB_EXPORTS = 40
WIDE_OPS = 10


@dataclass
class _WideFn:
    type_index: int  # 0 (i32)->i32, 1 (i64)->i64, 4 (i32 i32)->i32
    ops: list[tuple[str, int]]
    callee: int | None = None  # combined function index
    slot: int | None = None  # table slot for call_indirect (type 0 only)
    log: int | None = None  # import index logging the argument


def wide_module(seed: int) -> Case:
    """About 3000 small functions, 60 duplicated log imports and a
    750-slot table; the workload enters about 0.6% of the functions."""
    rng = _rng("wide-module", seed)
    types = [
        ((I32,), (I32,)),
        ((I64,), (I64,)),
        ((I32,), ()),
        ((I64,), ()),
        ((I32, I32), (I32,)),
    ]
    imports = []
    for _ in range(WIDE_IMPORT_PAIRS):
        imports += [("env", "log", 2), ("env", "log64", 3)]
    n_imp = len(imports)
    log32 = list(range(0, n_imp, 2))
    log64 = list(range(1, n_imp, 2))

    op_names = list(BINOPS[32])

    def rand_ops():
        # constants of two LEB bytes keep module size nearly seed-independent
        return [(rng.choice(op_names), rng.randrange(64, 8192)) for _ in range(WIDE_OPS)]

    type_of = [rng.choices((0, 1, 4), (45, 35, 20))[0] for _ in range(WIDE_FUNCS)]
    by_type = {t: [n_imp + i for i, ty in enumerate(type_of) if ty == t] for t in (0, 1, 4)}
    fns = []
    for ty in type_of:
        fn = _WideFn(ty, rand_ops())
        if ty != 4 and rng.random() < 0.5:
            fn.callee = rng.choice(by_type[ty])
        if ty == 0 and rng.random() < 0.3:
            fn.slot = rng.randrange(WIDE_TABLE)
        if ty != 4 and rng.random() < 0.3:
            fn.log = rng.choice(log32 if ty == 0 else log64)
        fns.append(fn)
    table = [rng.randrange(n_imp, n_imp + WIDE_FUNCS) for _ in range(WIDE_TABLE)]

    # shallow entry chains: entry -> middle -> leaf, plus entry -> table -> leaf
    picked = rng.sample(by_type[0], WIDE_CHAINS * 4 - 4) + rng.sample(by_type[1], 3)
    slots = rng.sample(range(WIDE_TABLE), WIDE_CHAINS - 1)
    chains = []
    for c in range(WIDE_CHAINS):
        if c == WIDE_CHAINS - 1:
            entry, mid, leaf = picked[-3:]
            target = None
        else:
            entry, mid, leaf, target = picked[4 * c : 4 * c + 4]
        ty = type_of[entry - n_imp]
        logs = log32 if ty == 0 else log64
        fns[leaf - n_imp] = _WideFn(ty, rand_ops(), log=rng.choice(logs))
        fns[mid - n_imp] = _WideFn(ty, rand_ops(), callee=leaf, log=rng.choice(logs))
        slot = None
        if target is not None:
            fns[target - n_imp] = _WideFn(0, rand_ops())
            slot = slots[c]
            table[slot] = target
        fns[entry - n_imp] = _WideFn(ty, rand_ops(), callee=mid, slot=slot)
        chains.append(entry)

    funcs = []
    for fn in fns:
        width = 64 if fn.type_index == 1 else 32
        const = i64_const if width == 64 else i32_const
        body = b""
        if fn.log is not None:
            body += local(LOCAL_GET, 0) + call(fn.log)
        body += local(LOCAL_GET, 0)
        if fn.type_index == 4:
            body += local(LOCAL_GET, 1) + bytes([I32_ADD])
        for name, c in fn.ops:
            body += const(c) + bytes([BINOPS[width][name][0]])
        if fn.callee is not None:
            body += call(fn.callee)
        if fn.slot is not None:
            body += i32_const(fn.slot) + call_indirect(0)
        funcs.append(Func(fn.type_index, body))

    in_chains = set(picked)
    others = [f for f in range(n_imp, n_imp + WIDE_FUNCS) if f not in in_chains]
    exports = [(f"run{c}", entry) for c, entry in enumerate(chains)]
    exports += [(f"api{k}", f) for k, f in enumerate(rng.sample(others, WIDE_STUB_EXPORTS))]
    # a memory of zero pages: the final-memory digest runs, over no bytes
    module = build_module(
        types=types, imports=imports, funcs=funcs, exports=exports, table=table,
        memory_pages=0,
    )

    def run(f: int, x: int, calls: list):
        fn = fns[f - n_imp]
        width = 64 if fn.type_index == 1 else 32
        tname = f"i{width}"
        if fn.log is not None:
            calls.append(("env.log" if width == 32 else "env.log64", ((tname, x),)))
        for name, c in fn.ops:
            x = BINOPS[width][name][1](x, c)
        if fn.callee is not None:
            x = run(fn.callee, x, calls)
        if fn.slot is not None:
            x = run(table[fn.slot], x, calls)
        return x

    invocations, results, host_calls = [], [], []
    for _ in range(WIDE_CALLS_PER_ENTRY):
        for c, entry in enumerate(chains):
            tname = "i64" if type_of[entry - n_imp] == 1 else "i32"
            x = rng.randrange(1 << (64 if tname == "i64" else 32))
            calls = []
            invocations.append((f"run{c}", ((tname, x),)))
            results.append(((tname, run(entry, x, calls)),))
            host_calls.append(calls)
    return _case(module, invocations, 1_000_000, results, host_calls, b"")


# big-memory ----------------------------------------------------------------

BIG_PAGES = 16
BIG_SEGMENTS = 64
BIG_SEGMENT_BYTES = 512
BIG_INVOCATIONS = 2000


def big_memory(seed: int) -> Case:
    """One function over a large memory with many data segments, invoked
    many times; each call does three stores, one load and one env.log."""
    rng = _rng("big-memory", seed)
    types = [((I32, I32), (I32,)), ((I32,), ())]
    imports = [("env", "log", 1)]
    key = rng.randrange(1 << 32)
    # poke(a, v): mem[a]=v; mem[a+8]=v^key; mem8[a+13]=v; log(v); return mem[a+4]
    body = (
        local(LOCAL_GET, 0) + local(LOCAL_GET, 1) + memarg(I32_STORE, 2, 0)
        + local(LOCAL_GET, 0) + local(LOCAL_GET, 1) + i32_const(key)
        + bytes([BINOPS[32]["xor"][0]]) + memarg(I32_STORE, 2, 8)
        + local(LOCAL_GET, 0) + local(LOCAL_GET, 1) + memarg(I32_STORE8, 0, 13)
        + local(LOCAL_GET, 1) + call(0)
        + local(LOCAL_GET, 0) + memarg(I32_LOAD, 2, 4)
    )
    size = BIG_PAGES * PAGE
    stride = size // BIG_SEGMENTS
    data = [
        (k * stride + rng.randrange(stride - BIG_SEGMENT_BYTES), rng.randbytes(BIG_SEGMENT_BYTES))
        for k in range(BIG_SEGMENTS)
    ]
    module = build_module(
        types=types, imports=imports, funcs=[Func(0, body)],
        exports=[("poke", 1)], memory_pages=BIG_PAGES, data=data,
    )

    mem = bytearray(size)
    for off, raw in data:
        mem[off : off + len(raw)] = raw
    invocations, results, host_calls = [], [], []
    for _ in range(BIG_INVOCATIONS):
        a = 4 * rng.randrange((size - 16) // 4)
        v = rng.randrange(1 << 32)
        mem[a : a + 4] = v.to_bytes(4, "little")
        mem[a + 8 : a + 12] = (v ^ key).to_bytes(4, "little")
        mem[a + 13] = v & 0xFF
        invocations.append(("poke", (("i32", a), ("i32", v))))
        results.append((("i32", int.from_bytes(mem[a + 4 : a + 8], "little")),))
        host_calls.append([("env.log", (("i32", v),))])
    return _case(module, invocations, 1000, results, host_calls, mem)


GENERATORS = {
    "loop-heavy": loop_heavy,
    "wide-module": wide_module,
    "big-memory": big_memory,
}


def code_section_size(module: bytes) -> int:
    """Bytes of the code section, id and size included; 0 when absent."""
    pos = 8
    while pos < len(module):
        start = pos
        sec_id = module[pos]
        pos += 1
        size = shift = 0
        while True:
            b = module[pos]
            pos += 1
            size |= (b & 0x7F) << shift
            shift += 7
            if not b & 0x80:
                break
        pos += size
        if sec_id == 10:
            return pos - start
    return 0
