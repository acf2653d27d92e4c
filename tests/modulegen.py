"""Seeded random generator for small valid modules plus workloads.

generate_pair(seed) builds a module and a workload that exercises its
exports. With trap_free=True the generated bodies avoid every trapping
construct (integer div/rem, float-to-int truncation, unreachable, abort,
out-of-range table indices) so every invocation returns results; the
default mode includes them, which is fine for replay comparisons because
traps are deterministic.

With control_flow=True the bodies also branch: ``block`` and ``loop``
with results, ``br``, ``br_if`` and ``br_table`` to any depth (with
values to carry and values to drop when they leave an operand position),
``return`` and ``memory.grow``. Each loop counts a fresh local down from
a small constant, and its back edge is the only branch to its label. In
that mode no NaN's bits escape: a float passes through a select on
``x == x`` before a reinterpret, a float store or the sign operand of a
copysign, since WebAssembly lets an operator return any NaN. The default
output does not depend on this code, byte for byte.

Generated calls always target functions at strictly lower indices, so
every body terminates without fuel pressure. Every module is checked
with validate_module before it is returned.
"""

import random

from wasmdebloat import opcodes as op
from wasmdebloat.interp import Invocation, Value, Workload, f32_to_bits, f64_to_bits
from wasmdebloat.module import (
    DataSegment,
    ELSE,
    END,
    ElementSegment,
    Export,
    FuncType,
    Function,
    Global,
    GlobalType,
    Import,
    Instruction,
    Limits,
    Module,
)
from wasmdebloat.validate import validate_module

VALTYPES = ("i32", "i64", "f32", "f64")

SAFE_BINOPS = {
    "i32": (
        "i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor",
        "i32.shl", "i32.shr_s", "i32.shr_u", "i32.rotl", "i32.rotr",
    ),
    "i64": (
        "i64.add", "i64.sub", "i64.mul", "i64.and", "i64.or", "i64.xor",
        "i64.shl", "i64.shr_s", "i64.shr_u", "i64.rotl", "i64.rotr",
    ),
    "f32": ("f32.add", "f32.sub", "f32.mul", "f32.div", "f32.min", "f32.max", "f32.copysign"),
    "f64": ("f64.add", "f64.sub", "f64.mul", "f64.div", "f64.min", "f64.max", "f64.copysign"),
}

TRAPPING_BINOPS = {
    "i32": ("i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u"),
    "i64": ("i64.div_s", "i64.div_u", "i64.rem_s", "i64.rem_u"),
    "f32": (),
    "f64": (),
}

UNOPS = {
    "i32": ("i32.clz", "i32.ctz", "i32.popcnt", "i32.eqz"),
    "i64": ("i64.clz", "i64.ctz", "i64.popcnt"),
    "f32": ("f32.abs", "f32.neg", "f32.ceil", "f32.floor", "f32.trunc", "f32.nearest", "f32.sqrt"),
    "f64": ("f64.abs", "f64.neg", "f64.ceil", "f64.floor", "f64.trunc", "f64.nearest", "f64.sqrt"),
}

COMPARISONS = {
    "i32": ("i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u", "i32.gt_s", "i32.le_s", "i32.ge_u"),
    "i64": ("i64.eq", "i64.ne", "i64.lt_s", "i64.gt_u", "i64.le_u", "i64.ge_s"),
    "f32": ("f32.eq", "f32.ne", "f32.lt", "f32.gt", "f32.le", "f32.ge"),
    "f64": ("f64.eq", "f64.ne", "f64.lt", "f64.gt", "f64.le", "f64.ge"),
}

# result type -> (source type, opcode name); none of these trap
SAFE_CONVERSIONS = {
    "i32": (("i64", "i32.wrap_i64"), ("f32", "i32.reinterpret_f32")),
    "i64": (
        ("i32", "i64.extend_i32_s"),
        ("i32", "i64.extend_i32_u"),
        ("f64", "i64.reinterpret_f64"),
    ),
    "f32": (
        ("i32", "f32.convert_i32_s"),
        ("i32", "f32.convert_i32_u"),
        ("i64", "f32.convert_i64_s"),
        ("f64", "f32.demote_f64"),
        ("i32", "f32.reinterpret_i32"),
    ),
    "f64": (
        ("i32", "f64.convert_i32_s"),
        ("i32", "f64.convert_i32_u"),
        ("i64", "f64.convert_i64_s"),
        ("f32", "f64.promote_f32"),
        ("i64", "f64.reinterpret_i64"),
    ),
}

# these trap on NaN or out-of-range inputs; full mode only
TRAPPING_CONVERSIONS = {
    "i32": (("f32", "i32.trunc_f32_s"), ("f64", "i32.trunc_f64_s"), ("f64", "i32.trunc_f64_u")),
    "i64": (("f32", "i64.trunc_f32_s"), ("f64", "i64.trunc_f64_s")),
    "f32": (),
    "f64": (),
}

LOADS = {
    "i32": (("i32.load", 2), ("i32.load8_u", 0), ("i32.load8_s", 0), ("i32.load16_u", 1)),
    "i64": (("i64.load", 3), ("i64.load32_s", 2), ("i64.load16_u", 1)),
    "f32": (("f32.load", 2),),
    "f64": (("f64.load", 3),),
}

STORES = {
    "i32": (("i32.store", 2), ("i32.store8", 0), ("i32.store16", 1)),
    "i64": (("i64.store", 3), ("i64.store32", 2)),
    "f32": (("f32.store", 2),),
    "f64": (("f64.store", 3),),
}


def _ins(name, *args):
    return Instruction(op.NAME_TO_OPCODE[name], tuple(args))


class _Gen:
    def __init__(self, rng, trap_free, control_flow=False):
        self.rng = rng
        self.trap_free = trap_free
        self.control_flow = control_flow
        self.types = []
        self.imports = []
        self.import_types = []
        self.functions = []
        self.defined_types = []
        self.globals = []
        self.has_memory = False
        self.log_index = None
        self.log64_index = None
        self.abort_index = None

    def type_index(self, ft):
        if ft in self.types:
            return self.types.index(ft)
        self.types.append(ft)
        return len(self.types) - 1

    def add_import(self, name, ft):
        idx = len(self.imports)
        self.imports.append(Import("env", name, "func", self.type_index(ft)))
        self.import_types.append(ft)
        return idx

    def const(self, t):
        rng = self.rng
        if t == "i32":
            return (_ins("i32.const", rng.choice((0, 1, -1, rng.randint(-100, 100)))),)
        if t == "i64":
            return (_ins("i64.const", rng.choice((0, 1, rng.randint(-(10 ** 6), 10 ** 6)))),)
        bits = rng.choice((0.0, 1.0, round(rng.uniform(-50.0, 50.0), 2)))
        if t == "f32":
            return (Instruction(op.F32_CONST, (f32_to_bits(bits),)),)
        return (Instruction(op.F64_CONST, (f64_to_bits(bits),)),)

    def expr(self, t, depth, env):
        rng = self.rng
        choices = ["const", "const"]
        locals_of_t = [i for i, lt in enumerate(env["locals"]) if lt == t]
        if locals_of_t:
            choices += ["local", "local"]
        globals_of_t = [i for i, g in enumerate(self.globals) if g.type.valtype == t]
        if globals_of_t:
            choices.append("global")
        if depth > 0:
            choices += ["unop", "binop", "binop", "convert", "select", "if"]
            if t == "i32":
                choices.append("cmp")
            if self.has_memory:
                choices.append("load")
                if t == "i32":
                    choices.append("msize")
            if any(f[1].results == (t,) for f in env["callees"]):
                choices += ["call", "call"]
            if self.control_flow:
                choices += ["block", "loop"]
                if self.has_memory and t == "i32":
                    choices.append("grow")
        kind = rng.choice(choices)
        if kind == "const":
            return self.const(t)
        if kind == "local":
            return (_ins("local.get", rng.choice(locals_of_t)),)
        if kind == "global":
            return (_ins("global.get", rng.choice(globals_of_t)),)
        if kind == "unop":
            return self.expr(t, depth - 1, env) + (_ins(rng.choice(UNOPS[t])),)
        if kind == "binop":
            pool = SAFE_BINOPS[t]
            if not self.trap_free and TRAPPING_BINOPS[t] and rng.random() < 0.25:
                pool = TRAPPING_BINOPS[t]
            a = self.expr(t, depth - 1, env)
            b = self.expr(t, depth - 1, env)
            name = rng.choice(pool)
            if name.endswith("copysign"):
                b = self.no_nan(t, b, env)
            return a + b + (_ins(name),)
        if kind == "cmp":
            u = rng.choice(VALTYPES)
            return (
                self.expr(u, depth - 1, env)
                + self.expr(u, depth - 1, env)
                + (_ins(rng.choice(COMPARISONS[u])),)
            )
        if kind == "convert":
            pool = SAFE_CONVERSIONS[t]
            if not self.trap_free and TRAPPING_CONVERSIONS[t] and rng.random() < 0.2:
                pool = TRAPPING_CONVERSIONS[t]
            src, name = rng.choice(pool)
            operand = self.expr(src, depth - 1, env)
            if "reinterpret" in name:
                operand = self.no_nan(src, operand, env)
            return operand + (_ins(name),)
        if kind == "select":
            return (
                self.expr(t, depth - 1, env)
                + self.expr(t, depth - 1, env)
                + self.expr("i32", depth - 1, env)
                + (_ins("select"),)
            )
        if kind == "if":
            cond = self.expr("i32", depth - 1, env)
            env["labels"].append((t, True))
            then = self.expr(t, depth - 1, env)
            els = self.expr(t, depth - 1, env)
            env["labels"].pop()
            return cond + (Instruction(op.IF, (t,)),) + then + (ELSE,) + els + (END,)
        if kind == "block":
            env["labels"].append((t, True))
            body = self.statements(env, depth - 1, rng.randint(0, 1))
            if rng.random() < 0.35:
                body += self.ending(env)
            else:
                body += self.expr(t, depth - 1, env)
            env["labels"].pop()
            return (Instruction(op.BLOCK, (t,)),) + body + (END,)
        if kind == "loop":
            counter = self.fresh_local("i32", env)
            env["labels"].append((None, False))
            body = self.statements(env, depth - 1, rng.randint(0, 2))
            result = self.expr(t, depth - 1, env)
            env["labels"].pop()
            return (
                (_ins("i32.const", rng.randint(1, 3)), _ins("local.set", counter))
                + (Instruction(op.LOOP, (t,)),)
                + body
                + (_ins("local.get", counter), _ins("i32.const", 1), _ins("i32.sub"))
                + (_ins("local.tee", counter), _ins("br_if", 0))
                + result
                + (END,)
            )
        if kind == "grow":
            return (_ins("i32.const", rng.choice((0, 1, 1, 2, -1))), _ins("memory.grow"))
        if kind == "load":
            name, align = rng.choice(LOADS[t])
            return (_ins("i32.const", rng.randrange(0, 512)), _ins(name, align, 0))
        if kind == "msize":
            return (_ins("memory.size"),)
        callees = [f for f in env["callees"] if f[1].results == (t,)]
        idx, ft = rng.choice(callees)
        out = ()
        for p in ft.params:
            out += self.expr(p, depth - 1, env)
        return out + (_ins("call", idx),)

    def fresh_local(self, t, env):
        """A local of type ``t`` that no random statement writes."""
        env["hidden"].append(t)
        return len(env["locals"]) + len(env["hidden"]) - 1

    def no_nan(self, t, code, env):
        """``code``, pushing a ``t``, made to push 0 in place of a NaN."""
        if not self.control_flow or t not in ("f32", "f64"):
            return code
        k = self.fresh_local(t, env)
        zero = Instruction(op.F32_CONST if t == "f32" else op.F64_CONST, (0,))
        check = (_ins("local.get", k), _ins("local.get", k), _ins(f"{t}.eq"), _ins("select"))
        return code + (_ins("local.tee", k), zero) + check

    def values(self, label_type, env):
        return self.expr(label_type, 1, env) if label_type else ()

    def targets(self, env):
        """(depth, the values a branch carries) of each label a random
        branch may take."""
        labels = env["labels"]
        return [(len(labels) - 1 - i, lt) for i, (lt, ok) in enumerate(labels) if ok]

    def ending(self, env):
        """A ``br``, ``br_table`` or ``return`` that closes the code before
        it, carrying the values of a label that random branches may take."""
        rng = self.rng
        targets = self.targets(env)
        kind = rng.choice(("br", "br_table", "return"))
        if kind == "return":
            return self.values(env["labels"][0][0], env) + (_ins("return"),)
        depth, lt = rng.choice(targets)
        if kind == "br":
            return self.values(lt, env) + (_ins("br", depth),)
        same = [d for d, u in targets if u == lt]
        table = tuple(rng.choice(same) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.7:
            index = (_ins("i32.const", rng.randint(0, len(table) + 1)),)
        else:
            index = self.expr("i32", 1, env)
        return self.values(lt, env) + index + (_ins("br_table", table, depth),)

    def statements(self, env, depth, n):
        out = ()
        for _ in range(n):
            out += self.statement(env, depth)
        return out

    def statement(self, env, depth=2):
        rng = self.rng
        if not self.trap_free and rng.random() < 0.05:
            return (_ins("unreachable"),)
        kinds = ["drop"]
        if env["locals"]:
            kinds.append("lset")
        mutable = [i for i, g in enumerate(self.globals) if g.type.mutable]
        if mutable:
            kinds.append("gset")
        if self.has_memory:
            kinds.append("store")
        if self.log_index is not None:
            kinds.append("log")
        if self.log64_index is not None:
            kinds.append("log64")
        if self.abort_index is not None and not self.trap_free and rng.random() < 0.15:
            kinds = ["abort"]
        void_callees = [f for f in env["callees"] if f[1].results == ()]
        if void_callees:
            kinds.append("callv")
        if self.control_flow:
            kinds += ["br_if", "block", "if"] if depth > 0 else ["br_if"]
        kind = rng.choice(kinds)
        if kind == "drop":
            return self.expr(rng.choice(VALTYPES), 2, env) + (_ins("drop"),)
        if kind == "lset":
            i = rng.randrange(len(env["locals"]))
            return self.expr(env["locals"][i], 2, env) + (_ins("local.set", i),)
        if kind == "gset":
            i = rng.choice(mutable)
            return self.expr(self.globals[i].type.valtype, 2, env) + (_ins("global.set", i),)
        if kind == "store":
            t = rng.choice(VALTYPES)
            name, align = rng.choice(STORES[t])
            return (
                (_ins("i32.const", rng.randrange(0, 512)),)
                + self.no_nan(t, self.expr(t, 1, env), env)
                + (_ins(name, align, 0),)
            )
        if kind == "log":
            return self.expr("i32", 1, env) + (_ins("call", self.log_index),)
        if kind == "log64":
            return self.expr("i64", 1, env) + (_ins("call", self.log64_index),)
        if kind == "abort":
            return (_ins("call", self.abort_index),)
        if kind == "br_if":
            depth, lt = rng.choice(self.targets(env))
            drop = (_ins("drop"),) if lt else ()
            cond = self.expr("i32", 1, env)
            return self.values(lt, env) + cond + (_ins("br_if", depth),) + drop
        if kind in ("block", "if"):
            env["labels"].append((None, True))
            arms = []
            for _ in range(1 if kind == "block" else 2):
                arm = self.statements(env, depth - 1, rng.randint(1, 2))
                if rng.random() < 0.4:
                    arm += self.ending(env)
                arms.append(arm)
            env["labels"].pop()
            if kind == "block":
                return (Instruction(op.BLOCK, (None,)),) + arms[0] + (END,)
            cond = self.expr("i32", 1, env)
            return cond + (Instruction(op.IF, (None,)),) + arms[0] + (ELSE,) + arms[1] + (END,)
        idx, ft = rng.choice(void_callees)
        out = ()
        for p in ft.params:
            out += self.expr(p, 1, env)
        return out + (_ins("call", idx),)

    def body(self, ft, callees):
        rng = self.rng
        locals_ = tuple(rng.choice(VALTYPES) for _ in range(rng.randint(0, 3)))
        env = {
            "locals": tuple(ft.params) + locals_,
            "callees": callees,
            # the body's first, then each construct's inward: (the values a
            # branch carries, whether a random branch may take it); only its
            # back edge takes a loop's
            "labels": [(ft.results[0] if ft.results else None, True)],
            # loop counters and NaN checks, declared after the others
            "hidden": [],
        }
        out = ()
        for _ in range(rng.randint(1, 3)):
            out += self.statement(env)
        if ft.results:
            out += self.expr(ft.results[0], 3, env)
        return locals_ + tuple(env["hidden"]), out

    def random_functype(self):
        rng = self.rng
        params = tuple(rng.choice(VALTYPES) for _ in range(rng.randint(0, 3)))
        results = (rng.choice(VALTYPES),) if rng.random() < 0.75 else ()
        return FuncType(params, results)


def generate_pair(seed, trap_free=False, max_defined=8, control_flow=False):
    """Return (module, workload) for the given seed, always valid."""
    rng = random.Random(seed)
    g = _Gen(rng, trap_free, control_flow)

    if rng.random() < 0.4:
        g.log_index = g.add_import("log", FuncType(("i32",), ()))
    if rng.random() < 0.25:
        g.log64_index = g.add_import("log64", FuncType(("i64",), ()))
    if not trap_free and rng.random() < 0.3:
        g.abort_index = g.add_import("abort", FuncType((), ()))

    g.has_memory = rng.random() < 0.45
    memories = ()
    data = ()
    if g.has_memory:
        memories = (Limits(1, rng.choice((None, 1, 2))),)
        if rng.random() < 0.6:
            payload = bytes(rng.randrange(256) for _ in range(rng.randint(1, 12)))
            data = (DataSegment(0, (_ins("i32.const", rng.randrange(0, 256)),), payload),)

    for _ in range(rng.randint(0, 2)):
        t = rng.choice(VALTYPES)
        init = g.const(t)
        g.globals.append(Global(GlobalType(t, rng.random() < 0.7), init))

    n_imports = len(g.imports)
    n_regular = rng.randint(1, min(3, max_defined))
    remaining = max_defined - n_regular
    use_table = remaining >= 2 and rng.random() < 0.45
    n_slots = rng.randint(1, min(3, remaining - 1)) if use_table else 0
    if use_table:
        remaining -= n_slots + 1
    use_start = remaining >= 1 and rng.random() < 0.2

    # regular functions first; calls only reach lower indices
    regular = []
    for d in range(n_regular):
        ft = g.random_functype()
        callees = [(n_imports + j, g.defined_types[j]) for j in range(d)]
        locals_, body = g.body(ft, callees)
        g.functions.append(Function(g.type_index(ft), locals_, body))
        g.defined_types.append(ft)
        regular.append(n_imports + d)

    tables = ()
    elements = ()
    dispatch_index = None
    if use_table:
        slot_ft = FuncType((), ("i32",))
        slot_indices = []
        for _ in range(n_slots):
            g.functions.append(
                Function(g.type_index(slot_ft), (), (_ins("i32.const", rng.randint(0, 99)),))
            )
            g.defined_types.append(slot_ft)
            slot_indices.append(n_imports + len(g.functions) - 1)
        disp_ft = FuncType(("i32",), ("i32",))
        g.functions.append(
            Function(
                g.type_index(disp_ft),
                (),
                (_ins("local.get", 0), _ins("call_indirect", g.type_index(slot_ft))),
            )
        )
        g.defined_types.append(disp_ft)
        dispatch_index = n_imports + len(g.functions) - 1
        tables = (Limits(n_slots),)
        elements = (ElementSegment(0, (_ins("i32.const", 0),), tuple(slot_indices)),)

    start = None
    if use_start:
        start_ft = FuncType((), ())
        callees = [
            (idx, g.defined_types[idx - n_imports])
            for idx in regular
            if g.defined_types[idx - n_imports].results == ()
        ]
        locals_, body = g.body(start_ft, callees)
        g.functions.append(Function(g.type_index(start_ft), locals_, body))
        g.defined_types.append(start_ft)
        start = n_imports + len(g.functions) - 1

    exports = []
    for d, idx in enumerate(regular):
        if rng.random() < 0.75:
            exports.append(Export(f"fn{d}", "func", idx))
    if dispatch_index is not None:
        exports.append(Export("dispatch", "func", dispatch_index))
    if not exports:
        exports.append(Export("fn0", "func", regular[0]))
    if memories and rng.random() < 0.12:
        exports.append(Export("mem", "memory", 0))
    if tables and rng.random() < 0.12:
        exports.append(Export("tbl", "table", 0))

    module = Module(
        types=tuple(g.types),
        imports=tuple(g.imports),
        functions=tuple(g.functions),
        tables=tables,
        memories=memories,
        globals=tuple(g.globals),
        exports=tuple(exports),
        start=start,
        elements=elements,
        data=data,
    )
    report = validate_module(module)
    assert report.ok, f"generator produced an invalid module (seed {seed}): {report.errors}"

    func_exports = [e for e in exports if e.kind == "func"]
    invocations = []
    for _ in range(rng.randint(1, 5)):
        e = rng.choice(func_exports)
        ft = module.func_type_of(e.index)
        args = []
        for p in ft.params:
            if e.index == dispatch_index:
                if trap_free:
                    args.append(Value.i32(rng.randrange(n_slots)))
                else:
                    args.append(Value.i32(rng.randint(-1, n_slots + 1)))
            elif p == "i32":
                args.append(Value.i32(rng.randint(-1000, 1000)))
            elif p == "i64":
                args.append(Value.i64(rng.randint(-(10 ** 9), 10 ** 9)))
            elif p == "f32":
                args.append(Value.f32(round(rng.uniform(-100.0, 100.0), 2)))
            else:
                args.append(Value.f64(round(rng.uniform(-100.0, 100.0), 2)))
        invocations.append(Invocation(e.name, tuple(args)))
    return module, Workload(tuple(invocations))
