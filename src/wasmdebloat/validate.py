"""Structural and type validation for WebAssembly 1.0 modules.

Errors are data, not exceptions: every problem is collected into a
ValidationReport as a (location, message) pair. The body checker follows
the standard operand-stack discipline, including the polymorphic typing
of dead code after unreachable/br/br_table/return.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import opcodes as op
from .module import Expr, FuncType, Module, MAX_PAGES

# the t.const opcodes, permitted inside constant expressions -> t
_CONST_OPCODES = {c: i.imm for c, i in op.OPS.items() if i.imm in op.VAL_TYPES}
# the opcodes that open a construct
_OPENS = (op.BLOCK, op.LOOP, op.IF)


# per opcode with a fixed stack signature (``Op.pops`` is not None),
# the fields check_function reads: its name, minus the number of values
# it pops, the types it pops (bottom first) and pushes, the natural
# alignment exponent of a memory access (None for other ops), and whether
# it needs a memory. None for every other opcode byte.
_SIMPLE: list[tuple | None] = [None] * 256
for _code, _info in op.OPS.items():
    if _info.pops is not None:
        _SIMPLE[_code] = (
            _info.name,
            -len(_info.pops),
            list(_info.pops),
            _info.pushes,
            _info.width.bit_length() - 1 if _info.width else None,
            _info.imm in ("memarg", "memidx"),
        )


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.errors


# (location, message) pairs in the order found
_Errors = list[tuple[str, str]]


# V8's limit; instantiation allocates every element a table starts with
MAX_TABLE_ELEMENTS = 10_000_000


def _check_limits(lim, min_cap: int, max_cap: int | None, loc: str, errs: _Errors) -> None:
    if lim.minimum > min_cap:
        errs.append((loc, f"limits minimum {lim.minimum} exceeds {min_cap}"))
    if lim.maximum is not None:
        if lim.maximum < lim.minimum:
            errs.append((loc, "limits maximum below minimum"))
        if max_cap is not None and lim.maximum > max_cap:
            errs.append((loc, f"limits maximum {lim.maximum} exceeds {max_cap}"))


def _check_const_expr(
    m: Module, expr: Expr, expected: str, loc: str, errs: _Errors
) -> None:
    # count the instructions outside any construct: a construct with its
    # contents and its END is one instruction
    top = depth = 0
    for instr in expr:
        if instr.opcode == op.END:
            depth -= 1
        elif instr.opcode != op.ELSE:
            top += depth == 0
            depth += instr.opcode in _OPENS
    if top != 1:
        errs.append((loc, "constant expression must be a single instruction"))
        return
    instr = expr[0]
    if instr.opcode in _CONST_OPCODES:
        got = _CONST_OPCODES[instr.opcode]
        if got != expected:
            errs.append((loc, f"constant expression yields {got}, expected {expected}"))
        return
    if instr.opcode == op.GLOBAL_GET:
        idx = instr.args[0]
        if idx >= len(m.global_types) - len(m.globals):
            errs.append((loc, "constant expression may only read imported globals"))
            return
        gt = m.global_types[idx]
        if gt.mutable:
            errs.append((loc, "constant expression reads a mutable global"))
        elif gt.valtype != expected:
            errs.append((
                loc,
                f"constant expression yields {gt.valtype}, expected {expected}",
            ))
        return
    name = op.OPS[instr.opcode].name if instr.opcode in op.OPS else hex(instr.opcode)
    errs.append((loc, f"{name} not allowed in constant expression"))


class _BodyChecker:
    """Operand-stack type checker for one function body.

    Runs over the body's binary-order instructions with an explicit
    control stack, as in the WebAssembly 1.0 validation appendix: a
    construct's header opens a frame with a fresh operand stack, ``ELSE``
    and ``END`` check the arm they close, and ``END`` pushes the
    construct's results outside it. A body built by hand may be
    unbalanced; a stray ``ELSE`` or ``END`` and a construct still open at
    the body's end are reported as errors.
    """

    def __init__(
        self,
        m: Module,
        locals_: tuple[str, ...],
        results: tuple[str, ...],
        loc: str,
        errs: _Errors,
    ):
        self.m = m
        self.locals = locals_
        self.results = results
        self.loc = loc
        self.errs = errs
        self.stack: list[str] = []
        self.dead = False
        # per open construct, the function body first: the enclosing stack
        # and dead flag to restore, its result types, the error context of
        # its current arm, and the types a branch to its label carries
        self.ctrl: list[tuple] = [([], False, results, "function end", results)]

    def error(self, msg: str) -> None:
        self.errs.append((self.loc, msg))

    def pop(self, expect: str | None = None, ctx: str = "") -> str:
        if self.stack:
            t = self.stack.pop()
        elif self.dead:
            return expect or "unknown"
        else:
            self.error(f"{ctx}: operand stack underflow")
            return expect or "unknown"
        if expect is not None and t != expect:
            self.error(f"{ctx}: expected {expect}, got {t}")
        return t

    def mark_dead(self) -> None:
        self.dead = True
        self.stack.clear()

    def check_function(self, body: Expr) -> None:
        """Check a body. Ops with a fixed stack signature are checked here:
        when the top of the stack is exactly what one pops, it pops and
        pushes in place; otherwise ``pop`` reports each mismatch."""
        check, close, pop, simple_ops = self.check_instr, self.close, self.pop, _SIMPLE
        stack = self.stack
        for instr in body:
            code = instr.opcode
            simple = simple_ops[code]
            if simple is None:
                if code == op.END or code == op.ELSE:
                    close(code)
                else:
                    check(instr)
                stack = self.stack  # a construct's header or end swaps it
                continue
            name, cut, pops, pushes, natural, memory = simple
            if cut:
                if stack[cut:] == pops:
                    del stack[cut:]
                else:
                    for t in reversed(pops):
                        pop(t, name)
            if natural is not None and instr.args[0] > natural:
                self.error(f"{name}: alignment 2**{instr.args[0]} over natural {1 << natural}")
            if memory and self.m.num_memories == 0:
                self.error(f"{name}: module has no memory")
            stack += pushes
        if len(self.ctrl) > 1:
            self.error(f"{len(self.ctrl) - 1} construct(s) not closed at end of body")
        else:
            self.close_arm(True)  # the body's own end closes the function's frame

    def exit_block(self, results: tuple[str, ...], ctx: str) -> None:
        for t in reversed(results):
            self.pop(t, ctx)
        if self.stack and not self.dead:
            self.error(f"{ctx}: {len(self.stack)} extra value(s) on stack")

    def close(self, code: int) -> None:
        """Check an ELSE or END: one with no construct to close, or an ELSE
        outside an if's then arm, is reported; any other closes the arm."""
        name = "end" if code == op.END else "else"
        if len(self.ctrl) == 1:
            self.error(f"{name}: no open block, loop or if")
        elif code == op.ELSE and self.ctrl[-1][3] != "if: then":
            self.error("else outside if")
        else:
            self.close_arm(code == op.END)

    def close_arm(self, end: bool) -> None:
        """Check the arm an ELSE or END closes; END also closes its construct."""
        saved, dead, results, ctx, label = self.ctrl[-1]
        self.exit_block(results, ctx)
        self.stack, self.dead = [], False
        if not end:
            self.ctrl[-1] = (saved, dead, results, "if: else", label)
            return
        if ctx == "if: then" and results:
            # a result-typed if requires an else arm; checking an empty
            # one reports the arity mismatch
            self.exit_block(results, "if: else")
        self.ctrl.pop()
        self.stack, self.dead = saved, dead
        saved += results

    def label_types(self, depth: int, ctx: str) -> tuple[str, ...] | None:
        if depth >= len(self.ctrl):
            self.error(f"{ctx}: label depth {depth} out of range")
            return None
        return self.ctrl[-1 - depth][4]

    def check_instr(self, instr) -> None:
        """Check an instruction without a fixed stack signature."""
        code = instr.opcode
        name = op.OPS[code].name
        if code == op.UNREACHABLE:
            self.mark_dead()
        elif code == op.NOP:
            pass
        elif code in (op.BLOCK, op.LOOP, op.IF):
            bt = instr.args[0]
            results = () if bt is None else (bt,)
            if code == op.IF:
                self.pop("i32", name)
                name = "if: then"
            label = () if code == op.LOOP else results
            self.ctrl.append((self.stack, self.dead, results, name, label))
            self.stack, self.dead = [], False
        elif code in (op.BR, op.BR_IF):
            depth = instr.args[0]
            if code == op.BR_IF:
                self.pop("i32", name)
            types = self.label_types(depth, name)
            if types is not None:
                for t in reversed(types):
                    self.pop(t, name)
                if code == op.BR_IF:
                    for t in types:
                        self.stack.append(t)
            if code == op.BR:
                self.mark_dead()
        elif code == op.BR_TABLE:
            labels, default = instr.args
            self.pop("i32", name)
            default_types = self.label_types(default, name)
            if default_types is not None:
                for depth in labels:
                    types = self.label_types(depth, name)
                    if types is not None and types != default_types:
                        self.error(f"{name}: label type mismatch at depth {depth}")
                for t in reversed(default_types):
                    self.pop(t, name)
            self.mark_dead()
        elif code == op.RETURN:
            for t in reversed(self.results):
                self.pop(t, name)
            self.mark_dead()
        elif code == op.CALL:
            idx = instr.args[0]
            if idx >= self.m.num_funcs:
                self.error(f"{name}: function index {idx} out of range")
                self.mark_dead()
                return
            typeidx = self.m.func_type_indices[idx]
            if typeidx >= len(self.m.types):
                self.error(f"{name}: function {idx} has type index {typeidx} out of range")
                self.mark_dead()
                return
            self._apply(self.m.types[typeidx], name)
        elif code == op.CALL_INDIRECT:
            typeidx = instr.args[0]
            if self.m.num_tables == 0:
                self.error(f"{name}: module has no table")
            if typeidx >= len(self.m.types):
                self.error(f"{name}: type index {typeidx} out of range")
                self.mark_dead()
                return
            self.pop("i32", name)
            self._apply(self.m.types[typeidx], name)
        elif code == op.DROP:
            self.pop(None, name)
        elif code == op.SELECT:
            self.pop("i32", name)
            t1 = self.pop(None, name)
            t2 = self.pop(t1 if t1 != "unknown" else None, name)
            self.stack.append(t2 if t1 == "unknown" else t1)
        elif code in (op.LOCAL_GET, op.LOCAL_SET, op.LOCAL_TEE):
            idx = instr.args[0]
            if idx >= len(self.locals):
                self.error(f"{name}: local index {idx} out of range")
                self.mark_dead()
                return
            t = self.locals[idx]
            if code == op.LOCAL_GET:
                self.stack.append(t)
            elif code == op.LOCAL_SET:
                self.pop(t, name)
            else:
                self.pop(t, name)
                self.stack.append(t)
        elif code in (op.GLOBAL_GET, op.GLOBAL_SET):
            idx = instr.args[0]
            if idx >= len(self.m.global_types):
                self.error(f"{name}: global index {idx} out of range")
                self.mark_dead()
                return
            gt = self.m.global_types[idx]
            if code == op.GLOBAL_GET:
                self.stack.append(gt.valtype)
            else:
                if not gt.mutable:
                    self.error(f"{name}: global {idx} is immutable")
                self.pop(gt.valtype, name)
        else:
            raise AssertionError(f"unhandled opcode {name}")

    def _apply(self, ft: FuncType, ctx: str) -> None:
        for t in reversed(ft.params):
            self.pop(t, ctx)
        for t in ft.results:
            self.stack.append(t)


def validate_module(m: Module) -> ValidationReport:
    errs: _Errors = []

    for i, ft in enumerate(m.types):
        if len(ft.results) > 1:
            errs.append((f"type[{i}]", "more than one result"))

    for i, imp in enumerate(m.imports):
        loc = f"import[{i}]"
        if imp.kind == "func":
            if imp.desc >= len(m.types):
                errs.append((loc, f"type index {imp.desc} out of range"))
        elif imp.kind == "table":
            _check_limits(imp.desc.limits, MAX_TABLE_ELEMENTS, None, loc, errs)
        elif imp.kind == "memory":
            _check_limits(imp.desc.limits, MAX_PAGES, MAX_PAGES, loc, errs)
        elif imp.desc.mutable:
            errs.append((loc, "mutable global import"))

    if m.num_tables > 1:
        errs.append(("table", "more than one table"))
    if m.num_memories > 1:
        errs.append(("memory", "more than one memory"))
    for i, tt in enumerate(m.tables):
        _check_limits(tt.limits, MAX_TABLE_ELEMENTS, None, f"table[{i}]", errs)
    for i, mt in enumerate(m.memories):
        _check_limits(mt.limits, MAX_PAGES, MAX_PAGES, f"memory[{i}]", errs)

    for i, g in enumerate(m.globals):
        _check_const_expr(m, g.init, g.type.valtype, f"global[{i}].init", errs)

    counts = {
        "func": m.num_funcs,
        "table": m.num_tables,
        "memory": m.num_memories,
        "global": len(m.global_types),
    }
    seen_names: set[str] = set()
    for i, exp in enumerate(m.exports):
        loc = f"export[{i}]"
        if exp.name in seen_names:
            errs.append((loc, f"duplicate export name {exp.name!r}"))
        seen_names.add(exp.name)
        if exp.index >= counts[exp.kind]:
            errs.append((loc, f"{exp.kind} index {exp.index} out of bounds"))
        if exp.kind == "global" and exp.index < len(m.global_types):
            if m.global_types[exp.index].mutable:
                errs.append((loc, "mutable global export"))

    if m.start is not None:
        if m.start >= m.num_funcs:
            errs.append(("start", f"function index {m.start} out of bounds"))
        elif (typeidx := m.func_type_indices[m.start]) >= len(m.types):
            errs.append(("start", f"function {m.start} has type index {typeidx} out of range"))
        else:
            ft = m.types[typeidx]
            if ft.params or ft.results:
                errs.append(("start", f"start function has signature {ft}"))

    for i, seg in enumerate(m.elements):
        loc = f"element[{i}]"
        if seg.table_index >= m.num_tables:
            errs.append((loc, f"table index {seg.table_index} out of bounds"))
        _check_const_expr(m, seg.offset, "i32", f"{loc}.offset", errs)
        for idx in seg.func_indices:
            if idx >= m.num_funcs:
                errs.append((loc, f"function index {idx} out of bounds"))

    for i, seg in enumerate(m.data):
        loc = f"data[{i}]"
        if seg.memory_index >= m.num_memories:
            errs.append((loc, f"memory index {seg.memory_index} out of bounds"))
        _check_const_expr(m, seg.offset, "i32", f"{loc}.offset", errs)

    for i, fn in enumerate(m.functions):
        loc = f"func[{m.num_func_imports + i}]"
        if fn.type_index >= len(m.types):
            errs.append((loc, f"type index {fn.type_index} out of range"))
            continue
        ft = m.types[fn.type_index]
        if len(ft.results) > 1:
            continue  # already reported on the type
        checker = _BodyChecker(m, ft.params + fn.locals, ft.results, loc, errs)
        checker.check_function(fn.body)

    return ValidationReport(tuple(errs))
