"""Structural and type validation for WebAssembly 1.0 modules.

Errors are data, not exceptions: every problem is collected into a
ValidationReport as a (location, message) pair. Bodies are type-checked
by decode's one loop over their bytes: for a module straight from
``decode``, ``validate_module`` reads the errors decode recorded; for any
other module it runs that loop over each body's ``write_expr`` bytes, and
a body that ``write_expr`` cannot encode is one error at its ``func[i]``;
a constant expression it cannot encode is one error at its location.
In a hand-built module, a field of the wrong type, such as an index that
is not an integer or data that is not bytes, is one error at its
location, and such errors are all that is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import opcodes as op
from .decode import Reader, body_context, walk_expr
from .encode import Writer, write_expr
from .errors import EncodeError
from .module import Expr, Module, MAX_PAGES

# the t.const opcodes, permitted inside constant expressions -> t
_CONST_OPCODES = {c: i.imm for c, i in op.OPS.items() if i.imm in op.VAL_TYPES}
# the opcodes that open a construct
_OPENS = (op.BLOCK, op.LOOP, op.IF)


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
    if instr.opcode not in _CONST_OPCODES and instr.opcode != op.GLOBAL_GET:
        name = op.OPS[instr.opcode].name if instr.opcode in op.OPS else hex(instr.opcode)
        errs.append((loc, f"{name} not allowed in constant expression"))
        return
    if m.body_errors is None:  # hand-built: an immediate may not be encodable
        try:
            write_expr(Writer(), expr)
        except EncodeError as e:
            errs.append((loc, str(e)))
            return
    if instr.opcode in _CONST_OPCODES:
        got = _CONST_OPCODES[instr.opcode]
        if got != expected:
            errs.append((loc, f"constant expression yields {got}, expected {expected}"))
        return
    idx = instr.args[0]
    if idx >= len(m.global_types) - len(m.globals):
        errs.append((loc, "constant expression may only read imported globals"))
        return
    gt = m.global_types[idx]
    if gt.mutable:
        errs.append((loc, "constant expression reads a mutable global"))
    elif gt.valtype != expected:
        errs.append((loc, f"constant expression yields {gt.valtype}, expected {expected}"))


def _wrong_types(m: Module) -> _Errors:
    """The fields of a hand-built module that are not of their type, each at
    its location: the checks below and ``encode`` would raise on them."""
    n = m.num_func_imports
    ints = [(f"func[{n + i}]", "type index", f.type_index) for i, f in enumerate(m.functions)]
    ints += [(f"export[{i}]", "index", e.index) for i, e in enumerate(m.exports)]
    ints += [(f"data[{i}]", "memory index", seg.memory_index) for i, seg in enumerate(m.data)]
    ints += [] if m.start is None else [("start", "function index", m.start)]
    for i, seg in enumerate(m.elements):
        ints.append((f"element[{i}]", "table index", seg.table_index))
        ints += [(f"element[{i}]", "function index", f) for f in seg.func_indices]
    limits = [(f"table[{i}]", t.limits) for i, t in enumerate(m.tables)]
    limits += [(f"memory[{i}]", t.limits) for i, t in enumerate(m.memories)]
    for i, imp in enumerate(m.imports):
        if imp.kind == "func":
            ints.append((f"import[{i}]", "type index", imp.desc))
        elif imp.kind in ("table", "memory"):
            limits.append((f"import[{i}]", imp.desc.limits))
    for loc, lim in limits:
        ints.append((loc, "limits minimum", lim.minimum))
        if lim.maximum is not None:
            ints.append((loc, "limits maximum", lim.maximum))
    return [
        (loc, f"{what} {v!r} is not an integer") for loc, what, v in ints if type(v) is not int
    ] + [
        (f"data[{i}]", f"data of type {type(seg.data).__name__}, not bytes")
        for i, seg in enumerate(m.data)
        if not isinstance(seg.data, (bytes, bytearray))
    ]


def validate_module(m: Module) -> ValidationReport:
    errs: _Errors = [] if m.body_errors is not None else _wrong_types(m)
    if errs:  # a hand-built field of the wrong type, which the checks below would raise on
        return ValidationReport(tuple(errs))

    for i, ft in enumerate(m.types):
        if len(ft.results) > 1:
            errs.append((f"type[{i}]", "more than one result"))
        if bad := set(ft.params + ft.results).difference(op.VAL_TYPES):
            errs.append((f"type[{i}]", f"not a WebAssembly 1.0 value type: {min(bad)!r}"))

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

    if m.body_errors is not None:
        return ValidationReport(tuple(errs) + m.body_errors)
    ctx = body_context(m)
    for i, fn in enumerate(m.functions):
        loc, w = f"func[{m.num_func_imports + i}]", Writer()
        if bad := set(fn.locals).difference(op.VAL_TYPES):
            errs.append((loc, f"local: not a WebAssembly 1.0 value type: {min(bad)!r}"))
            continue
        try:
            write_expr(w, fn.body)
        except EncodeError as e:  # a hand-built body the binary format cannot hold
            errs.append((loc, str(e)))
            continue
        # without the final end: the end of the bytes closes an unbalanced body
        r, msgs = Reader(w.buf, 0, len(w.buf) - 1), []
        walk_expr(r, ctx, fn.type_index, fn.locals, msgs, final_end=False)
        errs += [(loc, msg) for msg in msgs]
    return ValidationReport(tuple(errs))
