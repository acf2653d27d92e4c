"""Structural and type validation for WebAssembly 1.0 modules.

Errors are data, not exceptions: every problem is collected into a
ValidationReport as a (location, message) pair. There is one path, over
a decoded module: bodies are type-checked by decode's one loop over
their bytes, and ``validate_module`` reads the errors decode recorded.
Any other module (built by hand, or changed with ``dataclasses.replace``)
is checked as ``decode(encode(m))``. Anything ``encode`` cannot write,
such as an immediate of the wrong shape, an unbalanced body or a field
of the wrong type, is then the one error, at the ``EncodeError``'s
location; a module whose bytes pass one of decode's caps
(``MAX_NESTING``, ``MAX_LOCALS``, ``MAX_FUNCTION_LOCALS``, ``MAX_PARAMS``,
``MAX_BR_TABLE``) is one error at ``module``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import opcodes as op
from .decode import decode
from .encode import encode
from .errors import EncodeError, MalformedBinary
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
        errs.append((loc, f"{op.OPS[instr.opcode].name} not allowed in constant expression"))
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


def validate_module(m: Module) -> ValidationReport:
    if m.body_errors is None:  # not from decode: check the bytes encode makes of it
        try:
            m = decode(encode(m))
        except EncodeError as e:
            return ValidationReport(((e.location, str(e)),))
        except MalformedBinary as e:  # past one of decode's caps
            return ValidationReport((("module", e.reason),))
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
            _check_limits(imp.desc, MAX_TABLE_ELEMENTS, None, loc, errs)
        elif imp.kind == "memory":
            _check_limits(imp.desc, MAX_PAGES, MAX_PAGES, loc, errs)
        elif imp.desc.mutable:
            errs.append((loc, "mutable global import"))

    if m.num_tables > 1:
        errs.append(("table", "more than one table"))
    if m.num_memories > 1:
        errs.append(("memory", "more than one memory"))
    for i, lim in enumerate(m.tables):
        _check_limits(lim, MAX_TABLE_ELEMENTS, None, f"table[{i}]", errs)
    for i, lim in enumerate(m.memories):
        _check_limits(lim, MAX_PAGES, MAX_PAGES, f"memory[{i}]", errs)

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

    return ValidationReport(tuple(errs) + m.body_errors)
