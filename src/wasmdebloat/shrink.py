"""Rewrite a module according to a KeepPlan.

Removal changes every index downstream of the function and type spaces,
so bodies, exports, elements, the start entry, and the name custom
section are all rewritten through renumberings derived from the plan's
dispositions and the module. The rewrite is a
``dataclasses.replace`` of those fields alone, so tables, memories,
globals, and data segments pass through untouched: only functions are
debloated. The name section is read with the codec's ``Reader`` and
written with its ``Writer``, one subsection at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from . import opcodes as op
from .decode import Reader, section_sizes
from .encode import Writer
from .errors import MalformedBinary, PlanMismatch
from .module import Expr, Function, Instruction, Module
from .plan import Disposition, KeepPlan

_STUB_BODY: Expr = (Instruction(op.UNREACHABLE),)


@dataclass(frozen=True)
class ShrinkStats:
    functions_kept_body: int
    functions_stubbed: int
    functions_removed: int
    imports_removed: int
    types_removed: int
    bytes_before: int
    bytes_after: int
    code_bytes_before: int
    code_bytes_after: int


def _remap(instr: Instruction, func_remap: dict, type_remap: dict) -> Instruction:
    code = instr.opcode
    if code == op.CALL:
        return Instruction(code, (func_remap[instr.args[0]],))
    if code == op.CALL_INDIRECT:
        return Instruction(code, (type_remap[instr.args[0]],))
    return instr


def _type_remap(m: Module, plan: KeepPlan) -> dict[int, int]:
    """The dense, order-preserving renumbering of the types that the kept
    functions declare and that the kept bodies' call_indirects name."""
    n_imports = m.num_func_imports
    kept = {m.func_type_indices[f] for f in plan.func_remap}
    for f in plan.func_remap:
        if f >= n_imports and plan.dispositions[f] is Disposition.KEEP_BODY:
            body = m.functions[f - n_imports].body
            kept.update(i.args[0] for i in body if i.opcode == op.CALL_INDIRECT)
    for old in kept:
        if old not in range(len(m.types)):
            raise PlanMismatch(f"plan keeps type {old}, module has {len(m.types)}")
    return {old: new for new, old in enumerate(sorted(kept))}


def apply_plan(m: Module, plan: KeepPlan) -> Module:
    if len(plan.dispositions) != m.num_funcs:
        raise PlanMismatch(
            f"plan covers {len(plan.dispositions)} functions, module has {m.num_funcs}"
        )
    try:
        return _apply(m, plan)
    except KeyError as e:
        raise PlanMismatch(f"plan lacks a remap entry for index {e}") from None


def _apply(m: Module, plan: KeepPlan) -> Module:
    n_imports = m.num_func_imports
    func_remap, type_remap = plan.func_remap, _type_remap(m, plan)

    new_imports = []
    func_import_pos = 0
    for imp in m.imports:
        if imp.kind != "func":
            new_imports.append(imp)
            continue
        if plan.dispositions[func_import_pos] != Disposition.REMOVE:
            new_imports.append(replace(imp, desc=type_remap[imp.desc]))
        func_import_pos += 1

    new_functions = []
    for i, fn in enumerate(m.functions):
        disp = plan.dispositions[n_imports + i]
        if disp == Disposition.REMOVE:
            continue
        if disp == Disposition.STUB:
            new_functions.append(Function(type_remap[fn.type_index], (), _STUB_BODY))
        else:
            new_functions.append(
                Function(
                    type_remap[fn.type_index],
                    fn.locals,
                    tuple(_remap(i, func_remap, type_remap) for i in fn.body),
                )
            )

    names = (_remap_name_payload(p, func_remap) for n, p in m.custom_sections if n == "name")
    return replace(
        m,
        imports=tuple(new_imports),
        functions=tuple(new_functions),
        types=tuple(m.types[old] for old in type_remap),
        exports=tuple(
            replace(e, index=func_remap[e.index]) if e.kind == "func" else e
            for e in m.exports
        ),
        elements=tuple(
            replace(seg, func_indices=tuple(func_remap[i] for i in seg.func_indices))
            for seg in m.elements
        ),
        start=None if m.start is None else func_remap[m.start],
        custom_sections=tuple(("name", p) for p in names if p is not None),
    )


def _remap_name_payload(payload: bytes, func_remap: dict[int, int]) -> bytes | None:
    """Filter and renumber the function-name subsection.

    Module name passes through, local names and unknown subsections are
    dropped (their indices would be stale). An unparseable payload drops
    the whole section. Returns None when nothing survives.
    """
    try:
        r = Reader(payload)
        out = Writer()
        while not r.eof():
            sub_id, size = r.byte(), r.u32()
            sub = r.sub(size)
            if sub_id == 0:
                out.section(0, sub.raw(size))
            elif sub_id == 1:
                entries = [
                    (func_remap[idx], name)
                    for idx, name in sub.vector(_read_name_entry)
                    if idx in func_remap
                ]
                if entries:
                    body = Writer()
                    body.vector(_write_name_entry, entries)
                    out.section(1, body.buf)
        return bytes(out.buf) or None
    except MalformedBinary:
        return None


def _read_name_entry(r: Reader) -> tuple[int, str]:
    return r.u32(), r.name()


def _write_name_entry(w: Writer, entry: tuple[int, str]) -> None:
    idx, name = entry
    w.u32(idx)
    w.name(name)


def shrink_stats(m: Module, plan: KeepPlan, before: bytes, after: bytes) -> ShrinkStats:
    n_imports = m.num_func_imports
    counts = Counter(plan.dispositions[n_imports:])
    sizes_before = section_sizes(before)
    sizes_after = section_sizes(after)
    return ShrinkStats(
        functions_kept_body=counts[Disposition.KEEP_BODY],
        functions_stubbed=counts[Disposition.STUB],
        functions_removed=counts[Disposition.REMOVE],
        imports_removed=plan.dispositions[:n_imports].count(Disposition.REMOVE),
        types_removed=len(m.types) - len(_type_remap(m, plan)),
        bytes_before=len(before),
        bytes_after=len(after),
        code_bytes_before=sizes_before.get(op.SEC_CODE, 0),
        code_bytes_after=sizes_after.get(op.SEC_CODE, 0),
    )
