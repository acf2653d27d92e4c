"""Rewrite a module according to a KeepPlan.

Removal changes every index downstream of the function and type spaces,
so bodies, exports, elements, the start entry, and the name custom
section are all rewritten through the plan's remaps. The rewrite is a
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


def _remap(instr: Instruction, plan: KeepPlan) -> Instruction:
    code = instr.opcode
    if code == op.CALL:
        return Instruction(code, (plan.func_remap[instr.args[0]],))
    if code == op.CALL_INDIRECT:
        return Instruction(code, (plan.type_remap[instr.args[0]],))
    return instr


def apply_plan(m: Module, plan: KeepPlan) -> Module:
    if len(plan.dispositions) != m.num_funcs:
        raise PlanMismatch(
            f"plan covers {len(plan.dispositions)} functions, module has {m.num_funcs}"
        )
    if plan.num_func_imports != m.num_func_imports:
        raise PlanMismatch("plan and module disagree on import count")
    for old in plan.type_remap:
        if old not in range(len(m.types)):
            raise PlanMismatch(f"plan names type {old}, module has {len(m.types)}")

    try:
        return _apply(m, plan)
    except KeyError as e:
        raise PlanMismatch(f"plan lacks a remap entry for index {e}") from None


def _apply(m: Module, plan: KeepPlan) -> Module:
    n_imports = m.num_func_imports

    new_imports = []
    func_import_pos = 0
    for imp in m.imports:
        if imp.kind != "func":
            new_imports.append(imp)
            continue
        if plan.dispositions[func_import_pos] != Disposition.REMOVE:
            new_imports.append(replace(imp, desc=plan.type_remap[imp.desc]))
        func_import_pos += 1

    new_functions = []
    for i, fn in enumerate(m.functions):
        disp = plan.dispositions[n_imports + i]
        if disp == Disposition.REMOVE:
            continue
        if disp == Disposition.STUB:
            new_functions.append(Function(plan.type_remap[fn.type_index], (), _STUB_BODY))
        else:
            new_functions.append(
                Function(
                    plan.type_remap[fn.type_index],
                    fn.locals,
                    tuple(_remap(i, plan) for i in fn.body),
                )
            )

    names = (_remap_name_payload(p, plan.func_remap) for n, p in m.custom_sections if n == "name")
    return replace(
        m,
        imports=tuple(new_imports),
        functions=tuple(new_functions),
        types=tuple(m.types[old] for old in sorted(plan.type_remap, key=plan.type_remap.get)),
        exports=tuple(
            replace(e, index=plan.func_remap[e.index]) if e.kind == "func" else e
            for e in m.exports
        ),
        elements=tuple(
            replace(seg, func_indices=tuple(plan.func_remap[i] for i in seg.func_indices))
            for seg in m.elements
        ),
        start=None if m.start is None else plan.func_remap[m.start],
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


def shrink_stats(before: bytes, after: bytes, plan: KeepPlan) -> ShrinkStats:
    counts = Counter(plan.dispositions[plan.num_func_imports :])
    sizes_before = section_sizes(before)
    sizes_after = section_sizes(after)
    return ShrinkStats(
        functions_kept_body=counts[Disposition.KEEP_BODY],
        functions_stubbed=counts[Disposition.STUB],
        functions_removed=counts[Disposition.REMOVE],
        imports_removed=len(plan.removed_imports),
        types_removed=plan.num_types - len(plan.type_remap),
        bytes_before=len(before),
        bytes_after=len(after),
        code_bytes_before=sizes_before.get(op.SEC_CODE, 0),
        code_bytes_after=sizes_after.get(op.SEC_CODE, 0),
    )
