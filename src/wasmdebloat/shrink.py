"""Rewrite a module according to a KeepPlan.

Removal changes every index downstream of the function and type spaces,
so bodies, exports, elements, the start entry, and the name custom
section are all rewritten through the plan's remaps. Tables, memories,
globals, and data segments pass through untouched: only functions are
debloated.
"""

from __future__ import annotations

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

    new_types = tuple(
        m.types[old] for old in sorted(plan.type_remap, key=plan.type_remap.get)
    )
    new_exports = tuple(
        replace(e, index=plan.func_remap[e.index]) if e.kind == "func" else e
        for e in m.exports
    )
    new_elements = tuple(
        replace(seg, func_indices=tuple(plan.func_remap[i] for i in seg.func_indices))
        for seg in m.elements
    )
    new_start = None if m.start is None else plan.func_remap[m.start]

    new_customs = []
    for name, payload in m.custom_sections:
        if name != "name":
            continue
        remapped = _remap_name_payload(payload, plan.func_remap)
        if remapped is not None:
            new_customs.append(("name", remapped))

    return Module(
        types=new_types,
        imports=tuple(new_imports),
        functions=tuple(new_functions),
        tables=m.tables,
        memories=m.memories,
        globals=m.globals,
        exports=new_exports,
        start=new_start,
        elements=new_elements,
        data=m.data,
        custom_sections=tuple(new_customs),
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
        kept_any = False
        while not r.eof():
            sub_id = r.byte()
            size = r.u32()
            if r.pos + size > r.end:
                return None
            sub = Reader(payload, r.pos, r.pos + size)
            r.pos += size
            if sub_id == 0:
                out.byte(0)
                out.u32(size)
                out.raw(payload[sub.pos : sub.end])
                kept_any = True
            elif sub_id == 1:
                entries = []
                for _ in range(sub.u32()):
                    idx = sub.u32()
                    name = sub.name()
                    if idx in func_remap:
                        entries.append((func_remap[idx], name))
                if entries:
                    body = Writer()
                    body.u32(len(entries))
                    for idx, name in entries:
                        body.u32(idx)
                        body.name(name)
                    out.byte(1)
                    out.u32(len(body.buf))
                    out.raw(bytes(body.buf))
                    kept_any = True
        return bytes(out.buf) if kept_any else None
    except MalformedBinary:
        return None


def shrink_stats(before: bytes, after: bytes, plan: KeepPlan) -> ShrinkStats:
    kept = stubbed = removed = 0
    for f in range(plan.num_func_imports, len(plan.dispositions)):
        disp = plan.dispositions[f]
        if disp == Disposition.KEEP_BODY:
            kept += 1
        elif disp == Disposition.STUB:
            stubbed += 1
        else:
            removed += 1
    sizes_before = section_sizes(before)
    sizes_after = section_sizes(after)
    return ShrinkStats(
        functions_kept_body=kept,
        functions_stubbed=stubbed,
        functions_removed=removed,
        imports_removed=len(plan.removed_imports),
        types_removed=plan.num_types - len(plan.type_remap),
        bytes_before=len(before),
        bytes_after=len(after),
        code_bytes_before=sizes_before.get(op.SEC_CODE, 0),
        code_bytes_after=sizes_after.get(op.SEC_CODE, 0),
    )
