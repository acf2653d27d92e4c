"""Turn an execution trace into per-function dispositions.

Two stages. consolidate() unions the dynamic trace with the static
must-keep roots (exports, element segments, start). close_references()
walks the kept bodies once and grants every function they mention at
least a declaration-preserving Stub, then lays out the dense index
remaps the rewriter needs.

Stub bodies become a bare trap, so references inside them die with the
body: only KeepBody bodies propagate references.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import opcodes as op
from .errors import IndexOutOfRange
from .interp import ExecutionTrace
from .module import Module


class Disposition(enum.Enum):
    KEEP_BODY = "keep-body"
    STUB = "stub"
    REMOVE = "remove"


@dataclass(frozen=True)
class KeepRoots:
    body_keep: frozenset[int]
    decl_keep: frozenset[int]


@dataclass(frozen=True)
class KeepPlan:
    # index = combined function index; imports are KEEP_BODY or REMOVE
    dispositions: tuple[Disposition, ...]
    func_remap: dict[int, int]
    type_remap: dict[int, int]
    num_func_imports: int
    num_types: int  # in the module the plan was made for

    @property
    def removed_imports(self) -> frozenset[int]:
        imports = self.dispositions[: self.num_func_imports]
        return frozenset(f for f, d in enumerate(imports) if d == Disposition.REMOVE)


def _static_func_roots(m: Module) -> set[int]:
    roots = {e.index for e in m.exports if e.kind == "func"}
    for seg in m.elements:
        roots.update(seg.func_indices)
    if m.start is not None:
        roots.add(m.start)
    return roots


def consolidate(trace: ExecutionTrace, m: Module) -> KeepRoots:
    n = m.num_funcs
    n_imports = m.num_func_imports
    mentioned = trace.entered | trace.call_targets | trace.table_observed
    for idx in mentioned:
        if not 0 <= idx < n:
            raise IndexOutOfRange(f"trace mentions function {idx}, module has {n}")
    for idx in trace.entered:
        if idx < n_imports:
            raise IndexOutOfRange(f"imported function {idx} marked as entered")

    # imports have no body to keep; a table slot or call target that is an
    # import still survives through decl_keep
    defined = set(range(n_imports, n))
    body_keep = set(trace.entered)
    body_keep |= (trace.call_targets | trace.table_observed) & defined
    if m.start is not None and m.start >= n_imports:
        body_keep.add(m.start)

    decl_keep = body_keep | _static_func_roots(m)
    return KeepRoots(frozenset(body_keep), frozenset(decl_keep))


def close_references(m: Module, roots: KeepRoots) -> KeepPlan:
    n = m.num_funcs
    n_imports = m.num_func_imports
    body_keep = set(roots.body_keep)

    # one pass over the kept bodies reaches the fixed point: the functions
    # they call earn Stub (stub bodies never add references of their own),
    # and the types their call_indirects name survive
    survivors = set(roots.decl_keep)
    type_refs = set()
    for f in body_keep:
        for i in m.functions[f - n_imports].body:
            if i.opcode == op.CALL:
                survivors.add(i.args[0])
            elif i.opcode == op.CALL_INDIRECT:
                type_refs.add(i.args[0])

    dispositions = []
    for f in range(n):
        if f < n_imports:
            dispositions.append(
                Disposition.KEEP_BODY if f in survivors else Disposition.REMOVE
            )
        elif f in body_keep:
            dispositions.append(Disposition.KEEP_BODY)
        elif f in survivors:
            dispositions.append(Disposition.STUB)
        else:
            dispositions.append(Disposition.REMOVE)

    func_remap = {}
    for f in range(n):
        if dispositions[f] != Disposition.REMOVE:
            func_remap[f] = len(func_remap)
            type_refs.add(m.func_type_indices[f])
    type_remap = {old: new for new, old in enumerate(sorted(type_refs))}

    return KeepPlan(
        dispositions=tuple(dispositions),
        func_remap=func_remap,
        type_remap=type_remap,
        num_func_imports=n_imports,
        num_types=len(m.types),
    )
