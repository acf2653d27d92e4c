"""Turn an execution trace into per-function dispositions.

close_references() unions the dynamic trace with the static must-keep
roots (exports, element segments, start), then walks the kept bodies
once and grants every function they mention at least a
declaration-preserving Stub. A plan is its dispositions: every new index
is derived from them, so a plan whose dispositions are edited stays
consistent.

Stub bodies become a bare trap, so references inside them die with the
body: only KeepBody bodies propagate references.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from . import opcodes as op
from .errors import IndexOutOfRange
from .interp import ExecutionTrace
from .module import Module


class Disposition(enum.Enum):
    KEEP_BODY = "keep-body"
    STUB = "stub"
    REMOVE = "remove"


@dataclass(frozen=True)
class KeepPlan:
    # index = combined function index; imports are KEEP_BODY or REMOVE
    dispositions: tuple[Disposition, ...]

    @cached_property
    def func_remap(self) -> dict[int, int]:
        """The new index of every function not removed, dense and in order."""
        remove = Disposition.REMOVE  # a member read per item is slow on 3.11
        kept = [f for f, d in enumerate(self.dispositions) if d is not remove]
        return {old: new for new, old in enumerate(kept)}


def _static_func_roots(m: Module) -> set[int]:
    roots = {e.index for e in m.exports if e.kind == "func"}
    for seg in m.elements:
        roots.update(seg.func_indices)
    if m.start is not None:
        roots.add(m.start)
    return roots


def close_references(m: Module, trace: ExecutionTrace) -> KeepPlan:
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
    # import still survives as a declaration
    defined = set(range(n_imports, n))
    body_keep = set(trace.entered)
    body_keep |= (trace.call_targets | trace.table_observed) & defined
    if m.start is not None and m.start >= n_imports:
        body_keep.add(m.start)

    # one pass over the kept bodies reaches the fixed point: the functions
    # they call earn Stub (stub bodies never add references of their own)
    survivors = body_keep | _static_func_roots(m)
    for f in body_keep:
        for i in m.functions[f - n_imports].body:
            if i.opcode == op.CALL:
                survivors.add(i.args[0])

    dispositions = []
    for f in range(n):
        if f in body_keep or f < n_imports and f in survivors:
            dispositions.append(Disposition.KEEP_BODY)
        elif f in survivors:
            dispositions.append(Disposition.STUB)
        else:
            dispositions.append(Disposition.REMOVE)
    return KeepPlan(tuple(dispositions))
