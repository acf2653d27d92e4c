"""In-memory representation of a WebAssembly 1.0 module.

Everything is immutable: the debloater builds rewritten modules by
constructing fresh instances, never by mutating decoded ones. Instruction
bodies are tuples of ``Instruction``; block-structured instructions nest
their bodies inside the ``args`` tuple, so a function body is a tree.

No pass walks that tree by recursion. ``flat(body)`` yields a body in
the binary format's order: a ``block``, ``loop`` or ``if`` (as it is in
the tree), its contents, the ``ELSE`` marker before a non-empty else
arm, then the ``END`` marker; the body's own final ``end`` is not
yielded. ``nest`` rebuilds the tree from that order with an explicit
stack, so ``nest(flat(b)) == b`` and a rewrite is ``nest(f(i) for i in
flat(b))``.

Index spaces follow the binary format: imports come first, then the
module's own definitions. ``Module.func_type_of`` resolves a combined
function index to its signature regardless of which side it lives on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _replace
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Union

from . import opcodes as op

__all__ = [
    "FuncType",
    "Limits",
    "TableType",
    "MemType",
    "GlobalType",
    "Import",
    "Export",
    "Global",
    "ElementSegment",
    "DataSegment",
    "Function",
    "Instruction",
    "Module",
    "PAGE_SIZE",
    "ELSE",
    "END",
    "flat",
    "nest",
]

PAGE_SIZE = 65536


@dataclass(frozen=True)
class FuncType:
    params: tuple[str, ...]
    results: tuple[str, ...]

    def __str__(self) -> str:
        p = ", ".join(self.params)
        r = ", ".join(self.results)
        return f"({p}) -> ({r})"


@dataclass(frozen=True)
class Limits:
    minimum: int
    maximum: int | None = None


@dataclass(frozen=True)
class TableType:
    limits: Limits
    # MVP: funcref is the only element type


@dataclass(frozen=True)
class MemType:
    limits: Limits


@dataclass(frozen=True)
class GlobalType:
    valtype: str
    mutable: bool


@dataclass(frozen=True)
class Import:
    module: str
    name: str
    kind: str  # 'func' | 'table' | 'memory' | 'global'
    # typeidx for functions, the respective *Type otherwise
    desc: Union[int, TableType, MemType, GlobalType]


@dataclass(frozen=True)
class Export:
    name: str
    kind: str  # 'func' | 'table' | 'memory' | 'global'
    index: int


class Instruction(NamedTuple):
    """One instruction: a tuple, so it compares equal to ``(opcode, args)``."""

    opcode: int
    # immediate layout depends on the opcode; block/loop carry
    # (blocktype, body), if carries (blocktype, then_body, else_body),
    # br_table carries (labels_tuple, default). Float consts are stored
    # as raw bit patterns so round-trips never touch Python float.
    args: tuple = ()


Expr = tuple[Instruction, ...]

# the markers flat() puts between and after the arms of a construct
ELSE = Instruction(op.ELSE)
END = Instruction(op.END)
_STRUCTURED = frozenset((op.BLOCK, op.LOOP, op.IF))


def flat(body: Expr) -> Iterator[Instruction]:
    """The instructions of ``body`` in binary order, markers included."""
    # the iterators of the arms entered and not yet finished, innermost last
    todo = [iter(body)]
    while todo:
        for instr in todo[-1]:
            yield instr
            if instr.opcode in _STRUCTURED:
                args = instr.args
                if instr.opcode == op.IF and args[2]:
                    todo.append(chain(args[1], (ELSE,), args[2], (END,)))
                else:
                    todo.append(chain(args[1], (END,)))
                break
        else:
            todo.pop()


def close_block(open_: list[tuple[int, tuple, list]], body: list) -> list:
    """Finish the innermost open construct with ``body`` as its last arm,
    add it to the enclosing list and return that list."""
    code, args, outer = open_.pop()
    args += (tuple(body),)
    if code == op.IF and len(args) == 2:
        args += ((),)  # no else arm
    outer.append(Instruction(code, args))
    return outer


def nest(instrs: Iterable[Instruction]) -> Expr:
    """Rebuild a body from its ``flat`` order: a construct takes only its
    opcode and block type from its header, its arms from what follows."""
    out: list[Instruction] = []
    # per open construct: opcode, its args so far (the block type, then any
    # finished arm), and the enclosing list
    open_: list[tuple[int, tuple, list]] = []
    for instr in instrs:
        code = instr.opcode
        if code in _STRUCTURED:
            open_.append((code, instr.args[:1], out))
            out = []
        elif code == op.END:
            out = close_block(open_, out)
        elif code == op.ELSE:
            code, args, outer = open_[-1]
            open_[-1] = (code, args + (tuple(out),), outer)
            out = []
        else:
            out.append(instr)
    return tuple(out)


@dataclass(frozen=True)
class Global:
    type: GlobalType
    init: Expr


@dataclass(frozen=True)
class ElementSegment:
    table_index: int
    offset: Expr
    func_indices: tuple[int, ...]


@dataclass(frozen=True)
class DataSegment:
    memory_index: int
    offset: Expr
    data: bytes


@dataclass(frozen=True)
class Function:
    type_index: int
    locals: tuple[str, ...]  # expanded, one entry per local
    body: Expr


@dataclass(frozen=True)
class Module:
    types: tuple[FuncType, ...] = ()
    imports: tuple[Import, ...] = ()
    functions: tuple[Function, ...] = ()
    tables: tuple[TableType, ...] = ()
    memories: tuple[MemType, ...] = ()
    globals: tuple[Global, ...] = ()
    exports: tuple[Export, ...] = ()
    start: int | None = None
    elements: tuple[ElementSegment, ...] = ()
    data: tuple[DataSegment, ...] = ()
    # non-name custom sections survive decode/encode untouched
    custom_sections: tuple[tuple[str, bytes], ...] = ()

    def imported(self, kind: str) -> tuple[Import, ...]:
        return tuple(imp for imp in self.imports if imp.kind == kind)

    # cached: calls and type lookups ask for these on every function index
    @cached_property
    def func_imports(self) -> tuple[Import, ...]:
        return self.imported("func")

    @cached_property
    def num_func_imports(self) -> int:
        return len(self.func_imports)

    @property
    def num_funcs(self) -> int:
        return self.num_func_imports + len(self.functions)

    def func_type_index(self, index: int) -> int:
        """Type index of the function at a combined index."""
        n = self.num_func_imports
        if index < n:
            desc = self.func_imports[index].desc
            assert isinstance(desc, int)
            return desc
        return self.functions[index - n].type_index

    def func_type_of(self, index: int) -> FuncType:
        return self.types[self.func_type_index(index)]

    def global_type(self, index: int) -> GlobalType:
        imps = self.imported("global")
        if index < len(imps):
            desc = imps[index].desc
            assert isinstance(desc, GlobalType)
            return desc
        return self.globals[index - len(imps)].type

    @property
    def num_globals(self) -> int:
        return len(self.imported("global")) + len(self.globals)

    @property
    def num_tables(self) -> int:
        return len(self.imported("table")) + len(self.tables)

    @property
    def num_memories(self) -> int:
        return len(self.imported("memory")) + len(self.memories)

    def with_(self, **changes) -> "Module":
        return _replace(self, **changes)
