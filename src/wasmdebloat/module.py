"""In-memory representation of a WebAssembly 1.0 module.

Everything is immutable: the debloater builds rewritten modules by
constructing fresh instances, never by mutating decoded ones.

A function body or constant expression (``Expr``) is a tuple of
``Instruction`` in the binary format's order. A ``block``, ``loop`` or
``if`` header carries only its block type; the construct's contents
follow it, the ``ELSE`` marker precedes a non-empty else arm, and the
``END`` marker closes the construct. The expression's own final ``end``
is not stored. Every pass walks a body with a plain ``for`` loop and
keeps its own control stack where it needs one; a rewrite that maps
instructions one to one is ``tuple(f(i) for i in body)``. A decoded
function keeps its validated bytes and builds its body on first read.

Index spaces follow the binary format: imports come first, then the
module's own definitions. ``Module`` builds each combined index space
once, on first use, and writes the imports-first rule only there:
``func_type_indices`` holds every function's type index and
``global_types`` every global's type, and ``num_tables`` and
``num_memories`` count both sides. ``Module.func_type_of`` resolves a
combined function index to its signature.

A table or memory is its ``Limits``, and so is the ``desc`` of a table
or memory import; a function import's ``desc`` is its type index and a
global import's its ``GlobalType``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

from . import opcodes as op

__all__ = [
    "FuncType",
    "Limits",
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
    "MAX_PAGES",
    "ELSE",
    "END",
]

PAGE_SIZE = 65536
# the most pages a 32-bit memory can address (4 GiB)
MAX_PAGES = 65536


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
class GlobalType:
    valtype: str
    mutable: bool


@dataclass(frozen=True)
class Import:
    module: str
    name: str
    kind: str  # 'func' | 'table' | 'memory' | 'global'
    desc: Union[int, Limits, GlobalType]


@dataclass(frozen=True)
class Export:
    name: str
    kind: str  # 'func' | 'table' | 'memory' | 'global'
    index: int


class Instruction(NamedTuple):
    """One instruction: a tuple, so it compares equal to ``(opcode, args)``."""

    opcode: int
    # immediate layout depends on the opcode; block/loop/if carry
    # (blocktype,), br_table carries (labels_tuple, default). Float consts
    # are stored as raw bit patterns so round-trips never touch Python
    # float.
    args: tuple = ()


Expr = tuple[Instruction, ...]

# the markers that close a construct's then arm and the construct itself
ELSE = Instruction(op.ELSE)
END = Instruction(op.END)


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


class _BodyOnFirstRead:
    """``Function.body`` of a decoded function: the first read builds it
    with the reader ``decode`` left and keeps it. A body given at
    construction shadows this descriptor, which has no ``__set__``."""

    def __get__(self, fn, owner=None):
        if fn is None:
            raise AttributeError("body")  # so dataclass sees no default
        body = fn.__dict__["body"] = fn.__dict__["_read_body"]()
        return body


@dataclass(frozen=True)
class Function:
    type_index: int
    locals: tuple[str, ...]  # expanded, one entry per local
    body: Expr = _BodyOnFirstRead()

    @classmethod
    def decoded(cls, type_index: int, locals_: tuple[str, ...], read_body) -> Function:
        """A function whose body ``read_body()`` builds on first read."""
        fn = object.__new__(cls)
        fn.__dict__.update(type_index=type_index, locals=locals_, _read_body=read_body)
        return fn


@dataclass(frozen=True)
class Module:
    types: tuple[FuncType, ...] = ()
    imports: tuple[Import, ...] = ()
    functions: tuple[Function, ...] = ()
    # MVP: funcref is the only element type
    tables: tuple[Limits, ...] = ()
    memories: tuple[Limits, ...] = ()
    globals: tuple[Global, ...] = ()
    exports: tuple[Export, ...] = ()
    start: int | None = None
    elements: tuple[ElementSegment, ...] = ()
    data: tuple[DataSegment, ...] = ()
    # non-name custom sections survive decode/encode untouched
    custom_sections: tuple[tuple[str, bytes], ...] = ()

    # not a field: set only on a module decode returns, so that any other,
    # from dataclasses.replace too, has no body errors recorded
    body_errors = None

    # cached: validation and the interpreter index these per instruction
    @cached_property
    def func_type_indices(self) -> tuple[int, ...]:
        """The type index of every function, by combined index."""
        imports = tuple(imp.desc for imp in self.imports if imp.kind == "func")
        return imports + tuple(fn.type_index for fn in self.functions)

    @cached_property
    def global_types(self) -> tuple[GlobalType, ...]:
        """The type of every global, by combined index."""
        imports = tuple(imp.desc for imp in self.imports if imp.kind == "global")
        return imports + tuple(g.type for g in self.globals)

    @cached_property
    def num_tables(self) -> int:
        return sum(imp.kind == "table" for imp in self.imports) + len(self.tables)

    @cached_property
    def num_memories(self) -> int:
        return sum(imp.kind == "memory" for imp in self.imports) + len(self.memories)

    @property
    def num_funcs(self) -> int:
        return len(self.func_type_indices)

    @property
    def num_func_imports(self) -> int:
        return self.num_funcs - len(self.functions)

    def func_type_of(self, index: int) -> FuncType:
        return self.types[self.func_type_indices[index]]
