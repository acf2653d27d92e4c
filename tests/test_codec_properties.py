"""Round-trip properties of the codec, on generated modules.

The strategy builds structurally varied ``Module``s: every section
present or absent, empty vectors inside items, all four import kinds,
limits with and without a maximum, ``start = 0``, element segments with
no functions, empty data payloads, non-ASCII names and custom sections.
Bodies are balanced and drawn from a small instruction alphabet that
covers every immediate kind. An if's empty else arm is left out, as
decoding drops it. The modules need not validate: the codec checks
structure only.

Examples are derandomized, so the test is deterministic.
"""

from hypothesis import Phase, given, settings, strategies as st

from fixturelib import block, if_, ins, loop
from wasmdebloat import decode, encode
from wasmdebloat import opcodes as op
from wasmdebloat.module import (
    DataSegment,
    ElementSegment,
    Export,
    FuncType,
    Function,
    Global,
    GlobalType,
    Import,
    Instruction,
    Limits,
    Module,
)

U32 = st.integers(0, 2**32 - 1)
VALTYPES = st.sampled_from(("i32", "i64", "f32", "f64"))
BLOCK_TYPES = st.none() | VALTYPES
NAMES = st.text(st.characters(codec="utf-8"), max_size=4)
LIMITS = st.builds(Limits, U32, st.none() | U32)
KINDS = st.sampled_from(("func", "table", "memory", "global"))
# the values at the one- and two-byte bounds of signed LEB128, which
# decoding reads on different paths
SMALL = st.sampled_from((-8193, -8192, -65, -64, -1, 0, 63, 64, 8191, 8192))


def _tuples(elements, max_size=3):
    return st.lists(elements, max_size=max_size).map(tuple)


def _imm(name, *immediates):
    return st.tuples(*immediates).map(lambda args: ins(name, *args))


def _bits(code, width):
    return st.integers(0, 2**width - 1).map(lambda v: Instruction(code, (v,)))


# one instruction of each immediate kind but block, plus some bare ones
INSTRUCTIONS = st.one_of(
    st.sampled_from([ins(n) for n in ("nop", "drop", "i32.add", "return")]),
    st.sampled_from([ins("memory.size"), ins("memory.grow")]),
    _imm("i32.const", st.integers(-(2**31), 2**31 - 1) | SMALL),
    _imm("i64.const", st.integers(-(2**63), 2**63 - 1) | SMALL),
    _bits(op.F32_CONST, 32),
    _bits(op.F64_CONST, 64),
    _imm("local.get", U32),
    _imm("call", U32),
    _imm("call_indirect", U32),
    _imm("i64.store8", U32, U32),
    _imm("br_table", _tuples(U32), U32),
)


def _constructs(bodies):
    """Sequences of instructions and block, loop and if constructs whose
    contents are ``bodies``."""
    constructs = st.one_of(
        INSTRUCTIONS.map(lambda i: (i,)),
        st.builds(lambda bt, body: block(bt, *body), BLOCK_TYPES, bodies),
        st.builds(lambda bt, body: loop(bt, *body), BLOCK_TYPES, bodies),
        st.builds(if_, BLOCK_TYPES, bodies, bodies),
    )
    return st.lists(constructs, max_size=3).map(lambda parts: sum(parts, ()))


# constructs nest up to three deep
BODIES = _constructs(_constructs(_constructs(_tuples(INSTRUCTIONS, 2))))
# a constant expression need not be constant for the codec
EXPRS = _tuples(INSTRUCTIONS, max_size=2)

IMPORT_DESCS = {
    "func": U32,
    "table": LIMITS,
    "memory": LIMITS,
    "global": st.builds(GlobalType, VALTYPES, st.booleans()),
}
IMPORTS = KINDS.flatmap(
    lambda kind: st.builds(Import, NAMES, NAMES, st.just(kind), IMPORT_DESCS[kind])
)

MODULES = st.builds(
    Module,
    types=_tuples(st.builds(FuncType, _tuples(VALTYPES), _tuples(VALTYPES, 1))),
    imports=_tuples(IMPORTS),
    functions=_tuples(st.builds(Function, U32, _tuples(VALTYPES, 5), BODIES)),
    tables=_tuples(LIMITS, 2),
    memories=_tuples(LIMITS, 2),
    globals=_tuples(st.builds(Global, IMPORT_DESCS["global"], EXPRS)),
    exports=_tuples(st.builds(Export, NAMES, KINDS, U32)),
    start=st.none() | st.just(0) | U32,
    elements=_tuples(st.builds(ElementSegment, U32, EXPRS, _tuples(U32))),
    data=_tuples(st.builds(DataSegment, U32, EXPRS, st.binary(max_size=4))),
    custom_sections=_tuples(st.tuples(NAMES, st.binary(max_size=4)), 2),
)


# no shrink phase: shrinking these nested modules can take minutes, so a
# failure reports the module as generated
@settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    phases=(Phase.explicit, Phase.generate),
)
@given(MODULES)
def test_encode_then_decode_round_trips(m):
    data = encode(m)
    assert decode(data) == m
    assert encode(decode(data)) == data
