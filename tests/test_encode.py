"""Binary encoding: exact bytes, determinism, round trips."""

import pytest

import fixturelib as fx
import modulegen
from fixturelib import ins
from wasmdebloat import decode, encode
from wasmdebloat import opcodes as op
from wasmdebloat.errors import EncodeError
from wasmdebloat.module import (
    ELSE,
    END,
    Export,
    FuncType,
    Function,
    Instruction,
    Module,
    flat,
    nest,
)


def test_empty_module_exact_bytes():
    assert encode(Module()) == fx.EMPTY_BYTES


def test_add_module_exact_bytes():
    assert encode(fx.add_module()) == fx.ADD_BYTES


def test_unreachable_body_code_entry():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("unreachable"),)),),
        exports=(Export("boom", "func", 0),),
    )
    data = encode(m)
    assert data == fx.UNREACHABLE_EXPORT_BYTES
    # code entry is exactly: size 3, zero local groups, 0x00, 0x0B
    assert data.endswith(bytes.fromhex("0a05010300000b"))


def test_round_trip_all_module_fixtures():
    for name, m in fx.ROUND_TRIP_MODULES:
        assert decode(encode(m)) == m, name


def test_round_trip_byte_fixtures():
    for name, data in fx.BYTE_FIXTURES:
        again = encode(decode(data))
        if name == "padded-add":
            # non-minimal lengths decode fine but re-encode minimally
            assert again == fx.ADD_BYTES
        else:
            assert again == data, name


def test_nest_inverts_flat():
    bodies = [(name, fn.body) for name, m, _ in fx.PAIRS for fn in m.functions]
    for seed in range(200):
        m, _ = modulegen.generate_pair(seed)
        bodies += [(f"seed {seed}", fn.body) for fn in m.functions]
    for name, body in bodies:
        assert nest(flat(body)) == body, name


def _block(bt, *body):
    return Instruction(op.BLOCK, (bt, body))


def _loop(bt, *body):
    return Instruction(op.LOOP, (bt, body))


def _if(bt, then, else_=()):
    return Instruction(op.IF, (bt, then, else_))


@pytest.mark.parametrize(
    "body, expected",
    [
        # an if with an empty else arm writes no ELSE marker
        (
            (ins("i32.const", 1), _if(None, (ins("nop"),))),
            ["i32.const", "if", "nop", END],
        ),
        # an if/else inside a loop
        (
            (
                _loop(
                    "i32",
                    ins("local.get", 0),
                    _if("i32", (ins("i32.const", 1),), (ins("i32.const", 2),)),
                ),
                ins("drop"),
            ),
            ["loop", "local.get", "if", "i32.const", ELSE, "i32.const", END, END, "drop"],
        ),
        # a br_table inside nested blocks
        (
            (_block(None, _block(None, ins("local.get", 0), ins("br_table", (0, 1), 1))),),
            ["block", "block", "local.get", "br_table", END, END],
        ),
    ],
    ids=["if-empty-else", "if-else-in-loop", "br_table-in-blocks"],
)
def test_flat_order_and_nest(body, expected):
    seq = list(flat(body))
    assert [
        i if i in (ELSE, END) else op.OPS[i.opcode].name for i in seq
    ] == expected
    assert nest(seq) == body
    # the binary format has the same order
    m = Module(
        types=(FuncType(("i32",), ()),),
        functions=(Function(0, (), body),),
    )
    assert decode(encode(m)) == m


def test_encoding_is_deterministic():
    for name, m in fx.ROUND_TRIP_MODULES:
        once = encode(m)
        assert encode(m) == once, name
        assert encode(decode(once)) == once, name


def test_empty_sections_omitted():
    # a module with only functions must emit exactly four sections
    data = encode(fx.add_module())
    section_ids = []
    pos = 8
    while pos < len(data):
        section_ids.append(data[pos])
        size = 0
        shift = 0
        pos += 1
        while True:
            b = data[pos]
            pos += 1
            size |= (b & 0x7F) << shift
            shift += 7
            if not b & 0x80:
                break
        pos += size
    assert section_ids == [op.SEC_TYPE, op.SEC_FUNCTION, op.SEC_EXPORT, op.SEC_CODE]


def test_custom_sections_emitted_after_data():
    m = fx.memory_data_module().with_(custom_sections=(("z", b"1"),))
    data = encode(m)
    assert data.endswith(bytes.fromhex("0003017a31"))
    assert decode(data) == m


def test_local_run_length_grouping():
    data = encode(fx.many_locals_module())
    # locals (i32 i32 i64 i32 f32) group as 2xi32, 1xi64, 1xi32, 1xf32
    assert bytes.fromhex("04027f017e017f017d") in data
    assert decode(data) == fx.many_locals_module()


def test_minimal_leb_for_large_values():
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), (ins("i32.const", -(2 ** 31)),)),),
    )
    data = encode(m)
    assert decode(data) == m
    m64 = Module(
        types=(FuncType((), ("i64",)),),
        functions=(Function(0, (), (ins("i64.const", 2 ** 63 - 1),)),),
    )
    assert decode(encode(m64)) == m64


def test_if_without_else_omits_else_opcode():
    body = (
        ins("local.get", 0),
        Instruction(op.IF, (None, (ins("nop"),), ())),
    )
    m = Module(
        types=(FuncType(("i32",), ()),),
        functions=(Function(0, (), body),),
    )
    data = encode(m)
    # body encodes as local.get 0, if, empty blocktype, nop, end, end
    assert bytes.fromhex("200004400 10b0b".replace(" ", "")) in data
    assert decode(data) == m


def test_index_out_of_u32_range_rejected():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("call", 2 ** 32),)),),
    )
    with pytest.raises(EncodeError):
        encode(m)


def test_block_round_trips_structured():
    m = fx.nested_blocks_module()
    again = decode(encode(m))
    assert again.functions[0].body == m.functions[0].body


def test_name_and_junk_customs_round_trip():
    m = fx.custom_name_module()
    again = decode(encode(m))
    assert again.custom_sections == m.custom_sections
