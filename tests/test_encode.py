"""Binary encoding: exact bytes, determinism, round trips."""

import dataclasses
import random

import pytest

import fixturelib as fx
import modulegen
from fixturelib import ins
from wasmdebloat import decode, encode, validate_module
from wasmdebloat import opcodes as op
from wasmdebloat.errors import EncodeError
from wasmdebloat.validate import ValidationReport
from wasmdebloat.module import (
    ELSE,
    END,
    Export,
    FuncType,
    Function,
    Global,
    GlobalType,
    Instruction,
    Module,
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


def test_decoded_bodies_are_balanced_binary_order():
    modules = [(name, m) for name, m, _ in fx.PAIRS]
    modules += [(f"seed {seed}", modulegen.generate_pair(seed)[0]) for seed in range(200)]
    for name, m in modules:
        for fn in decode(encode(m)).functions:
            # per open construct: is it an if in its then arm
            then_arm = []
            prev = None
            for instr in fn.body:
                if instr == END:
                    assert then_arm, name
                    assert prev != ELSE, name  # an empty else arm is not stored
                    then_arm.pop()
                elif instr == ELSE:
                    assert then_arm and then_arm[-1], name
                    then_arm[-1] = False
                elif instr.opcode in (op.BLOCK, op.LOOP, op.IF):
                    assert len(instr.args) == 1, name
                    then_arm.append(instr.opcode == op.IF)
                prev = instr
            assert not then_arm, name


def _one_body_bytes(body_hex):
    """A module with one function (i32) -> () whose body, less its final
    end, is ``body_hex``."""
    body = bytes.fromhex("00" + body_hex + "0b")  # no locals
    return (
        bytes.fromhex("0061736d01000000 0105016001 7f00 03020100")
        + bytes((op.SEC_CODE, len(body) + 2, 1, len(body)))
        + body
    )


@pytest.mark.parametrize(
    "body_hex, expected, again_hex",
    [
        # an if with an empty else arm: the ELSE is not stored or written
        ("41010440 01 050b", ["i32.const", "if", "nop", END], "41010440 010b"),
        ("41010440 010b", ["i32.const", "if", "nop", END], None),
        # an empty else arm inside the then arm of an if with an else
        (
            "20000440 20000440 01050b 05 01 0b",
            ["local.get", "if", "local.get", "if", "nop", END, ELSE, "nop", END],
            "20000440 20000440 010b 05 01 0b",
        ),
        # an if/else inside a loop
        (
            "037f 2000 047f 4101 05 4102 0b 0b 1a",
            ["loop", "local.get", "if", "i32.const", ELSE, "i32.const", END, END, "drop"],
            None,
        ),
        # a br_table inside nested blocks
        (
            "0240 0240 2000 0e02000101 0b 0b",
            ["block", "block", "local.get", "br_table", END, END],
            None,
        ),
    ],
    ids=["if-empty-else", "if-no-else", "empty-else-in-then-arm", "if-else-in-loop", "br_table-in-blocks"],
)
def test_decode_keeps_binary_order(body_hex, expected, again_hex):
    data = _one_body_bytes(body_hex)
    body = decode(data).functions[0].body
    assert [
        i if i in (ELSE, END) else op.OPS[i.opcode].name for i in body
    ] == expected
    again = data if again_hex is None else _one_body_bytes(again_hex)
    assert encode(decode(data)) == again


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
    m = dataclasses.replace(fx.memory_data_module(), custom_sections=(("z", b"1"),))
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
        Instruction(op.IF, (None,)),
        ins("nop"),
        END,
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


def test_a_body_that_cannot_be_encoded_is_one_validation_error():
    def module(*body):
        return Module(types=(FuncType((), ()),), functions=(Function(0, (), body),))

    too_wide = module(ins("i32.const", 2**40), ins("drop"))
    unknown = module(Instruction(0xFC))
    assert validate_module(too_wide).errors == (("func[0]", "s32 out of range: 1099511627776"),)
    assert validate_module(unknown).errors == (("func[0]", "unknown opcode 0xfc"),)
    with pytest.raises(EncodeError, match="unknown opcode 0xfc"):
        encode(unknown)


@pytest.mark.parametrize(
    "where, instr",
    [
        ("func", ins("block", "v128")),
        ("func", ins("f32.const", -1)),
        ("func", ins("f64.const", 2**64)),
        ("func", ins("i32.const")),
        ("func", ins("i32.const", "x")),
        ("func", ins("call", "0")),
        ("func", ins("local.get", None)),
        ("func", ins("br_table", 0, 0)),
        ("func", ins("i32.load", 2)),
        ("global", ins("global.get")),
        ("global", ins("global.get", "x")),
    ],
)
def test_an_immediate_of_the_wrong_shape_is_one_validation_error(where, instr):
    if where == "func":
        m = Module(types=(FuncType((), ()),), functions=(Function(0, (), (instr,)),))
        loc = "func[0]"
    else:
        m = Module(globals=(Global(GlobalType("i32", False), (instr,)),))
        loc = "global[0]"
    name = op.OPS[instr.opcode].name
    assert validate_module(m).errors == ((loc, f"{name}: malformed immediate {instr.args!r}"),)
    with pytest.raises(EncodeError, match=f"^{name}: "):
        encode(m)


@pytest.mark.parametrize(
    "params, locals_, loc",
    [(("v128",), (), "type[0]"), (("i32", "funcref"), (), "type[0]"), ((), ("i32", "v128"), "func[0]")],
)
def test_a_type_not_in_webassembly_1_0_is_one_validation_error(params, locals_, loc):
    m = Module(types=(FuncType(params, ()),), functions=(Function(0, locals_, ()),))
    bad = params[-1] if params else locals_[-1]
    message = f"not a WebAssembly 1.0 value type: {bad!r}"
    assert validate_module(m).errors == ((loc, message),)
    with pytest.raises(EncodeError, match=f"value type: {bad!r}"):
        encode(m)


def test_block_round_trips_structured():
    m = fx.nested_blocks_module()
    again = decode(encode(m))
    assert again.functions[0].body == m.functions[0].body


def test_name_and_junk_customs_round_trip():
    m = fx.custom_name_module()
    again = decode(encode(m))
    assert again.custom_sections == m.custom_sections


# values of the wrong type or out of range for the fields of a module
WRONG_VALUES = ("0", None, -1, 1.5, 2**40, b"x", (), "fn", True)
CORRUPTIONS = 3000


def _paths(value, path=()):
    """The path to every part below ``value``: each field of a dataclass,
    by name, and each item of a tuple, by index."""
    if dataclasses.is_dataclass(value):
        parts = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    elif isinstance(value, tuple):
        parts = list(enumerate(value))
    else:
        return
    for key, part in parts:
        yield path + (key,)
        yield from _paths(part, path + (key,))


def _replace_at(value, path, new):
    """``value`` with the part at ``path`` replaced by ``new``."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(key, str):
        return dataclasses.replace(value, **{key: _replace_at(getattr(value, key), rest, new)})
    items = list(value)
    items[key] = _replace_at(items[key], rest, new)
    return type(value)(*items) if isinstance(value, Instruction) else tuple(items)


def test_a_module_with_one_field_of_the_wrong_type_is_refused_or_encoded():
    # a field of a fixture replaced by a wrong value: validate_module
    # reports on it, and encode either refuses it at a location, which is
    # the report's one error, or writes bytes that decode
    cases = [(m, list(_paths(m))) for _, m in fx.ROUND_TRIP_MODULES]
    rng = random.Random(20190)
    refused = 0
    for _ in range(CORRUPTIONS):
        m, paths = rng.choice(cases)
        path, value = rng.choice(paths), rng.choice(WRONG_VALUES)
        bad = _replace_at(m, path, value)
        try:
            report = validate_module(bad)
            try:
                data = encode(bad)
            except EncodeError as e:
                assert e.location and report.errors == ((e.location, str(e)),)
                refused += 1
            else:
                decode(data)
        except Exception as e:
            raise AssertionError(f"{path} = {value!r}: {type(e).__name__}: {e}") from e
        assert isinstance(report, ValidationReport)
    assert 0 < refused < CORRUPTIONS
