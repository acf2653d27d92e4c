"""Binary decoding: structure, LEB128 edge cases, malformed inputs."""

import pytest

import fixturelib as fx
from wasmdebloat import decode, section_sizes, validate_module
from wasmdebloat.decode import MAX_NESTING
from wasmdebloat import opcodes as op
from wasmdebloat.errors import MalformedBinary
from wasmdebloat.module import END, Export, FuncType, Instruction

HEADER = "0061736d01000000"


def hx(*parts):
    return bytes.fromhex("".join(parts))


def expect_malformed(data, offset, reason):
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.offset == offset
    assert exc.value.reason == reason


def test_empty_module():
    m = decode(fx.EMPTY_BYTES)
    assert m.types == () and m.functions == () and m.exports == ()
    assert m.start is None and m.custom_sections == ()


def test_add_module_contents():
    m = decode(fx.ADD_BYTES)
    assert m.types == (FuncType(("i32", "i32"), ("i32",)),)
    assert len(m.functions) == 1
    assert m.functions[0].type_index == 0
    assert m.functions[0].locals == ()
    assert m.functions[0].body == (
        Instruction(op.LOCAL_GET, (0,)),
        Instruction(op.LOCAL_GET, (1,)),
        Instruction(op.NAME_TO_OPCODE["i32.add"]),
    )
    assert m.exports == (Export("add", "func", 0),)


def test_bad_magic():
    expect_malformed(b"\x00asl\x01\x00\x00\x00", 0, "bad magic")
    expect_malformed(b"", 0, "unexpected end of input")
    expect_malformed(b"\x00as", 0, "unexpected end of input")


def test_bad_version():
    expect_malformed(hx("0061736d02000000"), 4, "unsupported version")


def test_padded_section_size_accepted():
    m = decode(fx.PADDED_ADD_BYTES)
    assert m == decode(fx.ADD_BYTES)


def test_padded_const_immediates_accepted():
    # i32.const 5 as 41 85 00 and i32.const -1 as 41 ff 7f
    data = hx(HEADER, "0105016000017f", "03020100", "0a070105004185000b")
    m = decode(data)
    assert m.functions[0].body == (Instruction(op.I32_CONST, (5,)),)
    data = hx(HEADER, "0105016000017f", "03020100", "0a0701050041ff7f0b")
    m = decode(data)
    assert m.functions[0].body == (Instruction(op.I32_CONST, (-1,)),)


def test_integer_representation_too_long():
    # u32 section size with a continuation bit on its fifth byte
    data = hx(HEADER, "01", "ffffffffff", "00")
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "integer representation too long"


def test_integer_too_large():
    # five-byte u32 encoding 2**32
    data = hx(HEADER, "01", "8080808010", "00")
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "integer too large"


def test_section_out_of_order():
    # function section before type section
    data = hx(HEADER, "03020100", "0104016000 00".replace(" ", ""))
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "section out of order"


def test_duplicate_section_rejected():
    data = hx(HEADER, "010401600000", "010401600000")
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "section out of order"


def test_custom_sections_allowed_anywhere():
    data = hx(
        HEADER,
        "0003016100",  # custom "a"
        "010401600000",
        "0003016200",  # custom "b"
        "03020100",
        "0a05010300000b",
        "0003016300",  # custom "c"
    )
    m = decode(data)
    assert [name for name, _ in m.custom_sections] == ["a", "b", "c"]
    assert len(m.functions) == 1


def test_unknown_section_id():
    data = hx(HEADER, "0c0100")
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "unknown section id 12"


def test_section_size_mismatch():
    # type section claims 5 bytes but a single empty functype takes 4
    data = hx(HEADER, "010501600000", "00")
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "section size mismatch in type section"


def test_section_extends_past_end():
    data = hx(HEADER, "017f")
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "section extends past end of input"


def test_function_code_counts_disagree():
    data = hx(HEADER, "010401600000", "03020100")
    expect_malformed(data, len(data), "function and code section counts disagree")


def test_function_body_size_mismatch():
    # entry declares 6 bytes; the body's end opcode arrives after 4
    data = hx(HEADER, "0105016000017f", "03020100", "0a080106 0041050b0000".replace(" ", ""))
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "function body size mismatch"


def test_too_many_locals():
    # one local group declaring 1_000_001 i32 locals
    data = hx(HEADER, "010401600000", "03020100", "0a08010601c1843d7f0b")
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "too many locals"


def test_too_many_locals_over_all_bodies():
    # 21 bodies of 50_000 i32 locals each: under the per-function cap one by
    # one, over MAX_LOCALS together; the last body's count (at offset 184)
    # is refused
    body = "0601d086037f0b"
    data = hx(HEADER, "010401600000", "0316", "15" + "00" * 21, "0a9401", "15", body * 21)
    expect_malformed(data, 184, "too many locals")


@pytest.mark.parametrize("params, counts, offset", fx.LOCALS_CAP_CASES)
def test_too_many_locals_in_one_function(params, counts, offset):
    data = fx.many_locals_bytes(params, *counts)
    if offset is None:
        assert len(decode(data).functions[0].locals) == sum(counts)
    else:
        expect_malformed(data, offset, "too many locals")


@pytest.mark.parametrize("make, n, offset, reason", fx.V8_CAP_CASES)
def test_v8_caps_on_parameters_and_br_table_targets(make, n, offset, reason):
    data = make(n)
    if offset is None:
        assert validate_module(decode(data)).ok
    else:
        expect_malformed(data, offset, reason)


def test_malformed_utf8_name():
    data = hx(HEADER, "07050101ff0000")
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "malformed UTF-8 name"


def test_call_indirect_reserved_byte():
    data = hx(HEADER, "0105016000017f", "03020100", "0a0901070041001100010b")
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "zero byte expected after call_indirect"


def test_memory_size_reserved_byte():
    data = hx(HEADER, "0105016000017f", "03020100", "0a0601040 03f010b".replace(" ", ""))
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "zero byte expected (memory index)"


def test_else_outside_if():
    bodies = (
        "00050b",  # at function level
        "004100044005050b0b",  # a second else in one if
        "00410004400240050b0b0b",  # in a block inside an if's then arm
    )
    for body in bodies:
        code = f"01{len(body) // 2:02x}{body}"
        data = hx(HEADER, "010401600000", "03020100", f"0a{len(code) // 2:02x}{code}")
        with pytest.raises(MalformedBinary) as exc:
            decode(data)
        assert exc.value.reason == "else outside if", body


def test_invalid_value_type():
    data = hx(HEADER, "010501600199 00".replace(" ", ""))
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "invalid value type 0x99"


def test_not_a_functype():
    data = hx(HEADER, "010401590000")
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "expected functype (0x60)"


def test_unknown_opcode():
    data = hx(HEADER, "010401600000", "03020100", "0a050103 00f90b".replace(" ", ""))
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "unknown opcode 0xf9"


def test_invalid_export_kind():
    data = hx(HEADER, "0705010161 0400".replace(" ", ""))
    with pytest.raises(MalformedBinary) as exc:
        decode(data)
    assert exc.value.reason == "invalid export kind 0x04"


def test_truncated_input():
    with pytest.raises(MalformedBinary) as exc:
        decode(hx(HEADER, "01"))
    assert exc.value.reason == "unexpected end of input"


def test_custom_section_payload_kept():
    m = decode(fx.CUSTOM_ONLY_BYTES)
    assert m.custom_sections == (("meta", b"\x01\x02"),)


def test_floats_decode_to_bit_patterns():
    # f32.const 1.5 (0x3FC00000) and f64.const -0.0 (sign bit only)
    data = hx(
        HEADER,
        "0105016000017d",
        "03020100",
        "0a0901070043 0000c03f 0b".replace(" ", ""),
    )
    m = decode(data)
    assert m.functions[0].body == (Instruction(op.F32_CONST, (0x3FC00000,)),)
    data = hx(
        HEADER,
        "0105016000017c",
        "03020100",
        "0a0d010b0044 0000000000000080 0b".replace(" ", ""),
    )
    m = decode(data)
    assert m.functions[0].body == (Instruction(op.F64_CONST, (0x8000000000000000,)),)


def test_section_sizes_accounts_for_every_byte():
    sizes = section_sizes(fx.ADD_BYTES)
    assert sizes == {
        op.SEC_TYPE: 9,
        op.SEC_FUNCTION: 4,
        op.SEC_EXPORT: 9,
        op.SEC_CODE: 11,
    }
    assert sum(sizes.values()) + 8 == len(fx.ADD_BYTES)
    assert section_sizes(fx.EMPTY_BYTES) == {}
    assert section_sizes(fx.CUSTOM_ONLY_BYTES) == {op.SEC_CUSTOM: 9}


def test_section_sizes_aggregates_custom_sections():
    data = hx(HEADER, "0003016100", "0003016200")
    assert section_sizes(data) == {op.SEC_CUSTOM: 10}


def test_block_nesting_is_bounded():
    m = decode(fx.nested_blocks_bytes(MAX_NESTING))
    header = Instruction(op.BLOCK, (None,))
    assert m.functions[0].body == (header,) * MAX_NESTING + (END,) * MAX_NESTING
    with pytest.raises(MalformedBinary) as exc:
        decode(fx.nested_blocks_bytes(MAX_NESTING + 1))
    assert exc.value.reason == f"blocks nested deeper than {MAX_NESTING}"


def one_body(code):
    """A module whose one function () -> () has no locals and the body
    bytes ``code`` (hex); the body's first instruction is at offset 23."""
    entry = f"00{code}"
    section = f"01{len(entry) // 2:02x}{entry}"
    return hx(HEADER, "010401600000", "03020100", f"0a{len(section) // 2:02x}{section}")


def test_malformed_immediates_in_a_body():
    cases = [
        # i32.const in six bytes
        ("41808080808000" "0b", 24, "integer representation too long"),
        # i32.const in five bytes, 2**32 - 1
        ("41ffffffff0f" "0b", 24, "integer too large"),
        # i64.const in eleven bytes
        ("42" + "80" * 10 + "00" "0b", 24, "integer representation too long"),
        # local.get 2**32
        ("208080808010" "0b", 24, "integer too large"),
        # i32.load whose offset is cut off by the end of the body
        ("41002802", 27, "unexpected end of input"),
        # block with block type 0x99
        ("02990b0b", 24, "invalid block type 0x99"),
    ]
    for code, offset, reason in cases:
        expect_malformed(one_body(code), offset, reason)
    # the extreme values of the same lengths are well formed
    for code, value in [
        ("41ffffffff07", 2**31 - 1),
        ("418080808078", -(2**31)),
        ("42" + "ff" * 9 + "00", 2**63 - 1),
        ("20ffffffff0f", 2**32 - 1),
    ]:
        assert decode(one_body(code + "0b")).functions[0].body[0].args == (value,)


def test_section_item_errors():
    # each item starts at offset 11, after the section id, size and count
    cases = [
        # import "m" "f" of kind 0x04
        (hx(HEADER, "0206", "01016d016604"), 15, "invalid import kind 0x04"),
        # memory whose limits flag is 0x02
        (hx(HEADER, "0503", "010200"), 11, "invalid limits flag 0x02"),
        # i32 global whose mutability flag is 0x02
        (hx(HEADER, "0606", "017f0241000b"), 12, "invalid mutability flag 0x02"),
        # table of element type 0x6f
        (hx(HEADER, "0404", "016f0001"), 11, "invalid table element type"),
    ]
    for data, offset, reason in cases:
        expect_malformed(data, offset, reason)
