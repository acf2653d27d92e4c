"""Module validation: structural limits, index bounds, body typing."""

import pytest

import fixturelib as fx
from fixturelib import block, if_, ins
from wasmdebloat import decode, encode, validate_module
from wasmdebloat import opcodes as op
from wasmdebloat.module import (
    DataSegment,
    ELSE,
    END,
    ElementSegment,
    Export,
    FuncType,
    Function,
    Global,
    GlobalType,
    Import,
    Instruction,
    Limits,
    MemType,
    Module,
    TableType,
)


def errs(m):
    return validate_module(m).errors


def first_error(m):
    errors = errs(m)
    assert errors, "expected validation errors"
    return errors[0]


def test_all_fixtures_validate():
    for name, m in fx.ROUND_TRIP_MODULES:
        report = validate_module(m)
        assert report.ok, (name, report.errors)


def test_multiple_results_rejected():
    m = Module(types=(FuncType((), ("i32", "i32")),))
    assert first_error(m) == ("type[0]", "more than one result")


def test_at_most_one_table_and_memory():
    m = Module(tables=(TableType(Limits(1)), TableType(Limits(1))))
    assert first_error(m) == ("table", "more than one table")
    m = Module(memories=(MemType(Limits(1)), MemType(Limits(1))))
    assert first_error(m) == ("memory", "more than one memory")


def test_memory_page_limits():
    m = Module(memories=(MemType(Limits(65537)),))
    assert first_error(m) == ("memory[0]", "limits minimum 65537 exceeds 65536")
    m = Module(memories=(MemType(Limits(1, 70000)),))
    assert not validate_module(m).ok
    m = Module(memories=(MemType(Limits(65536, 65536)),))
    assert validate_module(m).ok


def test_table_minimum_limit():
    m = Module(tables=(TableType(Limits(10_000_001)),))
    assert first_error(m) == ("table[0]", "limits minimum 10000001 exceeds 10000000")
    m = Module(imports=(Import("env", "t", "table", TableType(Limits(0xFFFFFFFF))),))
    assert errs(m) == (("import[0]", "limits minimum 4294967295 exceeds 10000000"),)
    # the maximum is not capped
    m = Module(tables=(TableType(Limits(10_000_000, 0xFFFFFFFF)),))
    assert validate_module(m).ok


def test_limits_maximum_below_minimum():
    m = Module(memories=(MemType(Limits(2, 1)),))
    assert first_error(m) == ("memory[0]", "limits maximum below minimum")


def test_export_index_bounds():
    m = Module(exports=(Export("f", "func", 3),))
    assert first_error(m) == ("export[0]", "func index 3 out of bounds")
    m = Module(exports=(Export("m", "memory", 0),))
    assert first_error(m) == ("export[0]", "memory index 0 out of bounds")


def test_duplicate_export_names():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("nop"),)),),
        exports=(Export("f", "func", 0), Export("f", "func", 0)),
    )
    assert first_error(m) == ("export[1]", "duplicate export name 'f'")


def test_mutable_global_export_and_import_rejected():
    m = Module(
        globals=(Global(GlobalType("i32", True), (ins("i32.const", 0),)),),
        exports=(Export("g", "global", 0),),
    )
    assert first_error(m) == ("export[0]", "mutable global export")
    m = Module(imports=(Import("env", "g", "global", GlobalType("i32", True)),))
    assert first_error(m) == ("import[0]", "mutable global import")


def test_start_function_signature():
    m = Module(
        types=(FuncType(("i32",), ()),),
        functions=(Function(0, (), (ins("nop"),)),),
        start=0,
    )
    assert first_error(m) == ("start", "start function has signature (i32) -> ()")


def test_element_segment_checks():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("nop"),)),),
        tables=(TableType(Limits(1)),),
        elements=(ElementSegment(0, (ins("i32.const", 0),), (5,)),),
    )
    assert first_error(m) == ("element[0]", "function index 5 out of bounds")
    m = Module(elements=(ElementSegment(0, (ins("i32.const", 0),), ()),))
    assert first_error(m) == ("element[0]", "table index 0 out of bounds")


def test_data_segment_needs_memory():
    m = Module(data=(DataSegment(0, (ins("i32.const", 0),), b"x"),))
    assert first_error(m) == ("data[0]", "memory index 0 out of bounds")


def test_alignment_over_natural():
    m = Module(
        types=(FuncType((), ("i32",)),),
        memories=(MemType(Limits(1)),),
        functions=(Function(0, (), (ins("i32.const", 0), ins("i32.load", 3, 0))),),
    )
    assert first_error(m) == ("func[0]", "i32.load: alignment 2**3 over natural 4")
    # natural alignment itself is fine
    m = Module(
        types=(FuncType((), ("i32",)),),
        memories=(MemType(Limits(1)),),
        functions=(Function(0, (), (ins("i32.const", 0), ins("i32.load", 2, 0))),),
    )
    assert validate_module(m).ok


def test_memory_ops_require_memory():
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), (ins("i32.const", 0), ins("i32.load", 2, 0))),),
    )
    assert first_error(m) == ("func[0]", "i32.load: module has no memory")


def test_a_changed_decoded_module_is_checked_again():
    # decode records the body errors of the module it returns; a module
    # made from that one must not report them as its own
    load = Function(0, (), (ins("i32.const", 0), ins("i32.load", 2, 0)))
    m = decode(encode(Module(
        types=(FuncType((), ("i32",)),),
        memories=(MemType(Limits(1)),),
        functions=(load,),
    )))
    assert validate_module(m).ok
    assert errs(m.with_(memories=())) == (("func[0]", "i32.load: module has no memory"),)


def test_call_indirect_requires_table():
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), (ins("i32.const", 0), ins("call_indirect", 0))),),
    )
    assert first_error(m) == ("func[0]", "call_indirect: module has no table")


def test_operand_stack_underflow():
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), (ins("i32.add"),)),),
    )
    assert ("func[0]", "i32.add: operand stack underflow") in errs(m)


def test_result_type_mismatch_at_end():
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), (ins("i64.const", 1),)),),
    )
    assert first_error(m) == ("func[0]", "function end: expected i32, got i64")


def test_extra_values_on_stack():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("i32.const", 1),)),),
    )
    assert first_error(m) == ("func[0]", "function end: 1 extra value(s) on stack")


def test_branch_depth_out_of_range():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("br", 5),)),),
    )
    assert first_error(m) == ("func[0]", "br: label depth 5 out of range")


def test_local_index_out_of_range():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("local.get", 2), ins("drop"))),),
    )
    assert first_error(m) == ("func[0]", "local.get: local index 2 out of range")


def test_if_with_result_requires_else():
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(
            Function(
                0,
                (),
                (ins("i32.const", 1), *if_("i32", (ins("i32.const", 2),))),
            ),
        ),
    )
    assert not validate_module(m).ok


def test_br_table_label_types_must_agree():
    body = block(
        "i32",
        *block(None, ins("i32.const", 0), ins("br_table", (0,), 1)),
        ins("i32.const", 1),
    )
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), body),),
    )
    assert ("func[0]", "br_table: label type mismatch at depth 0") in errs(m)


def test_global_init_constraints():
    m = Module(globals=(Global(GlobalType("i32", False), (ins("i64.const", 0),)),))
    assert first_error(m) == (
        "global[0].init",
        "constant expression yields i64, expected i32",
    )
    m = Module(
        globals=(Global(GlobalType("i32", False), (ins("i32.const", 0), ins("i32.const", 1))),)
    )
    assert first_error(m) == (
        "global[0].init",
        "constant expression must be a single instruction",
    )
    m = Module(
        globals=(
            Global(GlobalType("i32", False), (ins("i32.const", 0),)),
            Global(GlobalType("i32", False), (ins("global.get", 0),)),
        )
    )
    assert first_error(m) == (
        "global[1].init",
        "constant expression may only read imported globals",
    )


@pytest.mark.parametrize(
    "init_hex, message",
    [
        ("02400b", "block not allowed in constant expression"),
        ("04400b", "if not allowed in constant expression"),
        ("0440010501 0b", "if not allowed in constant expression"),
        ("4100 02400b", "constant expression must be a single instruction"),
    ],
    ids=["block", "if", "if-else", "const-then-block"],
)
def test_constant_expression_counts_a_construct_as_one_instruction(init_hex, message):
    # a global i32 initialised by the given instructions and its final end
    init = bytes.fromhex(init_hex + "0b")
    data = (
        bytes.fromhex("0061736d01000000")
        + bytes((op.SEC_GLOBAL, len(init) + 3, 1))
        + bytes.fromhex("7f00")  # immutable i32
        + init
    )
    assert errs(decode(data)) == (("global[0].init", message),)


def _body_errors(*body):
    m = Module(types=(FuncType((), ()),), functions=(Function(0, (), body),))
    return errs(m)


# hand-built bodies can be unbalanced, decoded ones cannot
BLOCK = Instruction(op.BLOCK, (None,))
IF = Instruction(op.IF, (None,))


def test_end_without_open_construct():
    assert _body_errors(ins("nop"), END) == (("func[0]", "end: no open block, loop or if"),)


def test_else_without_open_construct():
    assert _body_errors(ELSE, ins("nop")) == (("func[0]", "else: no open block, loop or if"),)


def test_else_outside_if():
    assert _body_errors(BLOCK, ELSE, END) == (("func[0]", "else outside if"),)
    # a second else in one if
    assert _body_errors(ins("i32.const", 1), IF, ELSE, ins("nop"), ELSE, END) == (
        ("func[0]", "else outside if"),
    )


def test_construct_left_open_at_end_of_body():
    assert _body_errors(BLOCK, END, BLOCK) == (
        ("func[0]", "1 construct(s) not closed at end of body"),
    )
    assert _body_errors(ins("i32.const", 0), IF, BLOCK, BLOCK, END) == (
        ("func[0]", "2 construct(s) not closed at end of body"),
    )


def test_init_may_read_imported_immutable_global():
    assert validate_module(fx.imported_global_module()).ok


def test_type_index_bounds():
    m = Module(types=(), functions=(Function(0, (), (ins("nop"),)),))
    assert first_error(m) == ("func[0]", "type index 0 out of range")
    m = Module(imports=(Import("env", "f", "func", 2),))
    assert first_error(m) == ("import[0]", "type index 2 out of range")


def test_call_and_global_index_bounds_in_bodies():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("call", 9),)),),
    )
    assert not validate_module(m).ok
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("global.get", 0), ins("drop"))),),
    )
    assert not validate_module(m).ok


def test_setting_immutable_global_rejected():
    m = Module(
        types=(FuncType((), ()),),
        functions=(Function(0, (), (ins("i32.const", 1), ins("global.set", 0))),),
        globals=(Global(GlobalType("i32", False), (ins("i32.const", 0),)),),
    )
    assert not validate_module(m).ok


def test_branching_with_values():
    # br from a result-typed block carries the block result
    body = block("i32", ins("i32.const", 4), ins("br", 0))
    m = Module(types=(FuncType((), ("i32",)),), functions=(Function(0, (), body),))
    assert validate_module(m).ok
    # loop labels have arity 0, so br 0 inside needs no value
    body = block(
        None,
        *fx.loop(None, ins("local.get", 0), ins("br_if", 1), ins("br", 0)),
    )
    m = Module(types=(FuncType(("i32",), ()),), functions=(Function(0, (), body),))
    assert validate_module(m).ok


def test_unreachable_code_is_permissive():
    # after unreachable, anything typechecks up to the enclosing end
    body = (ins("unreachable"), ins("i32.add"), ins("drop"))
    m = Module(types=(FuncType((), ()),), functions=(Function(0, (), body),))
    assert validate_module(m).ok


def test_select_requires_matching_operands():
    body = (
        ins("i32.const", 1),
        ins("i64.const", 2),
        ins("i32.const", 0),
        ins("select"),
        ins("drop"),
    )
    m = Module(types=(FuncType((), ()),), functions=(Function(0, (), body),))
    assert not validate_module(m).ok


def test_start_function_type_index_out_of_range():
    m = decode(fx.BAD_START_TYPE_BYTES)
    assert errs(m) == (
        ("start", "function 0 has type index 12 out of range"),
        ("func[0]", "type index 12 out of range"),
    )


def test_call_to_defined_function_with_bad_type_index():
    # the call is reported and the rest of the body is dead code
    assert errs(fx.bad_call_type_module(imported=False)) == (
        ("func[0]", "type index 7 out of range"),
        ("func[1]", "call: function 0 has type index 7 out of range"),
    )


def test_call_to_imported_function_with_bad_type_index():
    assert errs(fx.bad_call_type_module(imported=True)) == (
        ("import[0]", "type index 7 out of range"),
        ("func[1]", "call: function 0 has type index 7 out of range"),
    )


def body_errors(body, memory=False, result=()):
    m = Module(
        types=(FuncType((), result),),
        memories=(MemType(Limits(1)),) if memory else (),
        functions=(Function(0, (), body),),
    )
    return [msg for _, msg in errs(m)]


def test_simple_op_operand_errors():
    # the top of the stack is checked first, then the value below it
    assert body_errors(
        (ins("i64.const", 1), ins("i32.const", 2), ins("i32.add"), ins("drop"))
    ) == ["i32.add: expected i32, got i64"]
    assert body_errors(
        (ins("i32.const", 1), ins("i64.const", 2), ins("i32.add"), ins("drop"))
    ) == ["i32.add: expected i32, got i64"]
    assert body_errors(
        (ins("i32.const", 1), ins("i32.add"), ins("drop"))
    ) == ["i32.add: operand stack underflow"]
    assert body_errors(
        (ins("i32.const", 0), ins("i32.const", 1), ins("i64.store", 3, 0)), memory=True
    ) == ["i64.store: expected i64, got i32"]
    assert body_errors(
        (ins("i32.const", 0), ins("i64.const", 1), ins("i64.store", 3, 0)), memory=True
    ) == []


def test_simple_op_in_dead_code():
    # dead code may take missing operands from nowhere, but not mistyped ones
    assert body_errors((ins("unreachable"), ins("i32.add"), ins("drop"))) == []
    assert body_errors(
        (ins("unreachable"), ins("i64.const", 1), ins("i32.add"), ins("drop"))
    ) == ["i32.add: expected i32, got i64"]
    assert body_errors(
        (ins("unreachable"), ins("i32.add")), result=("i32",)
    ) == []


def test_memory_op_errors_in_order():
    # operands first, then alignment, then the missing memory
    assert body_errors(
        (ins("i32.const", 0), ins("i32.load", 3, 0), ins("drop"))
    ) == ["i32.load: alignment 2**3 over natural 4", "i32.load: module has no memory"]
    assert body_errors((ins("i32.load", 3, 0), ins("drop"))) == [
        "i32.load: operand stack underflow",
        "i32.load: alignment 2**3 over natural 4",
        "i32.load: module has no memory",
    ]
    assert body_errors(
        (ins("i32.const", 0), ins("i32.load8_u", 1, 0), ins("drop")), memory=True
    ) == ["i32.load8_u: alignment 2**1 over natural 1"]
    assert body_errors(
        (ins("i32.const", 1), ins("memory.grow"), ins("drop"))
    ) == ["memory.grow: module has no memory"]


def test_br_if_to_a_result_label_leaves_its_values():
    # a br_if that is not taken leaves the label's values on the stack
    head = (ins("i32.const", 1), ins("i32.const", 0), ins("br_if", 0))
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), block("i32", *head)),),
    )
    assert validate_module(m).ok
    m = Module(
        types=(FuncType((), ("i32",)),),
        functions=(Function(0, (), block("i32", *head, ins("i64.eqz"))),),
    )
    assert errs(m) == (("func[0]", "i64.eqz: expected i64, got i32"),)


def _global_import(valtype, mutable):
    return Import("env", "g", "global", GlobalType(valtype, mutable))


def test_const_expr_reading_imported_globals():
    read_g0 = (Global(GlobalType("i32", False), (ins("global.get", 0),)),)
    m = Module(imports=(_global_import("i32", True),), globals=read_g0)
    assert errs(m) == (
        ("import[0]", "mutable global import"),
        ("global[0].init", "constant expression reads a mutable global"),
    )
    m = Module(imports=(_global_import("i64", False),), globals=read_g0)
    assert errs(m) == (("global[0].init", "constant expression yields i64, expected i32"),)


def test_limits_of_table_and_memory_imports():
    m = Module(imports=(Import("env", "t", "table", TableType(Limits(2, 1))),))
    assert errs(m) == (("import[0]", "limits maximum below minimum"),)
    m = Module(imports=(Import("env", "m", "memory", MemType(Limits(65537))),))
    assert errs(m) == (("import[0]", "limits minimum 65537 exceeds 65536"),)


def test_start_index_out_of_bounds():
    m = Module(
        types=(FuncType((), ()),),
        imports=(Import("env", "f", "func", 0),),
        functions=(Function(0, (), ()),),
        start=2,
    )
    assert errs(m) == (("start", "function index 2 out of bounds"),)


class _CountingImports(tuple):
    """Imports that count how often a pass iterates over them."""

    scans = 0

    def __iter__(self):
        type(self).scans += 1
        return super().__iter__()


def _import_scans(n):
    """How often validating a body of n loads and n global reads iterates
    over the module's imports."""
    _CountingImports.scans = 0
    imports = _CountingImports((
        Import("env", "mem", "memory", MemType(Limits(1))),
        Import("env", "g", "global", GlobalType("i32", False)),
    ))
    body = (ins("global.get", 0), ins("i32.load", 2, 0), ins("drop")) * n
    m = Module(
        types=(FuncType((), ()),),
        imports=imports,
        functions=(Function(0, (), body),),
    )
    assert validate_module(m).ok
    return _CountingImports.scans


def test_validation_scans_imports_a_fixed_number_of_times():
    assert _import_scans(200) == _import_scans(2000)


_UNIT = (FuncType((), ()),)


@pytest.mark.parametrize(
    "m, error",
    [
        (
            Module(types=_UNIT, functions=(Function(0, (), (Instruction("x"),)),)),
            ("func[0]", "unknown opcode 'x'"),
        ),
        (
            Module(types=_UNIT, functions=(Function("0", (), ()),)),
            ("func[0]", "type index '0' is not an integer"),
        ),
        (
            Module(
                types=_UNIT,
                functions=(Function(0, (), ()),),
                exports=(Export("f", "func", "0"),),
            ),
            ("export[0]", "index '0' is not an integer"),
        ),
        (
            Module(memories=(MemType(Limits("1", None)),)),
            ("memory[0]", "limits minimum '1' is not an integer"),
        ),
        (
            Module(
                memories=(MemType(Limits(1)),),
                data=(DataSegment(0, (ins("i32.const", 0),), "ab"),),
            ),
            ("data[0]", "data of type str, not bytes"),
        ),
        (
            Module(types=_UNIT, functions=(Function(0, (), ()),), start="0"),
            ("start", "function index '0' is not an integer"),
        ),
        (
            Module(
                types=_UNIT,
                functions=(Function(0, (), ()),),
                tables=(TableType(Limits(1)),),
                elements=(ElementSegment(0, (ins("i32.const", 0),), ("0",)),),
            ),
            ("element[0]", "function index '0' is not an integer"),
        ),
        (
            Module(types=_UNIT, imports=(Import("env", "log", "func", "0"),)),
            ("import[0]", "type index '0' is not an integer"),
        ),
        (
            Module(
                memories=(MemType(Limits(1)),),
                data=(DataSegment("0", (ins("i32.const", 0),), b"a"),),
            ),
            ("data[0]", "memory index '0' is not an integer"),
        ),
    ],
    ids=[
        "opcode",
        "type-index",
        "export-index",
        "limits",
        "data",
        "start",
        "element",
        "import",
        "data-memory",
    ],
)
def test_a_hand_built_field_of_the_wrong_type_is_one_validation_error(m, error):
    assert validate_module(m).errors == (error,)
