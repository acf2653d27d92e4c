"""JSON workload, trace, and report document handling."""

import json
import math
import random
import re

import pytest

import fixturelib as fx
from fixturelib import inv, wl
from wasmdebloat import DEFAULT_FUEL, debloat_module, encode, run_workload
from wasmdebloat.documents import (
    report_to_document,
    trace_to_document,
    value_from_json,
    value_to_json,
    workload_from_document,
    workload_to_document,
)
from wasmdebloat.errors import DocumentError
from wasmdebloat.interp import Invocation, Results, Value, Workload, instantiate, invoke
from wasmdebloat.module import Export, FuncType, Function, Module
from wasmdebloat.pipeline import Mismatch, ValidationVerdict


def parse_err(text):
    with pytest.raises(DocumentError) as exc:
        workload_from_document(text)
    return exc.value


def test_workload_parses_minimal():
    w = workload_from_document('{"invocations": [{"func": "add"}]}')
    assert w == Workload((Invocation("add", ()),), DEFAULT_FUEL)


def test_workload_parses_args_and_fuel():
    text = """
    {
      "invocations": [
        {"func": "add", "args": [{"i32": 2}, {"i32": -3}]},
        {"func": "go", "args": [{"f64": 1.5}]}
      ],
      "fuel": 500
    }
    """
    w = workload_from_document(text)
    assert w.fuel == 500
    assert w.invocations == (
        Invocation("add", (Value.i32(2), Value.i32(-3))),
        Invocation("go", (Value.f64(1.5),)),
    )


def test_workload_round_trips():
    w = Workload(
        (
            Invocation("a", (Value.i32(-1), Value.i64(1 << 62))),
            Invocation("b", (Value.f32(0.1), Value.f64(-2.5))),
            Invocation("c", ()),
        ),
        1234,
    )
    assert workload_from_document(workload_to_document(w)) == w


def test_i64_written_as_decimal_string():
    # 2**53 + 1 is not representable as a JSON double
    w = Workload((Invocation("f", (Value.i64(9007199254740993),)),), DEFAULT_FUEL)
    doc = json.loads(workload_to_document(w))
    assert doc["invocations"][0]["args"][0] == {"i64": "9007199254740993"}
    assert workload_from_document(workload_to_document(w)) == w


def test_i64_accepts_raw_integer_too():
    w = workload_from_document(
        '{"invocations": [{"func": "f", "args": [{"i64": 7}]}]}'
    )
    assert w.invocations[0].args == (Value.i64(7),)


def test_i32_rejects_string():
    e = parse_err('{"invocations": [{"func": "f", "args": [{"i32": "7"}]}]}')
    assert str(e) == "$.invocations[0].args[0]: i32 must be a JSON integer"


def test_bool_is_not_an_integer():
    e = parse_err('{"invocations": [{"func": "f", "args": [{"i32": true}]}]}')
    assert str(e) == "$.invocations[0].args[0]: expected an integer"


def test_int_range_limits():
    ok = '{"invocations": [{"func": "f", "args": [{"i32": %s}]}]}'
    for lit in ("-2147483648", "4294967295"):
        assert workload_from_document(ok % lit)
    for lit in ("-2147483649", "4294967296"):
        e = parse_err(ok % lit)
        assert f"i32 literal {lit} out of range" in str(e)
    e = parse_err(
        '{"invocations": [{"func": "f", "args": [{"i64": "18446744073709551616"}]}]}'
    )
    assert "i64 literal 18446744073709551616 out of range" in str(e)


def test_bad_i64_string():
    e = parse_err('{"invocations": [{"func": "f", "args": [{"i64": "xyz"}]}]}')
    assert str(e) == "$.invocations[0].args[0]: bad i64 literal 'xyz'"


def test_nonfinite_floats_as_strings():
    w = workload_from_document(
        '{"invocations": [{"func": "f", "args": '
        '[{"f32": "nan"}, {"f64": "inf"}, {"f64": "-inf"}, {"f64": "+inf"}]}]}'
    )
    a, b, c, d = w.invocations[0].args
    assert math.isnan(a.to_float())
    assert b.to_float() == math.inf
    assert c.to_float() == -math.inf
    assert d.to_float() == math.inf
    assert value_to_json(a) == {"f32": "nan"}
    assert value_to_json(b) == {"f64": "inf"}
    assert value_to_json(c) == {"f64": "-inf"}


def test_bad_float_string():
    e = parse_err('{"invocations": [{"func": "f", "args": [{"f32": "huge"}]}]}')
    assert str(e) == "$.invocations[0].args[0]: bad f32 literal 'huge'"


def test_unknown_value_type():
    e = parse_err('{"invocations": [{"func": "f", "args": [{"v128": 0}]}]}')
    assert str(e) == "$.invocations[0].args[0]: unknown value type 'v128'"


def test_value_object_must_have_one_key():
    for arg in ("5", "{}", '{"i32": 1, "i64": 2}', "[1]"):
        e = parse_err('{"invocations": [{"func": "f", "args": [%s]}]}' % arg)
        assert 'expected a single-key value object like {"i32": 1}' in str(e)


def test_unknown_and_missing_fields():
    e = parse_err('{"invocations": [], "x": 1}')
    assert str(e) == "$: unknown field 'x'"
    e = parse_err('{"fuel": 10}')
    assert str(e) == "$: missing field 'invocations'"
    e = parse_err('{"invocations": [{"func": "f", "extra": 1}]}')
    assert str(e) == "$.invocations[0]: unknown field 'extra'"
    e = parse_err('{"invocations": [{"args": []}]}')
    assert str(e) == "$.invocations[0]: missing field 'func'"


def test_structural_errors():
    assert str(parse_err("[]")) == "$: workload document must be an object"
    assert str(parse_err('{"invocations": 3}')) == "$.invocations: expected a list"
    assert str(parse_err('{"invocations": [7]}')) == "$.invocations[0]: expected an object"
    e = parse_err('{"invocations": [{"func": ""}]}')
    assert str(e) == "$.invocations[0].func: expected a non-empty string"
    e = parse_err('{"invocations": [{"func": "f", "args": 3}]}')
    assert str(e) == "$.invocations[0].args: expected a list"


# (the third invocation, the location and the reason of its error); it
# follows an invocation with three arguments and one with none, so an
# index left over from an earlier invocation names the wrong place
_LATER_ERRORS = {
    "unknown-field": (
        '{"func": "f", "args": [{"i32": 1}, {"i32": 2}], "extra": 1}',
        "$.invocations[2]: unknown field 'extra'",
    ),
    "not-an-object": ("7", "$.invocations[2]: expected an object"),
    "missing-func": (
        '{"args": [{"i32": 1}, {"i32": 2}]}',
        "$.invocations[2]: missing field 'func'",
    ),
    "empty-func": (
        '{"func": "", "args": [{"i32": 1}, {"i32": 2}]}',
        "$.invocations[2].func: expected a non-empty string",
    ),
    "args-not-a-list": (
        '{"func": "f", "args": {"i32": 1}}',
        "$.invocations[2].args: expected a list",
    ),
    "non-object-value": (
        '{"func": "f", "args": [{"i32": 1}, 5]}',
        '$.invocations[2].args[1]: expected a single-key value object like {"i32": 1}',
    ),
    "i32-string": (
        '{"func": "f", "args": [{"i32": 1}, {"i32": "5"}]}',
        "$.invocations[2].args[1]: i32 must be a JSON integer",
    ),
    "bool-integer": (
        '{"func": "f", "args": [{"i32": 1}, {"i64": true}]}',
        "$.invocations[2].args[1]: expected an integer",
    ),
    "bad-i64": (
        '{"func": "f", "args": [{"i32": 1}, {"i64": "12x"}]}',
        "$.invocations[2].args[1]: bad i64 literal '12x'",
    ),
    # int() takes each of these, but an i64 string is ASCII digits and "-"
    "i64-underscore": (
        '{"func": "f", "args": [{"i32": 1}, {"i64": "1_000"}]}',
        "$.invocations[2].args[1]: bad i64 literal '1_000'",
    ),
    "i64-whitespace": (
        '{"func": "f", "args": [{"i32": 1}, {"i64": " 7\\n"}]}',
        "$.invocations[2].args[1]: bad i64 literal ' 7\\n'",
    ),
    "i64-plus": (
        '{"func": "f", "args": [{"i32": 1}, {"i64": "+5"}]}',
        "$.invocations[2].args[1]: bad i64 literal '+5'",
    ),
    "i64-arabic-indic-digit": (
        '{"func": "f", "args": [{"i32": 1}, {"i64": "\u0663"}]}',
        "$.invocations[2].args[1]: bad i64 literal '\u0663'",
    ),
    "i64-fullwidth-digit": (
        '{"func": "f", "args": [{"i32": 1}, {"i64": "\uff15"}]}',
        "$.invocations[2].args[1]: bad i64 literal '\uff15'",
    ),
    "out-of-range": (
        '{"func": "f", "args": [{"i32": 1}, {"i32": 4294967296}]}',
        "$.invocations[2].args[1]: i32 literal 4294967296 out of range",
    ),
    "unknown-type": (
        '{"func": "f", "args": [{"i32": 1}, {"v128": 0}]}',
        "$.invocations[2].args[1]: unknown value type 'v128'",
    ),
    "bad-float-string": (
        '{"func": "f", "args": [{"i32": 1}, {"f64": "huge"}]}',
        "$.invocations[2].args[1]: bad f64 literal 'huge'",
    ),
    "huge-float-f64": (
        '{"func": "f", "args": [{"i32": 1}, {"f64": 1e400}]}',
        "$.invocations[2].args[1]: f64 literal out of range",
    ),
    "huge-float-f32": (
        '{"func": "f", "args": [{"i32": 1}, {"f32": -1e400}]}',
        "$.invocations[2].args[1]: f32 literal out of range",
    ),
    # finite f64 values that round to f32 infinity
    "past-f32-range": (
        '{"func": "f", "args": [{"i32": 1}, {"f32": 1e39}]}',
        "$.invocations[2].args[1]: f32 literal out of range",
    ),
    "past-f32-range-negative": (
        '{"func": "f", "args": [{"i32": 1}, {"f32": -1e39}]}',
        "$.invocations[2].args[1]: f32 literal out of range",
    ),
    "rounds-to-f32-infinity": (
        '{"func": "f", "args": [{"i32": 1}, {"f32": 3.4028235677973366e38}]}',
        "$.invocations[2].args[1]: f32 literal out of range",
    ),
    "bool-float": (
        '{"func": "f", "args": [{"i32": 1}, {"f32": true}]}',
        "$.invocations[2].args[1]: expected a number for f32",
    ),
    "null-float": (
        '{"func": "f", "args": [{"i32": 1}, {"f64": null}]}',
        "$.invocations[2].args[1]: expected a number for f64",
    ),
}


@pytest.mark.parametrize("case", sorted(_LATER_ERRORS))
def test_errors_name_the_place_in_a_later_invocation(case):
    bad, error = _LATER_ERRORS[case]
    text = (
        '{"invocations": ['
        '{"func": "a", "args": [{"i32": 1}, {"i64": "2"}, {"f32": 0.5}]}, '
        '{"func": "b"}, '
        "%s]}" % bad
    )
    e = parse_err(text)
    assert str(e) == error
    assert e.location == error.split(": ")[0]


def test_the_largest_finite_f32_literal_is_accepted():
    w = workload_from_document(
        '{"invocations": [{"func": "f", "args": '
        '[{"f32": 3.4028235677973362e38}, {"f32": -3.4028235677973362e38}]}]}'
    )
    assert [a.bits for a in w.invocations[0].args] == [0x7F7FFFFF, 0xFF7FFFFF]


def test_an_integer_f32_literal_is_rounded_once():
    # 2**60 + 2**36 + 1: rounded to f64 first, it becomes a tie between
    # two f32s, which the second rounding breaks the wrong way
    w = workload_from_document('{"invocations": [{"func": "f", "args": [{"f32": 1152921573326323713}]}]}')
    assert w.invocations[0].args[0].bits == 0x5D800001


def test_integer_f32_literals_read_as_f32_convert_i64_s_gives():
    m = Module(
        types=(FuncType(("i64",), ("f32",)),),
        functions=(Function(0, (), (fx.ins("local.get", 0), fx.ins("f32.convert_i64_s"))),),
        exports=(Export("f", "func", 0),),
    )
    inst = instantiate(m)
    rng = random.Random(26)
    for i in range(2000):
        n = rng.getrandbits(rng.randrange(1, 64))
        if i % 2:
            # 24 bits, a half bit, and a 1 that f64 drops: just above a tie
            # between two f32s, and a tie once rounded to f64
            shift = rng.randrange(31, 40)
            n = (rng.getrandbits(23) | 1 << 23) << shift | 1 << (shift - 1) | 1
        n *= rng.choice((1, -1))
        parsed = value_from_json({"f32": n}, "$")
        assert invoke(inst, "f", (Value.i64(n),)) == Results((parsed,)), n


def test_fuel_validation():
    for bad in ("0", "-5"):
        e = parse_err('{"invocations": [], "fuel": %s}' % bad)
        assert str(e) == "$.fuel: fuel must be positive"
    e = parse_err('{"invocations": [], "fuel": true}')
    assert str(e) == "$.fuel: expected an integer"
    e = parse_err('{"invocations": [], "fuel": 1.5}')
    assert str(e) == "$.fuel: expected an integer"


def test_json_syntax_error_location():
    e = parse_err("{x")
    assert str(e) == (
        "line 1, column 2: Expecting property name enclosed in double quotes"
    )
    assert e.location == "line 1, column 2"


@pytest.mark.parametrize("case", sorted(fx.HOSTILE_WORKLOADS))
def test_hostile_workload_is_a_document_error(case):
    text, error = fx.HOSTILE_WORKLOADS[case]
    assert str(parse_err(text)) == error


def mutate_document(text, rng):
    kind = rng.randrange(6)
    pos = rng.randrange(len(text) + 1)
    if kind == 0:  # flip one to three bits of single characters
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars))
            chars[i] = chr(ord(chars[i]) ^ (1 << rng.randrange(8)))
        return "".join(chars)
    if kind == 1:  # truncate
        return text[:pos]
    if kind == 2:  # insert brackets, braces or quotes
        noise = "".join(rng.choices('[]{}"', k=rng.randint(1, 4)))
        return text[:pos] + noise + text[pos:]
    if kind == 3:  # an integer past the f64 range, or past the digit limit
        numbers = [m.span() for m in re.finditer(r"-?[0-9][0-9.eE+-]*", text)]
        start, end = rng.choice(numbers or [(pos, pos)])
        return text[:start] + "7" * rng.choice((400, 5000)) + text[end:]
    if kind == 4:  # nest a value very deeply
        depth = rng.choice((50, 5_000, 50_000))
        return text[:pos] + "[" * depth + "1" + "]" * depth + text[pos:]
    # replace a character with one of JSON's own
    return text[:pos] + rng.choice(' ,:-.e0123456789"ntf') + text[pos + 1 :]


def test_mutated_workloads_parse_or_are_document_errors():
    # fixed-seed mutants: only a Workload or a DocumentError may come out
    originals = [workload_to_document(w) for _, _, w in fx.PAIRS]
    rng = random.Random(20207)
    parsed = 0
    for _ in range(3000):
        text = mutate_document(rng.choice(originals), rng)
        try:
            workload_from_document(text)
        except DocumentError:
            continue
        except Exception as e:
            raise AssertionError(f"{type(e).__name__} on {text[:200]!r}") from e
        parsed += 1
    # enough mutants parse to exercise the checks past json.loads
    assert parsed > 100


def test_value_round_trip_preserves_bits():
    vals = (
        Value.i32(-1),
        Value.i64(-(1 << 63)),
        Value.f32(0.1),
        Value.f64(-0.0),
        Value.f32(float("inf")),
    )
    for v in vals:
        assert value_from_json(value_to_json(v), "$") == v


def test_trace_document_sorted():
    _, trace = run_workload(fx.calculator_module(), fx.CALCULATOR_WORKLOAD)
    doc = json.loads(trace_to_document(trace))
    assert doc == {
        "entered": [0, 1, 5, 7],
        "callTargets": [5],
        "tableObserved": [5],
    }


def test_report_document_key_order():
    _, report = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    text = report_to_document(report)

    orders = {}

    def record(pairs):
        keys = tuple(k for k, _ in pairs)
        orders.setdefault(keys, None)
        return dict(pairs)

    json.loads(text, object_pairs_hook=record)
    assert (
        "toolVersion",
        "timestamp",
        "keepRatio",
        "stubRatio",
        "removeRatio",
        "bytesSavedPercent",
        "stats",
        "traceSummary",
        "validation",
    ) in orders
    assert (
        "functionsKeptBody",
        "functionsStubbed",
        "functionsRemoved",
        "importsRemoved",
        "typesRemoved",
        "bytesBefore",
        "bytesAfter",
        "codeBytesBefore",
        "codeBytesAfter",
    ) in orders
    assert ("entered", "callTargets", "tableObserved") in orders
    assert ("syntacticOk", "behavioralOk", "mismatches") in orders


def test_report_document_values():
    _, report = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    doc = json.loads(report_to_document(report))
    assert doc["keepRatio"] == 40.0
    assert doc["stats"]["functionsStubbed"] == 3
    assert doc["traceSummary"] == {"entered": 4, "callTargets": 1, "tableObserved": 1}
    assert doc["validation"] == {
        "syntacticOk": True,
        "behavioralOk": True,
        "mismatches": [],
    }


def test_report_round_trips_with_mismatches():
    _, report = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    from dataclasses import replace

    mismatch = Mismatch(2, "outcome", "Results[i32:1]", "Trap(unreachable)")
    bad = replace(report, validation=ValidationVerdict((mismatch,)))
    doc = json.loads(report_to_document(bad))
    assert doc["validation"] == {
        "syntacticOk": True,
        "behavioralOk": False,
        "mismatches": [
            {
                "invocation": 2,
                "field": "outcome",
                "original": "Results[i32:1]",
                "debloated": "Trap(unreachable)",
            }
        ],
    }


def test_report_document_deterministic_modulo_timestamp():
    _, r1 = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    _, r2 = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    from dataclasses import replace

    assert replace(r1, timestamp="") == replace(r2, timestamp="")
