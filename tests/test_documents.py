"""JSON workload, trace, and report document handling."""

import json
import math

import pytest

import fixturelib as fx
from fixturelib import inv, wl
from wasmdebloat import DEFAULT_FUEL, debloat_module, encode, run_workload
from wasmdebloat.documents import (
    report_from_document,
    report_to_document,
    trace_to_document,
    value_from_json,
    value_to_json,
    workload_from_document,
    workload_to_document,
)
from wasmdebloat.errors import DocumentError
from wasmdebloat.interp import Invocation, Value, Workload
from wasmdebloat.pipeline import Mismatch


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


def test_report_round_trips_losslessly():
    _, report = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    assert report_from_document(report_to_document(report)) == report


def test_report_round_trips_with_mismatches():
    _, report = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    from dataclasses import replace

    bad = replace(
        report,
        validation=replace(
            report.validation,
            behavioral_ok=False,
            mismatches=(Mismatch(2, "outcome", "Results[i32:1]", "Trap(unreachable)"),),
        ),
    )
    back = report_from_document(report_to_document(bad))
    assert back == bad
    doc = json.loads(report_to_document(bad))
    assert doc["validation"]["mismatches"] == [
        {
            "invocation": 2,
            "field": "outcome",
            "original": "Results[i32:1]",
            "debloated": "Trap(unreachable)",
        }
    ]


def test_report_document_deterministic_modulo_timestamp():
    _, r1 = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    _, r2 = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    from dataclasses import replace

    assert replace(r1, timestamp="") == replace(r2, timestamp="")


def test_report_rejects_unknown_key():
    with pytest.raises(DocumentError) as exc:
        report_from_document('{"bogus": 1}')
    assert "unknown field 'bogus'" in str(exc.value)


def _calculator_report_doc():
    _, report = debloat_module(encode(fx.calculator_module()), fx.CALCULATOR_WORKLOAD)
    return json.loads(report_to_document(report))


def _mismatch_doc():
    return {"invocation": 0, "field": "outcome", "original": "a", "debloated": "b"}


@pytest.mark.parametrize(
    "path, value, error",
    [
        (("stats",), {}, "$.stats: missing field 'functionsKeptBody'"),
        (("stats",), [], "$.stats: expected an object"),
        (("stats",), None, "$.stats: expected an object"),
        (("stats", "extra"), 1, "$.stats: unknown field 'extra'"),
        (("traceSummary",), [], "$.traceSummary: expected an object"),
        (("traceSummary",), {"entered": 1}, "$.traceSummary: missing field 'callTargets'"),
        (("validation",), None, "$.validation: expected an object"),
        (("validation",), {}, "$.validation: missing field 'syntacticOk'"),
        (("validation", "mismatches"), None, "$.validation.mismatches: expected a list"),
        (("validation", "mismatches"), {}, "$.validation.mismatches: expected a list"),
        (("validation", "mismatches"), [7], "$.validation.mismatches[0]: expected an object"),
        (
            ("validation", "mismatches"),
            [_mismatch_doc(), {"field": "outcome"}],
            "$.validation.mismatches[1]: missing field 'invocation'",
        ),
        (
            ("validation", "mismatches"),
            [dict(_mismatch_doc(), extra=1)],
            "$.validation.mismatches[0]: unknown field 'extra'",
        ),
    ],
)
def test_report_rejects_bad_nested_objects(path, value, error):
    doc = _calculator_report_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(DocumentError) as exc:
        report_from_document(json.dumps(doc))
    assert str(exc.value) == error
