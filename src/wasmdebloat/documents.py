"""JSON document formats: workloads, traces, reports.

Workloads are read and written; traces and reports are only written.
Workload parsing is strict: unknown or repeated keys are rejected, and
every error is a ``DocumentError`` with a location, the line and column
of a JSON syntax error or else a JSON path (``$`` for a number too long
to convert, nesting too deep to parse, or a NaN or Infinity literal,
which JSON does not have). i64 values are written as decimal strings
because plain JSON numbers lose precision past 53 bits; both forms are
accepted on input. Non-finite floats are written and read as the strings
"nan", "inf", "-inf".
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import asdict

from .errors import DocumentError
from .interp import DEFAULT_FUEL, Invocation, Value, Workload
from .pipeline import DebloatReport, ValidationVerdict

# the upper bound is also the mask of the type's bits
_INT_RANGES = {
    "i32": (-(1 << 31), (1 << 32) - 1),
    "i64": (-(1 << 63), (1 << 64) - 1),
}
_FLOAT_STRINGS = {"nan": math.nan, "inf": math.inf, "+inf": math.inf, "-inf": -math.inf}
_VALUE_OBJECT = 'expected a single-key value object like {"i32": 1}'
# the literals json.loads accepts although JSON has none, and their strings
_NON_JSON = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _require_keys(obj: dict, loc: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise DocumentError(loc, f"unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise DocumentError(loc, f"missing field {key!r}")


def _fields(obj, loc: str, expected: str) -> dict:
    """The fields of a parsed JSON object, which json.loads leaves as a
    tuple of (key, value) pairs so that a repeated key shows."""
    if type(obj) is not tuple:
        raise DocumentError(loc, expected)
    fields = dict(obj)
    if len(fields) < len(obj):
        key = next(k for k, n in Counter(k for k, _ in obj).items() if n > 1)
        raise DocumentError(loc, f"duplicate field {key!r}")
    return fields


def value_from_json(obj, loc: str) -> Value:
    # one parsed pair needs no dict; _fields names a repeated key
    pairs = tuple(obj.items()) if type(obj) is dict else obj
    if type(pairs) is not tuple or len(pairs) != 1:
        _fields(pairs, loc, _VALUE_OBJECT)
        raise DocumentError(loc, _VALUE_OBJECT)
    ((key, raw),) = pairs
    # exact types: JSON true/false (bool, an int subclass) are not numbers
    if key in _INT_RANGES:
        if type(raw) is str:
            if key != "i64":
                raise DocumentError(loc, f"{key} must be a JSON integer")
            try:
                # int() alone also takes "+5", "1_000", " 7" and non-ASCII digits
                if not re.fullmatch("-?[0-9]+", raw):
                    raise ValueError
                raw = int(raw)
            except ValueError:
                raise DocumentError(loc, f"bad i64 literal {raw!r}") from None
        elif type(raw) is not int:
            raise DocumentError(loc, "expected an integer")
        lo, hi = _INT_RANGES[key]
        if not lo <= raw <= hi:
            raise DocumentError(loc, f"{key} literal {raw} out of range")
        return Value(key, raw & hi)
    if key in ("f32", "f64"):
        x = raw
        if type(raw) is str:
            if raw not in _FLOAT_STRINGS:
                raise DocumentError(loc, f"bad {key} literal {raw!r}")
            x = _FLOAT_STRINGS[raw]
        elif type(raw) is not float and type(raw) is not int:
            raise DocumentError(loc, f"expected a number for {key}")
        try:  # Value.f32 rounds an integer once, not through f64
            value = Value.f32(x) if key == "f32" else Value.f64(x)
        except OverflowError:  # an integer literal past the f64 range
            raise DocumentError(loc, f"{key} literal out of range") from None
        # a number past the type's range is, or rounds to, infinity
        if type(raw) is not str and math.isinf(value.to_float()):
            raise DocumentError(loc, f"{key} literal out of range")
        return value
    raise DocumentError(loc, f"unknown value type {key!r}")


def value_to_json(v: Value) -> dict:
    if v.type == "i32":
        return {"i32": v.signed()}
    if v.type == "i64":
        return {"i64": str(v.signed())}
    x = v.to_float()
    if math.isnan(x):
        return {v.type: "nan"}
    if math.isinf(x):
        return {v.type: "inf" if x > 0 else "-inf"}
    return {v.type: x}


def _reject_constant(literal: str):
    raise DocumentError("$", f'{literal} is not JSON; write the string "{_NON_JSON[literal]}"')


def workload_from_document(text: str) -> Workload:
    try:
        doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=tuple)
    except json.JSONDecodeError as e:
        raise DocumentError(f"line {e.lineno}, column {e.colno}", e.msg) from None
    except ValueError:  # CPython's limit on the digits of an integer
        raise DocumentError("$", "integer literal has too many digits") from None
    except RecursionError:
        raise DocumentError("$", "document nested too deeply") from None
    doc = _fields(doc, "$", "workload document must be an object")
    _require_keys(doc, "$", ("invocations",), ("fuel",))

    invs = doc["invocations"]
    if not isinstance(invs, list):
        raise DocumentError("$.invocations", "expected a list")
    # a check raises a location relative to the invocation ("" for an
    # argument, whose index is j); only an error builds the full location
    parsed = []
    for i, inv in enumerate(invs):
        j = None  # the index of the argument being parsed
        try:
            inv = _fields(inv, "", "expected an object")
            _require_keys(inv, "", ("func",), ("args",))
            func = inv["func"]
            if type(func) is not str or not func:
                raise DocumentError(".func", "expected a non-empty string")
            raw_args = inv.get("args", [])
            if type(raw_args) is not list:
                raise DocumentError(".args", "expected a list")
            args = []
            for j, a in enumerate(raw_args):
                args.append(value_from_json(a, ""))
        except DocumentError as e:
            where = e.location if j is None else f".args[{j}]"
            raise DocumentError(f"$.invocations[{i}]{where}", e.reason) from None
        parsed.append(Invocation(func, tuple(args)))

    fuel = DEFAULT_FUEL
    if "fuel" in doc:
        fuel = doc["fuel"]
        if type(fuel) is not int:
            raise DocumentError("$.fuel", "expected an integer")
        if fuel <= 0:
            raise DocumentError("$.fuel", "fuel must be positive")
    return Workload(tuple(parsed), fuel)


def workload_to_document(w: Workload) -> str:
    doc = {
        "invocations": [
            {"func": inv.func, "args": [value_to_json(a) for a in inv.args]}
            for inv in w.invocations
        ],
        "fuel": w.fuel,
    }
    return json.dumps(doc, indent=2) + "\n"


def _camel(name: str) -> str:
    """The document key of a record's field: code_bytes_after -> codeBytesAfter."""
    return re.sub("_([a-z])", lambda m: m[1].upper(), name)


def trace_to_document(trace) -> str:
    doc = {_camel(name): sorted(ids) for name, ids in trace._asdict().items()}
    return json.dumps(doc, indent=2) + "\n"


def report_to_document(report: DebloatReport) -> str:
    doc = {
        "toolVersion": report.tool_version,
        "timestamp": report.timestamp,
        "keepRatio": report.keep_ratio,
        "stubRatio": report.stub_ratio,
        "removeRatio": report.remove_ratio,
        "bytesSavedPercent": report.bytes_saved_percent,
        "stats": {_camel(name): n for name, n in asdict(report.stats).items()},
        "traceSummary": {_camel(name): len(ids) for name, ids in report.trace._asdict().items()},
        "validation": verdict_to_json(report.validation),
    }
    return json.dumps(doc, indent=2) + "\n"


def verdict_to_json(v: ValidationVerdict) -> dict:
    """The ``validation`` object of a report, also what ``validate`` prints."""
    return {
        "syntacticOk": v.syntactic_ok,
        "behavioralOk": v.behavioral_ok,
        "mismatches": [
            {
                "invocation": mm.invocation_index,
                "field": mm.field,
                "original": mm.original,
                "debloated": mm.debloated,
            }
            for mm in v.mismatches
        ],
    }
