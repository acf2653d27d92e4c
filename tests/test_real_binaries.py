"""Real binaries: the clang-built modules that node v20.20.2 carries.

``tests/data`` holds cjs-module-lexer, llhttp and llhttp's SIMD build;
``tests/data/NOTICE`` says how they were extracted. Their hashes are
pinned here, so no test depends on node's internals. The two WebAssembly
1.0 builds decode, validate and compile; the SIMD build is refused as a
malformed 1.0 binary; and the lexer debloats end to end through the CLI
on ``cjs_lexer.workload.json``. ``test_v8_validation`` and
``test_v8_programs`` check the same binaries against V8.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wasmdebloat import decode, interp, validate_module
from wasmdebloat.cli import EXIT_INPUT, EXIT_OK, main
from wasmdebloat.documents import workload_from_document
from wasmdebloat.errors import MalformedBinary
from wasmdebloat.interp import Results, Value, run_workload

DATA = Path(__file__).resolve().parent / "data"

# file -> (bytes, SHA-256)
BINARIES = {
    "cjs_lexer.wasm": (22_164, "261278e84d64d4a0940ac790f62d011cf50fd3bf8764e7360108fb3b4f56b0e3"),
    "llhttp.wasm": (48_615, "b96063c7ce14045f91f17489d8b30a2bf5129308bd801d7dde715579d16d0e21"),
    "llhttp_simd.wasm": (48_643, "989f2025b23e92ae5093ceb357093df7bdf2e1e7f1f1bf383b0a4dc69a78151d"),
}

LLHTTP_CALLBACKS = (
    "wasm_on_headers_complete", "wasm_on_message_begin", "wasm_on_url", "wasm_on_status",
    "wasm_on_header_field", "wasm_on_header_value", "wasm_on_body", "wasm_on_message_complete",
)

# the WebAssembly 1.0 builds: file -> (defined functions, env function imports)
VALID = {"cjs_lexer.wasm": (50, ()), "llhttp.wasm": (44, LLHTTP_CALLBACKS)}

LEXER_WORKLOAD = DATA / "cjs_lexer.workload.json"


def read(name):
    return (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(BINARIES))
def test_the_fixtures_are_the_pinned_bytes(name):
    data = read(name)
    assert (len(data), hashlib.sha256(data).hexdigest()) == BINARIES[name]


@pytest.mark.parametrize("name", sorted(VALID))
def test_the_1_0_builds_decode_validate_and_compile(name):
    m = decode(read(name))
    defined, imports = VALID[name]
    assert len(m.functions) == defined
    assert [(i.module, i.name, i.kind) for i in m.imports] == [("env", n, "func") for n in imports]
    assert validate_module(m).ok
    inst = interp.Instance(m)
    for fn in m.functions:
        assert interp._compile(inst, fn)


def test_the_simd_build_is_a_malformed_1_0_binary(capsys):
    with pytest.raises(MalformedBinary) as e:
        decode(read("llhttp_simd.wasm"))
    assert (e.value.offset, e.value.reason) == (34_512, "unknown opcode 0xfd")
    assert main(["stats", "--module", str(DATA / "llhttp_simd.wasm")]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed binary at offset 34512: unknown opcode 0xfd" in captured.err


def test_the_lexer_runs_its_workload():
    # sa(0) returns the address of an empty source, which parseCJS then reads
    w = workload_from_document(LEXER_WORKLOAD.read_text("utf-8"))
    assert [(inv.func, inv.args) for inv in w.invocations] == [
        ("sa", (Value.i32(0),)),
        ("parseCJS", (Value.i32(35_920), *[Value.i32(0)] * 5)),
        ("e", ()),
        ("re", ()),
        ("ru", ()),
    ]
    log, trace = run_workload(decode(read("cjs_lexer.wasm")), w)
    assert [r.outcome for r in log.records] == [Results((Value.i32(x),)) for x in (35_920, 0, 0, 0, 0)]
    assert not any(r.host_calls for r in log.records)
    assert sorted(trace.entered) == [36, 37, 44, 46, 47, 49]


def test_the_lexer_debloats_through_the_cli(tmp_path, capsys):
    out, rep = tmp_path / "out.wasm", tmp_path / "report.json"
    code = main([
        "debloat", "--module", str(DATA / "cjs_lexer.wasm"), "--workload", str(LEXER_WORKLOAD),
        "--out", str(out), "--report", str(rep), "--fail-on-behavior-change",
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    doc = json.loads(rep.read_text("utf-8"))
    assert doc["validation"] == {"syntacticOk": True, "behavioralOk": True, "mismatches": []}
    stats = doc["stats"]
    plan = (stats["functionsKeptBody"], stats["functionsStubbed"], stats["functionsRemoved"])
    assert plan == (6, 38, 6)
    assert (stats["bytesBefore"], stats["bytesAfter"]) == (22_164, 12_004)
    assert len(out.read_bytes()) == 12_004
    assert validate_module(decode(out.read_bytes())).ok
