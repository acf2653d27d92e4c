"""Which inputs are valid modules, checked against V8.

``decode`` and ``validate_module`` decide whether bytes are a valid
WebAssembly 1.0 module. This test asks V8 (``WebAssembly.validate`` under
``node``) the same about the fixed-seed mutants of ``test_mutation`` and
their originals, in one ``node`` process:

- no input we accept may be rejected by V8;
- V8 implements proposals past 1.0 that it cannot turn off, so it may
  accept an input we reject, but only one whose reasons are all
  post-1.0 encodings from ``POST_MVP_REASONS``;
- the counts are pinned, so a change in what either side accepts shows.

It also asks V8 about the modules around its caps on a function's
parameters plus locals, ``fixturelib.LOCALS_CAP_CASES``, and on a type's
parameters and a ``br_table``'s targets, ``fixturelib.V8_CAP_CASES``,
and about the real binaries of ``test_real_binaries``, outside the
pinned counts.

The test is skipped when ``node`` is not installed.
"""

import json
import shutil
import subprocess

import pytest

import fixturelib as fx
from test_mutation import decode_mutants, decode_originals
from test_real_binaries import read
from wasmdebloat import decode, validate_module
from wasmdebloat.errors import MalformedBinary

NODE = shutil.which("node")
pytestmark = pytest.mark.skipif(NODE is None, reason="node (V8) is not installed")

HARNESS = r"""
const fs = require("fs");
const inputs = JSON.parse(fs.readFileSync(process.argv[2], "utf8"));
const valid = inputs.map((hex) => WebAssembly.validate(Buffer.from(hex, "hex")));
process.stdout.write(JSON.stringify(valid));
"""

# reasons we give for encodings that later proposals made valid, with the
# proposal that did
POST_MVP_REASONS = {
    "invalid value type 0x6f": "reference types (externref)",
    "invalid value type 0x70": "reference types (funcref as a value type)",
    "invalid value type 0x7b": "SIMD (v128)",
    "unknown opcode 0x12": "tail calls (return_call)",
    "unknown opcode 0x13": "tail calls (return_call_indirect)",
}

# inputs we accept, and inputs V8 accepts, out of all of them
INPUTS = 10_038
WE_ACCEPT = 642
V8_ACCEPTS = 647


def _our_reasons(data):
    """Why we reject ``data``: its decode error, or its validation
    errors; empty if we accept it."""
    try:
        return [msg for _, msg in validate_module(decode(data)).errors]
    except MalformedBinary as e:
        return [e.reason]


def _v8_valid(tmp_path, inputs):
    """``WebAssembly.validate`` of each input, in one ``node`` process."""
    (tmp_path / "harness.js").write_text(HARNESS)
    (tmp_path / "inputs.json").write_text(json.dumps([data.hex() for data in inputs]))
    out = subprocess.run(
        [NODE, str(tmp_path / "harness.js"), str(tmp_path / "inputs.json")],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_v8_accepts_every_module_we_accept(tmp_path):
    inputs = decode_originals() + decode_mutants()
    v8_valid = _v8_valid(tmp_path, inputs)
    assert len(v8_valid) == len(inputs) == INPUTS

    we_accept = 0
    for data, v8_ok in zip(inputs, v8_valid):
        reasons = _our_reasons(data)
        if not reasons:
            we_accept += 1
            assert v8_ok, f"V8 rejects a module we accept: {data.hex()}"
        elif v8_ok:
            assert all(r in POST_MVP_REASONS for r in reasons), (reasons, data.hex())
    assert we_accept == WE_ACCEPT
    assert sum(v8_valid) == V8_ACCEPTS


def test_v8_and_we_agree_on_the_locals_cap(tmp_path):
    # and on the caps on a type's parameters and a br_table's targets
    inputs = [fx.many_locals_bytes(params, *counts) for params, counts, _ in fx.LOCALS_CAP_CASES]
    inputs += [make(n) for make, n, _, _ in fx.V8_CAP_CASES]
    ours = [not _our_reasons(data) for data in inputs]
    assert ours == [offset is None for _, _, offset in fx.LOCALS_CAP_CASES] + [
        offset is None for _, _, offset, _ in fx.V8_CAP_CASES
    ]
    assert _v8_valid(tmp_path, inputs) == ours


def test_v8_and_we_accept_the_real_1_0_binaries(tmp_path):
    # V8 also accepts llhttp's SIMD build, which we refuse at its first
    # 0xfd prefix, a post-1.0 encoding; so it stays out of the counts above
    names = ["cjs_lexer.wasm", "llhttp.wasm", "llhttp_simd.wasm"]
    inputs = [read(name) for name in names]
    assert [_our_reasons(data) for data in inputs] == [[], [], ["unknown opcode 0xfd"]]
    assert _v8_valid(tmp_path, inputs) == [True, True, True]
