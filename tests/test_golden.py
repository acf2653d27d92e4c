"""Pinned digests of what the debloater writes.

Each SHA-256 covers, per case, the encoded input module, the debloated
bytes and the report document without its ``timestamp``. ``GOLDEN``
covers every ``fixturelib.PAIRS`` entry and ``modulegen.generate_pair``
seeds 0-199 with and without ``trap_free``. ``GOLDEN_CONTROL_FLOW``
covers the same seeds with ``control_flow`` on, where ``br_table``, loops
and the values a branch keeps and drops run, and the cjs-module-lexer
binary on its committed workload. A change to the encoder, the
debloater, the report or a fixture's instructions changes a digest.
``GOLDEN`` was computed before function bodies were stored in binary
order, so it also pins that the move changed no output byte.
"""

import hashlib
import json
from pathlib import Path

import fixturelib as fx
import modulegen
from wasmdebloat import debloat_module, encode
from wasmdebloat.documents import report_to_document, workload_from_document

GOLDEN = "fa84429a5b8b42252501a1cd86703cd98a7f23410cbb5e3125c5a0760ad713e1"
GOLDEN_CONTROL_FLOW = "5c17357c1448f1e6510b4e135d28aab61b57c3be07d07060cd4844dd28090732"

DATA = Path(__file__).resolve().parent / "data"


def _digest(cases):
    h = hashlib.sha256()
    for name, data, w in cases:
        out, report = debloat_module(data, w)
        doc = json.loads(report_to_document(report))
        del doc["timestamp"]
        h.update(name.encode())
        for part in (data, out, json.dumps(doc, sort_keys=True).encode()):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def _generated(control_flow):
    for trap_free in (False, True):
        for seed in range(200):
            m, w = modulegen.generate_pair(seed, trap_free=trap_free, control_flow=control_flow)
            yield f"seed {seed} trap_free={trap_free}", encode(m), w


def test_outputs_and_reports_match_the_pinned_digest():
    pairs = ((name, encode(m), w) for name, m, w in fx.PAIRS)
    assert _digest((*pairs, *_generated(False))) == GOLDEN


def test_control_flow_outputs_and_reports_match_the_pinned_digest():
    lexer = workload_from_document((DATA / "cjs_lexer.workload.json").read_text("utf-8"))
    cases = (*_generated(True), ("cjs_lexer", (DATA / "cjs_lexer.wasm").read_bytes(), lexer))
    assert _digest(cases) == GOLDEN_CONTROL_FLOW
