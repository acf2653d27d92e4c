"""A pinned digest of what the debloater writes.

One SHA-256 covers, for every ``fixturelib.PAIRS`` entry and
``modulegen.generate_pair`` seeds 0-199 with and without ``trap_free``:
the encoded input module, the debloated bytes and the report document
without its ``timestamp``. A change to the encoder, the debloater, the
report or a fixture's instructions changes the digest. The digest was
computed before function bodies were stored in binary order, so it also
pins that the move changed no output byte.
"""

import hashlib
import json

import fixturelib as fx
import modulegen
from wasmdebloat import debloat_module, encode
from wasmdebloat.documents import report_to_document

GOLDEN = "fa84429a5b8b42252501a1cd86703cd98a7f23410cbb5e3125c5a0760ad713e1"


def _cases():
    for name, m, w in fx.PAIRS:
        yield name, m, w
    for trap_free in (False, True):
        for seed in range(200):
            m, w = modulegen.generate_pair(seed, trap_free=trap_free)
            yield f"seed {seed} trap_free={trap_free}", m, w


def test_outputs_and_reports_match_the_pinned_digest():
    h = hashlib.sha256()
    for name, m, w in _cases():
        data = encode(m)
        out, report = debloat_module(data, w)
        doc = json.loads(report_to_document(report))
        del doc["timestamp"]
        h.update(name.encode())
        for part in (data, out, json.dumps(doc, sort_keys=True).encode()):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    assert h.hexdigest() == GOLDEN
