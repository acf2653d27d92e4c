"""The opcode table: every entry's name, immediate, signature and width.

The decoder, encoder, interpreter and validator all derive their tables
from ``opcodes.OPS``, so one digest over it, in iteration order, pins
what all of them see.
"""

import hashlib

from wasmdebloat.opcodes import NAME_TO_OPCODE, OPS

# SHA-256 of repr([(code, name, imm, pops, pushes, width), ...]) over OPS
OPS_SHA256 = "2fc111294add74ce723cdbefa66e3b0becc9046cb22599af009171064485b983"


def test_opcode_table_is_pinned():
    rows = [(code, i.name, i.imm, i.pops, i.pushes, i.width) for code, i in OPS.items()]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == OPS_SHA256
    assert len(OPS) == 170
    assert sum(i.pops is not None for i in OPS.values()) == 152
    assert list(OPS) == sorted(OPS)
    assert {NAME_TO_OPCODE[i.name]: i for i in OPS.values()} == OPS
