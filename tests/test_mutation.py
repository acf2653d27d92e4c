"""Fixed-seed byte mutations of valid modules.

Whatever bytes come in, decoding and then validating must end in a
module and a validation report, or in ``MalformedBinary``; any other
exception is a bug.
"""

import random

import fixturelib as fx
import modulegen
from wasmdebloat import decode, encode, validate_module
from wasmdebloat.errors import MalformedBinary

MUTANTS = 10_000
# the opcodes of block, loop, if, else and end
CONTROL_BYTES = (0x02, 0x03, 0x04, 0x05, 0x0B)


def mutate(data, rng):
    b = bytearray(data)
    kind = rng.randrange(4)
    if kind == 0:  # flip one to three bits
        for _ in range(rng.randint(1, 3)):
            b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
    elif kind == 1:  # truncate
        del b[rng.randrange(len(b)) :]
    elif kind == 2:  # insert a control byte
        b.insert(rng.randrange(len(b) + 1), rng.choice(CONTROL_BYTES))
    else:  # overwrite a byte
        b[rng.randrange(len(b))] = rng.randrange(256)
    return bytes(b)


def test_mutated_modules_decode_and_validate_or_are_malformed():
    originals = [encode(m) for _, m, _ in fx.PAIRS]
    originals += [encode(modulegen.generate_pair(seed)[0]) for seed in range(8)]
    rng = random.Random(20201)
    decoded = 0
    for _ in range(MUTANTS):
        data = mutate(rng.choice(originals), rng)
        try:
            validate_module(decode(data))
        except MalformedBinary:
            continue
        except Exception as e:
            raise AssertionError(f"{type(e).__name__} on {data.hex()}") from e
        decoded += 1
    # enough mutants get past the decoder to exercise the validator
    assert decoded > MUTANTS // 10
