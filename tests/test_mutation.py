"""Fixed-seed byte mutations of valid modules.

Whatever bytes come in, decoding and then validating must end in a
module and a validation report, or in ``MalformedBinary``; debloating
them with the original's workload must end in a result or in a
``WasmDebloatError``; and the CLI must exit with a documented code. Any
other exception is a bug.
"""

import hashlib
import random

import fixturelib as fx
import modulegen
from wasmdebloat import cli, debloat_module, decode, encode, validate_module
from wasmdebloat.documents import workload_to_document
from wasmdebloat.errors import MalformedBinary, WasmDebloatError
from wasmdebloat.interp import Workload

MUTANTS = 10_000
PIPELINE_MUTANTS = 5_000
CLI_EVERY = 25  # the CLI runs every 25th pipeline mutant, 200 in all
MAX_FUEL = 100_000
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


def decode_originals():
    """The encodings of ``fx.PAIRS`` and of ``generate_pair`` seeds 0-7."""
    originals = [encode(m) for _, m, _ in fx.PAIRS]
    return originals + [encode(modulegen.generate_pair(seed)[0]) for seed in range(8)]


def decode_mutants():
    """The fixed-seed mutants that the decode and validate tests share."""
    originals = decode_originals()
    rng = random.Random(20201)
    return [mutate(rng.choice(originals), rng) for _ in range(MUTANTS)]


# the outcome of every mutant, hashed: ("malformed", offset, reason), or
# the re-encoded module and its full error list. A change to the decoder
# or the validator that moves one offset, reason or error message fails
# here. The counts say how many mutants end each way.
OUTCOME_DIGEST = "29c45796502ba9bd490fd370810f2fb4318bdf68bf766236aee0876b494c3b0d"
OUTCOME_COUNTS = {"malformed": 8865, "invalid": 531, "valid": 604}


def test_mutated_modules_decode_and_validate_or_are_malformed():
    digest = hashlib.sha256()
    counts = dict.fromkeys(OUTCOME_COUNTS, 0)
    for data in decode_mutants():
        try:
            m = decode(data)
            errors = validate_module(m).errors
        except MalformedBinary as e:
            outcome = ("malformed", e.offset, e.reason)
            counts["malformed"] += 1
        except Exception as e:
            raise AssertionError(f"{type(e).__name__} on {data.hex()}") from e
        else:
            outcome = (encode(m), errors)
            counts["invalid" if errors else "valid"] += 1
        digest.update(repr(outcome).encode())
    assert counts == OUTCOME_COUNTS
    assert digest.hexdigest() == OUTCOME_DIGEST


def test_mutated_modules_debloat_or_raise_a_package_error(tmp_path):
    originals = [(encode(m), w) for _, m, w in fx.PAIRS]
    originals += [
        (encode(m), w) for m, w in (modulegen.generate_pair(seed) for seed in range(8))
    ]
    rng = random.Random(20202)
    debloated = 0
    for i in range(PIPELINE_MUTANTS):
        data, w = rng.choice(originals)
        data = mutate(data, rng)
        w = Workload(w.invocations, min(w.fuel, MAX_FUEL))
        try:
            debloat_module(data, w)
            debloated += 1
        except WasmDebloatError:
            pass
        except Exception as e:
            raise AssertionError(f"{type(e).__name__} on {data.hex()}") from e
        if i % CLI_EVERY:
            continue
        (tmp_path / "in.wasm").write_bytes(data)
        (tmp_path / "workload.json").write_text(workload_to_document(w))
        code = cli.main(
            [
                "debloat",
                *("--module", str(tmp_path / "in.wasm")),
                *("--workload", str(tmp_path / "workload.json")),
                *("--out", str(tmp_path / "out.wasm")),
                *("--report", str(tmp_path / "report.json")),
            ]
        )
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT), (code, data.hex())
    # enough mutants get through to exercise the whole pipeline
    assert debloated > PIPELINE_MUTANTS // 100
