"""JDBL's client experiment, on generated modules.

JDBL debloats libraries with one workload and then asks how many of
1,072 client projects still build and pass their tests. Here a library
is a generated module, its tracing workload is the even-numbered
invocations of its workload, and each odd-numbered invocation is one
client: a use of the same exports the trace never saw. A client survives
when ``validate_behavior`` finds the debloated module behaves exactly as
the original on that invocation alone.

The counts are pinned so that a change to the plan or to the verdict
shows as a changed number; the README's client table reads them. The
corpus and the split are fixed: seeds and rules are never chosen to move
the share.
"""

from collections import Counter

import modulegen
from wasmdebloat import debloat_module, encode, validate_behavior
from wasmdebloat.interp import Workload


def test_held_out_clients_of_debloated_modules():
    clients = identical = too_few = debloated = 0
    code_before = code_after = 0
    fields = Counter()
    for seed in range(200):
        for trap_free in (False, True):
            m, w = modulegen.generate_pair(seed, trap_free=trap_free)
            if len(w.invocations) < 2:
                too_few += 1  # no invocation left to trace or to be a client
                continue
            data = encode(m)
            out, report = debloat_module(data, Workload(w.invocations[0::2], w.fuel))
            debloated += 1
            code_before += report.stats.code_bytes_before
            code_after += report.stats.code_bytes_after
            for client in w.invocations[1::2]:
                verdict = validate_behavior(data, out, Workload((client,), w.fuel))
                clients += 1
                identical += verdict.behavioral_ok
                fields.update({mm.field for mm in verdict.mismatches})
    assert (clients, identical, too_few, debloated) == (481, 387, 74, 326)
    # clients with at least one mismatch of each field
    assert fields == {"outcome": 91, "hostCalls": 16, "finalMemory": 9}
    assert (code_before, code_after) == (30_029, 19_755)
