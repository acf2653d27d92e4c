"""JDBL's client experiment, on generated modules.

JDBL debloats libraries with one workload and then asks how many of
1,072 client projects still build and pass their tests. Here a library
is a generated module. A fixed rule splits its workload by invocation
number: the invocations the rule traces are the workload the module is
debloated with, and each other invocation is one client, a use of the
same exports the trace never saw. A client survives when
``validate_behavior`` finds the debloated module behaves exactly as the
original on that invocation alone. A pair with no client is skipped.

The first table traces the even-numbered invocations. The coverage rows
trace invocation i when ``i % 4 < k``, for k = 1, 2 and 3, so they show
how survival grows as the trace covers more of the workload.

The counts are pinned so that a change to the plan or to the verdict
shows as a changed number; the README's client table reads them. The
corpus and the splits are fixed: seeds and rules are never chosen to
move the share.
"""

from collections import Counter

import pytest

import modulegen
from wasmdebloat import debloat_module, encode, validate_behavior
from wasmdebloat.interp import Workload


def run_clients(traced):
    """The experiment over ``generate_pair`` seeds 0-199, with and
    without ``trap_free``, tracing invocation i when ``traced(i)``:
    the counts (clients, identical, skipped pairs, debloated modules),
    the clients with at least one mismatch of each field, and the code
    bytes (before, after) over the debloated modules."""
    clients = identical = skipped = debloated = 0
    code_before = code_after = 0
    fields = Counter()
    for seed in range(200):
        for trap_free in (False, True):
            m, w = modulegen.generate_pair(seed, trap_free=trap_free)
            split = [traced(i) for i in range(len(w.invocations))]
            if all(split):
                skipped += 1  # no invocation left to be a client
                continue
            trace = tuple(inv for inv, t in zip(w.invocations, split) if t)
            data = encode(m)
            out, report = debloat_module(data, Workload(trace, w.fuel))
            debloated += 1
            code_before += report.stats.code_bytes_before
            code_after += report.stats.code_bytes_after
            for client in (inv for inv, t in zip(w.invocations, split) if not t):
                verdict = validate_behavior(data, out, Workload((client,), w.fuel))
                clients += 1
                identical += verdict.behavioral_ok
                fields.update({mm.field for mm in verdict.mismatches})
    return (clients, identical, skipped, debloated), fields, (code_before, code_after)


def test_held_out_clients_of_debloated_modules():
    counts, fields, code = run_clients(lambda i: i % 2 == 0)
    assert counts == (481, 387, 74, 326)
    assert fields == {"outcome": 91, "hostCalls": 16, "finalMemory": 9}
    assert code == (30_029, 19_755)


# per k: (clients, identical, skipped pairs, debloated modules), the
# clients with a mismatch of each field, and the code bytes (before, after)
COVERAGE_ROWS = {
    1: (
        (715, 486, 74, 326),
        {"outcome": 223, "hostCalls": 45, "finalMemory": 16},
        (30_029, 17_699),
    ),
    2: (
        (389, 308, 166, 234),
        {"outcome": 77, "hostCalls": 17, "finalMemory": 4},
        (21_583, 14_612),
    ),
    3: (
        (155, 142, 245, 155),
        {"outcome": 12, "hostCalls": 2},
        (13_604, 10_139),
    ),
}


@pytest.mark.parametrize("k", sorted(COVERAGE_ROWS))
def test_clients_by_workload_coverage(k):
    assert run_clients(lambda i: i % 4 < k) == COVERAGE_ROWS[k]
