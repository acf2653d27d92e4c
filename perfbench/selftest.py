"""Self-test of the benchmark's input generators.

    python3 perfbench/selftest.py

For each workload and a few seeds it checks that the generator is
deterministic, that the emitted module passes ``validate_module``, that
the plain-Python expectations agree with one run of the package's
interpreter on the input module and on the debloated output, and that
the code-section scanner agrees with ``decode.section_sizes``. Exits 1
on the first seed that fails a check.
"""

from __future__ import annotations

import sys

import run
import wasmgen

SEEDS = (0, 1, 2)


def check(mods: dict, workload: str, seed: int) -> list[str]:
    generate = wasmgen.GENERATORS[workload]
    case = generate(seed)
    problems = []
    if generate(seed) != case:
        problems.append("same seed gave different inputs")
    if generate(seed + 1).module == case.module:
        problems.append("next seed gave the same module")
    report = mods["validate"].validate_module(mods["decode"].decode(case.module))
    if not report.ok:
        problems.append(f"module invalid: {report.errors[:3]}")
        return problems
    problems += [f"input: {e}" for e in run.behaviour_errors(mods, case, case.module)]

    w = mods["documents"].workload_from_document(case.workload)
    out, debloat_report = mods["pipeline"].debloat_module(case.module, w)
    if not debloat_report.validation.fully_ok:
        problems.append(f"verdict: {debloat_report.validation.mismatches[:3]}")
    problems += [f"output: {e}" for e in run.behaviour_errors(mods, case, out)]

    for data in (case.module, out):
        expected = mods["decode"].section_sizes(data).get(10, 0)
        if wasmgen.code_section_size(data) != expected:
            problems.append("code section size disagrees with decode.section_sizes")
    return problems


def main() -> int:
    mods = run.load_package()
    failed = False
    for workload in wasmgen.GENERATORS:
        for seed in SEEDS:
            problems = check(mods, workload, seed)
            print(f"{'FAIL' if problems else 'PASS'} {workload} seed {seed}")
            for p in problems:
                print(f"  {p}")
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
