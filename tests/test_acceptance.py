"""Acceptance checks for the whole debloat pipeline.

Each criterion prints one PASS or FAIL line (visible under pytest -s).
Trace-containment invariants are asserted inline on every workload run
in the earlier criteria and tallied for the final one.
"""

import dataclasses
import time

import fixturelib as fx
import modulegen
from wasmdebloat import (
    Disposition,
    Trap,
    apply_plan,
    close_references,
    debloat_module,
    decode,
    encode,
    instantiate,
    invoke,
    run_workload,
    validate_behavior,
    validate_module,
)
from wasmdebloat.errors import LinkError, TrapError
from wasmdebloat.interp import Value

CONTAINMENT_CHECKS = {"count": 0}


class criterion:
    """Prints exactly one PASS/FAIL line for the enclosed block."""

    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.detail = ""

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def elapsed(self):
        return time.monotonic() - self.started

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        suffix = f" ({self.detail})" if self.detail and exc_type is None else ""
        print(f"{status} criterion {self.number}: {self.label}{suffix}")
        return False


def check_containment(m, w, log, trace):
    """Structural invariants every collected trace must satisfy."""
    n_imports = m.num_func_imports
    defined = set(range(n_imports, n_imports + len(m.functions)))
    imports = set(range(n_imports))
    element_listed = set()
    for seg in m.elements:
        element_listed.update(seg.func_indices)

    assert trace.entered <= defined
    assert trace.call_targets <= trace.entered | imports
    assert trace.table_observed <= element_listed
    # targets that trapped on a signature mismatch are observed without
    # being entered; only when no such trap occurred is the stronger
    # containment required
    mismatch_seen = any(
        isinstance(r.outcome, Trap) and r.outcome.kind == "indirect-call-type-mismatch"
        for r in log.records
    )
    if not mismatch_seen:
        assert trace.table_observed <= trace.entered
    if m.start is not None and log.instantiation_error is None:
        assert m.start in trace.entered
    CONTAINMENT_CHECKS["count"] += 1


def traced_run(m, w):
    log, trace = run_workload(m, w)
    check_containment(m, w, log, trace)
    return log, trace


def plan_for(m, w):
    _, trace = traced_run(m, w)
    return close_references(m, trace), trace


def zero_args(params):
    make = {"i32": Value.i32, "i64": Value.i64, "f32": Value.f32, "f64": Value.f64}
    return tuple(make[t](0) for t in params)


def test_criterion_1_round_trip():
    with criterion(1, "decode/encode round-trip identity") as c:
        hand = 0
        for name, m in fx.ROUND_TRIP_MODULES:
            assert decode(encode(m)) == m, name
            hand += 1
        assert hand >= 20
        for name, data in fx.BYTE_FIXTURES:
            m = decode(data)
            assert decode(encode(m)) == m, name
        # canonical byte fixtures reproduce their exact bytes
        for data in (fx.EMPTY_BYTES, fx.ADD_BYTES, fx.UNREACHABLE_EXPORT_BYTES):
            assert encode(decode(data)) == data
        generated = 0
        for seed in range(200):
            m, _ = modulegen.generate_pair(seed)
            assert decode(encode(m)) == m, f"seed {seed}"
            generated += 1
        assert generated >= 200
        assert c.elapsed() < 10.0
        c.detail = f"{hand} hand-built + {generated} generated, {c.elapsed():.2f}s"


def test_criterion_2_behavior_preservation():
    with criterion(2, "debloated modules preserve workload behavior") as c:
        checked = 0
        for name, m, w in fx.PAIRS:
            traced_run(m, w)
            _, report = debloat_module(encode(m), w)
            assert report.validation.syntactic_ok, name
            assert report.validation.behavioral_ok, name
            checked += 1
        generated = 0
        for seed in range(1000, 1100):
            m, w = modulegen.generate_pair(seed)
            traced_run(m, w)
            _, report = debloat_module(encode(m), w)
            assert report.validation.fully_ok, f"seed {seed}"
            generated += 1
        assert generated >= 100
        assert c.elapsed() < 30.0
        c.detail = f"{checked} fixture + {generated} generated pairs, {c.elapsed():.2f}s"


def test_criterion_3_kept_bodies_are_necessary():
    with criterion(3, "stubbing any entered kept body flips the verdict") as c:
        flips = 0
        modules = 0
        for seed in range(2000, 2040):
            m, w = modulegen.generate_pair(seed, trap_free=True, max_defined=6)
            data = encode(m)
            plan, trace = plan_for(m, w)
            targets = [
                i
                for i in sorted(trace.entered)
                if plan.dispositions[i] is Disposition.KEEP_BODY
            ]
            assert targets, f"seed {seed} exercised nothing"
            for i in targets:
                dispositions = list(plan.dispositions)
                dispositions[i] = Disposition.STUB
                forced = dataclasses.replace(
                    plan, dispositions=tuple(dispositions)
                )
                out = encode(apply_plan(m, forced))
                verdict = validate_behavior(data, out, w)
                assert not verdict.behavioral_ok, f"seed {seed}, function {i}"
                flips += 1
            modules += 1
        assert modules == 40 and flips >= modules
        assert c.elapsed() < 60.0
        c.detail = f"{flips} forced stubs across {modules} modules, {c.elapsed():.2f}s"


def test_criterion_4_idempotence():
    with criterion(4, "debloating twice is byte-identical to once") as c:
        cases = 0
        for name, m, w in fx.PAIRS:
            traced_run(m, w)
            once, _ = debloat_module(encode(m), w)
            twice, report = debloat_module(once, w)
            assert twice == once, name
            assert report.validation.fully_ok, name
            cases += 1
        for seed in range(3000, 3030):
            m, w = modulegen.generate_pair(seed)
            traced_run(m, w)
            once, _ = debloat_module(encode(m), w)
            twice, _ = debloat_module(once, w)
            assert twice == once, f"seed {seed}"
            cases += 1
        c.detail = f"{cases} cases, {c.elapsed():.2f}s"


def test_criterion_5_calculator_quantities():
    with criterion(5, "calculator workload hits the expected ratios") as c:
        m = fx.calculator_module()
        traced_run(m, fx.CALCULATOR_WORKLOAD)
        _, report = debloat_module(encode(m), fx.CALCULATOR_WORKLOAD)
        assert report.remove_ratio >= 30.0 - 1e-9
        assert abs(report.keep_ratio - 40.0) < 1e-9
        assert report.stats.code_bytes_after < report.stats.code_bytes_before
        assert report.validation.fully_ok
        c.detail = (
            f"keep {report.keep_ratio:.1f}%, remove {report.remove_ratio:.1f}%, "
            f"code {report.stats.code_bytes_before}B -> "
            f"{report.stats.code_bytes_after}B"
        )


def test_criterion_6_stubs_trap_when_poked():
    with criterion(6, "every sampled stubbed export traps as unreachable") as c:
        sampled = 0
        corpus = [(name, m, w) for name, m, w in fx.PAIRS]
        corpus += [
            (f"seed {seed}",) + modulegen.generate_pair(seed)
            for seed in range(1000, 1040)
        ]
        for name, m, w in corpus:
            plan, _ = plan_for(m, w)
            stub_exports = [
                e
                for e in m.exports
                if e.kind == "func" and plan.dispositions[e.index] is Disposition.STUB
            ]
            if not stub_exports:
                continue
            out, _ = debloat_module(encode(m), w)
            shrunk = decode(out)
            try:
                inst = instantiate(shrunk)
            except (TrapError, LinkError):
                continue
            types = {e.name: None for e in stub_exports}
            for e in shrunk.exports:
                if e.name in types:
                    fn = shrunk.functions[e.index - shrunk.num_func_imports]
                    types[e.name] = shrunk.types[fn.type_index]
            for export_name, ftype in types.items():
                outcome = invoke(inst, export_name, zero_args(ftype.params))
                assert isinstance(outcome, Trap), (name, export_name)
                assert outcome.kind == "unreachable", (name, export_name)
                sampled += 1
        assert sampled >= 10
        c.detail = f"{sampled} stubbed exports invoked, {c.elapsed():.2f}s"


def test_criterion_7_containment_asserted_throughout():
    with criterion(7, "trace containment held on every collected trace") as c:
        count = CONTAINMENT_CHECKS["count"]
        assert count >= 200
        c.detail = f"{count} traces checked inline"
