"""End-to-end debloat: trace, rewrite, replay, report.

The behavioral oracle is the observation log of the tracing run. The
verdict is always computed on bytes: ``debloat_module`` decodes the
bytes it returns, ``validate_behavior`` the bytes it is given, and both
pass the decoded module to ``behavior_verdict``. That module must be
valid, and replaying the same workload against the same fixed host must
reproduce the oracle; any divergence in outcomes, host-call sequences,
final memory, or instantiation result is a mismatch. Trap comparison is
by kind only: the trapping function's index is honestly different after
remapping.

Execution is deterministic, so the trace-phase log doubles as the
oracle; the original module is not executed a second time.

A ``DebloatReport`` holds only facts: the shrink stats, the execution
trace and the verdict. A ``ValidationVerdict`` holds only its
mismatches. Every ratio and every ok flag is a property computed from
those facts, so no two fields of a report can disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

from .decode import decode
from .encode import encode
from .errors import MalformedBinary
from .interp import (
    ExecutionTrace,
    LinkFailure,
    ObservationLog,
    Results,
    Trap,
    Workload,
    run_workload,
)
from .module import Module
from .plan import Disposition, KeepPlan, close_references
from .shrink import ShrinkStats, apply_plan, shrink_stats
from .validate import validate_module


@dataclass(frozen=True)
class Mismatch:
    # -1 marks whole-run fields (instantiation, final memory); invocations
    # count from 0
    invocation_index: int
    field: str
    original: str
    debloated: str


@dataclass(frozen=True)
class ValidationVerdict:
    mismatches: tuple[Mismatch, ...]

    @property
    def syntactic_ok(self) -> bool:
        return all(mm.field != "syntactic" for mm in self.mismatches)

    @property
    def behavioral_ok(self) -> bool:
        return not self.mismatches

    # an invalid module is also a behavior change: any mismatch fails both
    fully_ok = behavioral_ok


@dataclass(frozen=True)
class DebloatReport:
    stats: ShrinkStats
    trace: ExecutionTrace
    validation: ValidationVerdict
    tool_version: str
    timestamp: str

    def _percent_of_functions(self, count: int, if_none: float) -> float:
        s = self.stats
        defined = s.functions_kept_body + s.functions_stubbed + s.functions_removed
        return 100.0 * count / defined if defined else if_none

    @property
    def keep_ratio(self) -> float:
        return self._percent_of_functions(self.stats.functions_kept_body, 100.0)

    @property
    def stub_ratio(self) -> float:
        return self._percent_of_functions(self.stats.functions_stubbed, 0.0)

    @property
    def remove_ratio(self) -> float:
        return self._percent_of_functions(self.stats.functions_removed, 0.0)

    @property
    def bytes_saved_percent(self) -> float:
        return 100.0 * (1.0 - self.stats.bytes_after / self.stats.bytes_before)


def _render_outcome(outcome) -> str:
    if outcome is None:
        return "ok"
    if isinstance(outcome, Results):
        return "Results[" + ", ".join(str(v) for v in outcome.values) + "]"
    if isinstance(outcome, Trap):
        return f"Trap({outcome.kind})"
    return f"LinkError({outcome.message})"  # a LinkFailure


def _render_host_calls(calls) -> str:
    return (
        "[" + ", ".join(f"{c.name}({', '.join(map(str, c.args))})" for c in calls) + "]"
    )


def _first_difference(a: bytes, b: bytes) -> int | None:
    """The first offset below both lengths where ``a`` and ``b`` differ: a
    bisection of slice comparisons, which run at memcmp speed."""
    lo, hi = 0, min(len(a), len(b))
    if a[:hi] == b[:hi]:
        return None
    while hi - lo > 1:  # a[:lo] == b[:lo] and a[lo:hi] != b[lo:hi]
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if a[lo:mid] == b[lo:mid] else (lo, mid)
    return lo


def _render_memory(mem: bytes | None, at: int | None) -> str:
    if mem is None:
        return "absent"
    return f"{len(mem)} bytes" + ("" if at is None else f", 0x{mem[at]:02x} at offset {at}")


def _outcome_key(outcome):
    """What of an outcome a replay must reproduce: a trap's kind only (the
    trapping function's index changes with remapping), any other outcome's
    type and value."""
    return (Trap, outcome.kind) if isinstance(outcome, Trap) else (type(outcome), outcome)


def compare_logs(
    original: ObservationLog, debloated: ObservationLog
) -> tuple[Mismatch, ...]:
    out: list[Mismatch] = []

    def rule(index: int, field: str, a, b, render=str, key=lambda value: value) -> None:
        if key(a) != key(b):
            out.append(Mismatch(index, field, render(a), render(b)))

    rule(-1, "instantiation", original.instantiation_error, debloated.instantiation_error,
         _render_outcome, _outcome_key)
    rule(-1, "hostCalls", original.instantiation_host_calls,
         debloated.instantiation_host_calls, _render_host_calls)
    rule(-1, "invocationCount", len(original.records), len(debloated.records))
    for i, (ra, rb) in enumerate(zip(original.records, debloated.records)):
        if ra != rb:  # equal records have equal fields; most runs match
            rule(i, "outcome", ra.outcome, rb.outcome, _render_outcome, _outcome_key)
            rule(i, "hostCalls", ra.host_calls, rb.host_calls, _render_host_calls)
    a, b = original.final_memory, debloated.final_memory
    if a != b:
        at = None if a is None or b is None else _first_difference(a, b)
        out.append(Mismatch(-1, "finalMemory", _render_memory(a, at), _render_memory(b, at)))
    return tuple(out)


def load_module(data: bytes, role: str) -> Module:
    """Decode and validate ``data``; an invalid module raises
    ``MalformedBinary`` naming its ``role`` ("input", "original")."""
    m = decode(data)
    report = validate_module(m)
    if not report.ok:
        loc, msg = report.errors[0]
        raise MalformedBinary(0, f"{role} module invalid at {loc}: {msg}")
    return m


def behavior_verdict(
    oracle: ObservationLog, debloated: Module, w: Workload
) -> ValidationVerdict:
    """Validate the decoded ``debloated`` module and, only if it is
    valid, replay ``w`` on it and compare the log against ``oracle``."""
    # replaying an invalid module would hit undefined interpreter
    # behavior; the verdict records the invalidity instead
    if not validate_module(debloated).ok:
        flag = Mismatch(-1, "syntactic", "valid module", "invalid module")
        return ValidationVerdict((flag,))
    replay_log, _ = run_workload(debloated, w)
    return ValidationVerdict(compare_logs(oracle, replay_log))


def validate_behavior(
    original: bytes, debloated: bytes, w: Workload
) -> ValidationVerdict:
    m_orig = load_module(original, "original")
    m_debl = decode(debloated)
    log_orig, _ = run_workload(m_orig, w)
    return behavior_verdict(log_orig, m_debl, w)


def build_report(
    stats: ShrinkStats, verdict: ValidationVerdict, trace: ExecutionTrace
) -> DebloatReport:
    from . import __version__

    return DebloatReport(
        stats=stats,
        trace=trace,
        validation=verdict,
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def debloat_module(data: bytes, w: Workload) -> tuple[bytes, DebloatReport]:
    """Trace ``w`` on ``data``, drop what it never reached, and judge
    the bytes returned: the verdict in the report is on their decoding."""
    m = load_module(data, "input")
    log, trace = run_workload(m, w)
    plan = close_references(m, trace)
    if isinstance(log.instantiation_error, LinkFailure):
        # nothing ran, and the output must fail to link as the input does:
        # a link error names an import by name and type, not by index
        n = m.num_func_imports
        plan = KeepPlan((Disposition.KEEP_BODY,) * n + plan.dispositions[n:])
    out_bytes = encode(apply_plan(m, plan))
    verdict = behavior_verdict(log, decode(out_bytes), w)
    stats = shrink_stats(m, plan, data, out_bytes)
    return out_bytes, build_report(stats, verdict, trace)
