"""End-to-end debloat: trace, rewrite, replay, report.

The behavioral oracle is the observation log of the tracing run. The
debloated module replays the same workload against the same fixed host;
any divergence in outcomes, host-call sequences, final memory, or
instantiation result is a mismatch. Trap comparison is by kind only:
the trapping function's index is honestly different after remapping.

Execution is deterministic, so the trace-phase log doubles as the
oracle; the original module is not executed a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

from .decode import decode
from .encode import encode
from .errors import MalformedBinary, WasmDebloatError
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
from .plan import KeepPlan, close_references, consolidate
from .shrink import ShrinkStats, apply_plan, shrink_stats
from .validate import validate_module


@dataclass(frozen=True)
class Options:
    fail_on_behavior_change: bool = False


@dataclass(frozen=True)
class Mismatch:
    # -1 marks whole-run fields (instantiation, digest); invocations
    # count from 0
    invocation_index: int
    field: str
    original: str
    debloated: str


@dataclass(frozen=True)
class ValidationVerdict:
    syntactic_ok: bool
    behavioral_ok: bool
    mismatches: tuple[Mismatch, ...]

    @property
    def fully_ok(self) -> bool:
        return self.syntactic_ok and self.behavioral_ok


@dataclass(frozen=True)
class TraceSummary:
    entered: int
    call_targets: int
    table_observed: int


@dataclass(frozen=True)
class DebloatReport:
    stats: ShrinkStats
    keep_ratio: float
    stub_ratio: float
    remove_ratio: float
    bytes_saved_percent: float
    trace_summary: TraceSummary
    validation: ValidationVerdict
    tool_version: str
    timestamp: str


class ValidationFailed(WasmDebloatError):
    """The debloated artifact exists but did not reproduce the oracle."""

    def __init__(self, output: bytes, report: DebloatReport):
        mismatch_count = len(report.validation.mismatches)
        super().__init__(
            f"behavior changed: {mismatch_count} mismatch(es), "
            f"syntactic_ok={report.validation.syntactic_ok}"
        )
        self.output = output
        self.report = report


def _render_outcome(outcome) -> str:
    if outcome is None:
        return "ok"
    if isinstance(outcome, Results):
        return "Results[" + ", ".join(str(v) for v in outcome.values) + "]"
    if isinstance(outcome, Trap):
        return f"Trap({outcome.kind})"
    if isinstance(outcome, LinkFailure):
        return f"LinkError({outcome.message})"
    return repr(outcome)


def _render_host_calls(calls) -> str:
    return (
        "[" + ", ".join(f"{c.name}({', '.join(map(str, c.args))})" for c in calls) + "]"
    )


def _render_digest(d: int | None) -> str:
    return "absent" if d is None else f"0x{d:016x}"


def _outcomes_equal(a, b) -> bool:
    if isinstance(a, Results) and isinstance(b, Results):
        return a.values == b.values
    if isinstance(a, Trap) and isinstance(b, Trap):
        return a.kind == b.kind
    if isinstance(a, LinkFailure) and isinstance(b, LinkFailure):
        return a.message == b.message
    return a is None and b is None


def compare_logs(
    original: ObservationLog, debloated: ObservationLog
) -> tuple[Mismatch, ...]:
    out: list[Mismatch] = []
    if not _outcomes_equal(original.instantiation_error, debloated.instantiation_error):
        out.append(
            Mismatch(
                -1,
                "instantiation",
                _render_outcome(original.instantiation_error),
                _render_outcome(debloated.instantiation_error),
            )
        )
    if original.instantiation_host_calls != debloated.instantiation_host_calls:
        out.append(
            Mismatch(
                -1,
                "hostCalls",
                _render_host_calls(original.instantiation_host_calls),
                _render_host_calls(debloated.instantiation_host_calls),
            )
        )
    if len(original.records) != len(debloated.records):
        out.append(
            Mismatch(
                -1,
                "invocationCount",
                str(len(original.records)),
                str(len(debloated.records)),
            )
        )
    for i, (ra, rb) in enumerate(zip(original.records, debloated.records)):
        if not _outcomes_equal(ra.outcome, rb.outcome):
            out.append(
                Mismatch(
                    i, "outcome", _render_outcome(ra.outcome), _render_outcome(rb.outcome)
                )
            )
        if ra.host_calls != rb.host_calls:
            out.append(
                Mismatch(
                    i,
                    "hostCalls",
                    _render_host_calls(ra.host_calls),
                    _render_host_calls(rb.host_calls),
                )
            )
    if original.final_memory != debloated.final_memory:
        out.append(
            Mismatch(
                -1,
                "finalMemoryDigest",
                _render_digest(original.final_memory_digest),
                _render_digest(debloated.final_memory_digest),
            )
        )
    return tuple(out)


def _verdict(syntactic_ok: bool, mismatches: tuple[Mismatch, ...]) -> ValidationVerdict:
    return ValidationVerdict(syntactic_ok, not mismatches, mismatches)


def _compare_or_flag(
    syntactic_ok: bool, oracle: ObservationLog, debloated: Module, w: Workload
) -> tuple[Mismatch, ...]:
    # replaying an invalid module would hit undefined interpreter
    # behavior; the verdict records the invalidity instead
    if not syntactic_ok:
        return (Mismatch(-1, "syntactic", "valid module", "invalid module"),)
    replay_log, _ = run_workload(debloated, w)
    return compare_logs(oracle, replay_log)


def validate_behavior(
    original: bytes, debloated: bytes, w: Workload
) -> ValidationVerdict:
    m_orig = decode(original)
    orig_report = validate_module(m_orig)
    if not orig_report.ok:
        loc, msg = orig_report.errors[0]
        raise MalformedBinary(0, f"original module invalid at {loc}: {msg}")
    m_debl = decode(debloated)
    syntactic_ok = validate_module(m_debl).ok
    log_orig, _ = run_workload(m_orig, w)
    mismatches = _compare_or_flag(syntactic_ok, log_orig, m_debl, w)
    return _verdict(syntactic_ok, mismatches)


def build_report(
    m: Module,
    plan: KeepPlan,
    stats: ShrinkStats,
    verdict: ValidationVerdict,
    trace: ExecutionTrace,
) -> DebloatReport:
    from . import __version__

    defined = len(m.functions)
    if defined:
        keep = 100.0 * stats.functions_kept_body / defined
        stub = 100.0 * stats.functions_stubbed / defined
        remove = 100.0 * stats.functions_removed / defined
    else:
        keep, stub, remove = 100.0, 0.0, 0.0
    saved = 100.0 * (1.0 - stats.bytes_after / stats.bytes_before)
    return DebloatReport(
        stats=stats,
        keep_ratio=keep,
        stub_ratio=stub,
        remove_ratio=remove,
        bytes_saved_percent=saved,
        trace_summary=TraceSummary(
            len(trace.entered), len(trace.call_targets), len(trace.table_observed)
        ),
        validation=verdict,
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def debloat_module(
    data: bytes, w: Workload, opts: Options = Options()
) -> tuple[bytes, DebloatReport]:
    m = decode(data)
    report = validate_module(m)
    if not report.ok:
        loc, msg = report.errors[0]
        raise MalformedBinary(0, f"input module invalid at {loc}: {msg}")

    log, trace = run_workload(m, w)
    roots = consolidate(trace, m)
    plan = close_references(m, roots)
    out_module = apply_plan(m, plan)
    out_bytes = encode(out_module)

    syntactic_ok = validate_module(out_module).ok
    verdict = _verdict(syntactic_ok, _compare_or_flag(syntactic_ok, log, out_module, w))

    stats = shrink_stats(data, out_bytes, plan)
    final_report = build_report(m, plan, stats, verdict, trace)
    if opts.fail_on_behavior_change and not verdict.fully_ok:
        raise ValidationFailed(out_bytes, final_report)
    return out_bytes, final_report
