"""Workload-driven debloating for WebAssembly 1.0 modules.

Run a workload through the tracing interpreter, keep what executed (plus
everything statically required for validity), stub or remove the rest,
and prove the result behaves identically by replaying the workload
against the recorded observation log.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .decode import decode, section_sizes
from .encode import encode
from .errors import (
    DocumentError,
    EncodeError,
    IndexOutOfRange,
    LinkError,
    MalformedBinary,
    PlanMismatch,
    SignatureMismatch,
    TrapError,
    UnknownExport,
    WasmDebloatError,
)
from .interp import (
    DEFAULT_FUEL,
    ExecutionTrace,
    Instance,
    Invocation,
    ObservationLog,
    Results,
    Trap,
    Value,
    Workload,
    instantiate,
    invoke,
    run_workload,
)
from .module import Module
from .pipeline import (
    DebloatReport,
    ValidationVerdict,
    debloat_module,
    validate_behavior,
)
from .plan import Disposition, KeepPlan, close_references
from .shrink import ShrinkStats, apply_plan, shrink_stats
from .validate import ValidationReport, validate_module

__all__ = [
    "__version__",
    "decode",
    "encode",
    "section_sizes",
    "validate_module",
    "ValidationReport",
    "Module",
    "Value",
    "Invocation",
    "Workload",
    "Results",
    "Trap",
    "ObservationLog",
    "ExecutionTrace",
    "Instance",
    "instantiate",
    "invoke",
    "run_workload",
    "DEFAULT_FUEL",
    "Disposition",
    "KeepPlan",
    "close_references",
    "ShrinkStats",
    "apply_plan",
    "shrink_stats",
    "DebloatReport",
    "ValidationVerdict",
    "debloat_module",
    "validate_behavior",
    "WasmDebloatError",
    "MalformedBinary",
    "EncodeError",
    "LinkError",
    "TrapError",
    "UnknownExport",
    "SignatureMismatch",
    "IndexOutOfRange",
    "PlanMismatch",
    "DocumentError",
]
