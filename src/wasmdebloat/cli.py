"""Command-line front end.

Exit codes: 0 success, 1 input errors (unreadable files, malformed
modules, documents that are not UTF-8 JSON of the documented shape,
unknown exports), 2 validation failure (the validate command, or
debloat with --fail-on-behavior-change), 64 usage errors. ``debloat``
always writes the module and the report; the verdict in the report is
on the written bytes, decoded again. Diagnostics go to stderr;
documents go to stdout unless an output path was given.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .decode import decode, section_sizes
from .documents import (
    report_to_document,
    trace_to_document,
    verdict_to_json,
    workload_from_document,
)
from .errors import DocumentError, WasmDebloatError
from .interp import run_workload
from .opcodes import SECTION_NAMES
from .pipeline import debloat_module, load_module, validate_behavior

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wasm-debloat",
        description="Workload-driven debloating for WebAssembly 1.0 modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("debloat", help="trace, shrink, and validate a module")
    p.add_argument("--module", required=True, help="input .wasm path")
    p.add_argument("--workload", required=True, help="workload document path")
    p.add_argument("--out", required=True, help="output .wasm path")
    p.add_argument("--report", help="report document path (default: stdout)")
    p.add_argument(
        "--fail-on-behavior-change",
        action="store_true",
        help="exit 2 when the replay diverges from the original run",
    )
    p.set_defaults(handler=_cmd_debloat)

    p = sub.add_parser("trace", help="run the workload and print the trace")
    p.add_argument("--module", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--out", help="trace document path (default: stdout)")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("validate", help="compare two modules under one workload")
    p.add_argument("--original", required=True)
    p.add_argument("--debloated", required=True)
    p.add_argument("--workload", required=True)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("stats", help="print section sizes and function counts")
    p.add_argument("--module", required=True)
    p.set_defaults(handler=_cmd_stats)
    return parser


def _read_workload(path: str):
    try:
        text = Path(path).read_text("utf-8")
    except UnicodeDecodeError as e:
        raise DocumentError(f"byte {e.start}", "workload is not UTF-8") from None
    return workload_from_document(text)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def _cmd_debloat(args) -> int:
    data = Path(args.module).read_bytes()
    w = _read_workload(args.workload)
    out_bytes, report = debloat_module(data, w)
    Path(args.out).write_bytes(out_bytes)
    _emit(report_to_document(report), args.report)
    verdict = report.validation
    if args.fail_on_behavior_change and not verdict.fully_ok:
        print(
            f"wasm-debloat: behavior changed: {len(verdict.mismatches)} "
            f"mismatch(es), syntactic_ok={verdict.syntactic_ok}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_trace(args) -> int:
    data = Path(args.module).read_bytes()
    w = _read_workload(args.workload)
    _, trace = run_workload(load_module(data, "input"), w)
    _emit(trace_to_document(trace), args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    original = Path(args.original).read_bytes()
    debloated = Path(args.debloated).read_bytes()
    w = _read_workload(args.workload)
    verdict = validate_behavior(original, debloated, w)
    sys.stdout.write(json.dumps(verdict_to_json(verdict), indent=2) + "\n")
    return EXIT_OK if verdict.fully_ok else EXIT_VALIDATION


def _cmd_stats(args) -> int:
    data = Path(args.module).read_bytes()
    sizes = section_sizes(data)
    m = decode(data)
    doc = {
        "sectionSizes": {
            SECTION_NAMES[sec_id]: count for sec_id, count in sorted(sizes.items())
        },
        "totalBytes": len(data),
        "functionsImported": m.num_func_imports,
        "functionsDefined": len(m.functions),
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (WasmDebloatError, OSError) as e:
        print(f"wasm-debloat: error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())
