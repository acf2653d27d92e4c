"""Exception types shared across the package."""

from __future__ import annotations


class WasmDebloatError(Exception):
    """Base class for all errors raised by this package."""


class MalformedBinary(WasmDebloatError):
    """The input bytes are not a well-formed WebAssembly 1.0 binary."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"malformed binary at offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class EncodeError(WasmDebloatError):
    """A value cannot be represented in the binary format, at ``location``."""

    def __init__(self, reason: str, location: str | None = None):
        super().__init__(reason)
        self.location = location


class LinkError(WasmDebloatError):
    """Instantiation failed because an import could not be satisfied."""


class TrapError(WasmDebloatError):
    """A trap occurred outside normal invocation (instantiation/start)."""

    def __init__(self, kind: str, function_index: int | None = None):
        super().__init__(f"trap: {kind}")
        self.kind = kind
        self.function_index = function_index


class UnknownExport(WasmDebloatError):
    """The requested export name does not exist or is not a function."""

    def __init__(self, name: str):
        super().__init__(f"unknown function export: {name!r}")
        self.name = name


class SignatureMismatch(WasmDebloatError):
    """Invocation arguments do not match the exported function type."""

    def __init__(self, expected: str, got: str):
        super().__init__(f"signature mismatch: expected {expected}, got {got}")
        self.expected = expected
        self.got = got


class IndexOutOfRange(WasmDebloatError):
    """A trace or plan refers to an index the module does not have."""


class PlanMismatch(WasmDebloatError):
    """A keep plan does not agree with the module it is applied to."""


class DocumentError(WasmDebloatError):
    """A workload or report document failed to parse."""

    def __init__(self, location: str, reason: str):
        super().__init__(f"{location}: {reason}")
        self.location = location
        self.reason = reason
