"""Shared exception types.

Every error the package raises deliberately derives from SleuthError so the
CLI can map failures onto its exit-code contract (2 = configuration/usage,
3 = archive data gap) without string matching.
"""


class SleuthError(Exception):
    """Base class for all deliberate failures."""


class UsageError(SleuthError):
    """Bad arguments to an API call or the CLI (exit code 2)."""


class ConfigError(UsageError):
    """Invalid investigation configuration."""


class TraceParseError(SleuthError):
    """Malformed trace document. Carries the offending step index."""

    def __init__(self, message: str, raw_index: int | None = None):
        if raw_index is not None:
            message = f"step {raw_index}: {message}"
        super().__init__(message)
        self.raw_index = raw_index


class ReconstructionError(SleuthError):
    """Trace is well-formed but cannot be mapped back onto frames."""


class FeedError(UsageError):
    """Malformed CSV feed. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ArchiveGapError(SleuthError):
    """Requested block/state/trace is not available (exit code 3)."""


class ProtocolError(SleuthError):
    """Remote endpoint answered with garbage or an RPC-level error."""
