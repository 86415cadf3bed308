"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: config errors exit 2, data errors
exit 3, numeric/degenerate errors exit 4, and a MemoryError exits 1.
"""

from __future__ import annotations


class GofusionError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(GofusionError):
    """Invalid configuration or parameters (bad k, m < 2, missing paths)."""

    exit_code = 2


class DataError(GofusionError):
    """Malformed or inconsistent input data."""

    exit_code = 3


class ParseError(DataError):
    """Syntax error in an input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(DataError):
    """Structurally invalid data (dangling edges, cycles, bad namespaces)."""


class UnknownIdError(DataError):
    """A gene or term identifier could not be resolved."""


class EmptyCorpusError(DataError):
    """Annotation loading retained zero genes."""


class AlignmentError(DataError):
    """Two matrices or partitions do not cover the same ordered gene set."""


class DegenerateError(GofusionError):
    """Numeric degeneracy: all-zero vectors, zero-variance rows, NaNs."""

    exit_code = 4
