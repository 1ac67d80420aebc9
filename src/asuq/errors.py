"""Exception hierarchy shared across the toolkit.

Each class carries the process exit code used by the command-line front end:
1 usage, 2 data/schema, 3 numerical degeneracy, 4 evaluator failure.
"""

__all__ = ["ToolkitError", "UsageError", "DataError", "DegeneracyError",
           "EvaluatorError"]


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class UsageError(ToolkitError):
    """Bad invocation: missing flags, nonsensical option values."""

    exit_code = 1


class DataError(ToolkitError):
    """Malformed input data or schema mismatch (files, vectors, names)."""

    exit_code = 2


class DegeneracyError(ToolkitError):
    """Numerical degeneracy: rank deficiency, constant response,
    unavailable confidence bounds, exhausted bootstrap retries."""

    exit_code = 3


class EvaluatorError(ToolkitError):
    """Black-box evaluation failure (bad subprocess exit, unparseable
    output, non-finite result)."""

    exit_code = 4
