"""Exception types shared across the package."""

from __future__ import annotations


class MortdecompError(Exception):
    """Base class for all package errors."""


class SchemaError(MortdecompError, ValueError):
    """Input data or configuration does not match the covariate schema."""


class RowError(MortdecompError, ValueError):
    """A data row could not be parsed; carries the 1-based file line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class EmptyInputError(MortdecompError, ValueError):
    """Input file contains no header or no data rows."""


class DegenerateDesignError(MortdecompError, ValueError):
    """A non-intercept design column is constant across all rows."""

    def __init__(self, column_name: str, message: str | None = None):
        self.column_name = column_name
        super().__init__(message or f"design column for '{column_name}' is constant across all rows")


class SingularDesignError(MortdecompError, RuntimeError):
    """The coefficient full-conditional precision is numerically singular."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"design cross-product is numerically singular (smallest eigenvalue {min_eigenvalue:.3e}); "
            "check for collinear columns"
        )


class NonConvergenceError(MortdecompError, RuntimeError):
    """An iterative fit hit its iteration cap; carries the last iterate."""

    def __init__(self, message: str, last_iterate=None):
        self.last_iterate = last_iterate
        super().__init__(message)


class ConfigError(MortdecompError, ValueError):
    """A run or model configuration is invalid."""


def require_object(value, where: str, keys=()) -> dict:
    """``value`` if it is a JSON object holding every key in ``keys``; ``ConfigError`` otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ConfigError(f"{where} is missing key(s): {', '.join(missing)}")
    return value
