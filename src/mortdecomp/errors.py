"""Exception types shared across the package."""

from __future__ import annotations

import math
import numbers


class MortdecompError(Exception):
    """Base class for all package errors.

    Every error pickles to an equal one (same type, message and fields),
    so an error raised in a worker process reaches the parent unchanged.
    A subclass whose constructor takes other arguments than the message
    defines ``__reduce__`` to rebuild itself from those arguments.
    """


class SchemaError(MortdecompError, ValueError):
    """Input data or configuration does not match the covariate schema."""


class RowError(MortdecompError, ValueError):
    """A data row could not be parsed; carries the 1-based file line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        self.reason = message
        super().__init__(f"line {line_number}: {message}")

    def __reduce__(self):
        return type(self), (self.line_number, self.reason), self.__dict__


class EmptyInputError(MortdecompError, ValueError):
    """Input file contains no header or no data rows."""


class DegenerateDesignError(MortdecompError, ValueError):
    """A non-intercept design column is constant across all rows."""

    def __init__(self, column_name: str, message: str | None = None):
        self.column_name = column_name
        super().__init__(message or f"design column for '{column_name}' is constant across all rows")

    def __reduce__(self):
        return type(self), (self.column_name, str(self)), self.__dict__


class SingularDesignError(MortdecompError, RuntimeError):
    """The coefficient full-conditional precision is numerically singular."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"design cross-product is numerically singular (smallest eigenvalue {min_eigenvalue:.3e}); "
            "check for collinear columns"
        )

    def __reduce__(self):
        return type(self), (self.min_eigenvalue,), self.__dict__


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


def require_number(value, where: str, kind=float):
    """``kind(value)`` for ``kind`` ``float`` or ``int``.

    ``ConfigError`` unless ``value`` is a finite number, and a whole one
    for ``int``: strings and booleans are rejected, never converted.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(value)
    what = "a finite number" if kind is float else "a whole number"
    raise ConfigError(f"{where} must be {what}, got {value!r}")


def require_bool(value, where: str) -> bool:
    """``value`` if it is a JSON boolean; ``ConfigError`` otherwise (``"false"`` and ``0`` are not)."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be true or false, got {value!r}")


def require_str(value, where: str) -> str:
    """``value`` if it is a string; ``ConfigError`` otherwise, never converted."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"{where} must be a string, got {value!r}")
