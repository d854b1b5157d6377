"""Exception types, the ``require_*`` checks on input values, the one reader of a config and its sections
(:func:`read_fields`), and the package's one JSON reader (:func:`read_json`) and writer (:func:`write_json`)
and one CSV reader (:func:`read_csv_blocks`, whole-file as :func:`read_csv`, with :func:`csv_line`, the one
rule for a bad record's line) and column-wise writer (:func:`write_csv`): every config section, JSON file and
CSV file the package reads or writes goes through them."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import numbers
from pathlib import Path


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
    """A data row could not be parsed; carries the file and its 1-based line number."""

    def __init__(self, path, line_number: int, message: str):
        self.path = str(path)
        self.line_number = line_number
        self.reason = message
        super().__init__(f"{path}, line {line_number}: {message}")

    def __reduce__(self):
        return type(self), (self.path, self.line_number, self.reason), self.__dict__


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


def require_object(value, where: str, keys=(), allowed=None) -> dict:
    """``value`` if it is a JSON object holding every key in ``keys`` and, when ``allowed``
    is given, no key outside ``keys`` and ``allowed``; ``ConfigError`` otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ConfigError(f"missing key(s): {', '.join(f'{where}.{k}' for k in missing)}")
    if allowed is not None:
        unknown = sorted(set(value) - set(keys) - set(allowed))
        if unknown:
            raise ConfigError(f"{where} has unknown key(s): {', '.join(unknown)}")
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


def require_seed(value) -> int:
    """``value`` if it is a whole number >= 0, as a seed must be; ``ConfigError`` naming ``seed`` otherwise."""
    seed = require_number(value, "seed", int)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def read_fields(cls, value, where: str, kinds: dict):
    """``cls(**value)`` for the dataclass ``cls`` and the JSON object ``value``, the config section at path ``where``
    (``""`` for the whole config).  The fields without a default are required, and no other key is taken (nor an
    ``init=False`` field).  ``kinds`` maps a field to ``int``, ``float``, ``bool``, ``str``, ``tuple`` (a list of
    finite numbers) or a section's reader; a field whose default is ``None`` also takes ``null``.  ``ConfigError``
    naming the key's path otherwise, and prefixed ``<where>:`` in a section when ``cls`` refuses the values."""
    fields = [f for f in dataclasses.fields(cls) if f.init]
    required = [f.name for f in fields if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    values = dict(require_object(value, where or "config", required, [f.name for f in fields]))
    nullable = {f.name for f in fields if f.default is None}
    for key, kind in kinds.items():
        if key in values and not (values[key] is None and key in nullable):
            values[key] = _read_kind(values[key], f"{where}.{key}" if where else key, kind)
    try:
        return cls(**values)
    except MortdecompError as exc:
        if not where:
            raise
        raise ConfigError(f"{where}: {exc}") from None


def _read_kind(value, where: str, kind):
    if kind is bool:
        return require_bool(value, where)
    if kind is str:
        return require_str(value, where)
    if kind in (int, float):
        return require_number(value, where, kind)
    if kind is not tuple:
        return kind(value)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return tuple(require_number(v, where) for v in value)


def read_json(path):
    """The JSON document in the UTF-8 file ``path``; ``ConfigError`` naming the file when it is
    empty (or only whitespace), is not UTF-8 or is not JSON, ``OSError`` when it cannot be read."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not text.strip():
        raise ConfigError(f"{path}: file is empty")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def write_json(doc, path) -> None:
    """Write ``doc`` to ``path`` as UTF-8 JSON with a two-space indent, sorted keys and a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_csv_blocks(path, size: int):
    """The rows of the UTF-8 CSV file ``path`` in lists of at most ``size`` rows, header first, a blank
    line as ``[]``, and a leading byte-order mark dropped; ``ConfigError`` naming the file when it is
    not UTF-8, and the file and line when the CSV reader rejects it (a field over its size limit, say),
    raised when the block that holds the fault is read; ``OSError`` when it cannot be read."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            while block := list(itertools.islice(reader, size)):
                yield block
        except csv.Error as exc:
            raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_csv(path) -> list[list[str]]:
    """Every row of :func:`read_csv_blocks` in one list."""
    return [row for block in read_csv_blocks(path, 4096) for row in block]


def csv_line(path, index: int) -> int:
    """The line of the CSV file ``path`` on which its ``index``-th non-blank record below the header
    ends, counting from 0: the line a reader of :func:`read_csv_blocks`' rows names for a bad record."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        ends = (reader.line_num for row in reader if row)
        return next(itertools.islice(ends, index, None))


# A cell holding any of these is quoted; so is an empty cell that is its row's only field.
_SPECIAL = (",", '"', "\r", "\n")


def _csv_cells(cells: list[str], alone: bool) -> list[str]:
    """``cells`` as the excel dialect writes them: a cell that holds a delimiter, a quote or a line
    break, or that is empty and ``alone`` in its row, quoted with its quotes doubled; others as they are.
    The whole column is checked once, and only when it holds such a cell are its cells checked."""
    text = "".join(cells)
    if not any(ch in text for ch in _SPECIAL) and not (alone and "" in cells):
        return cells
    return [
        '"' + cell.replace('"', '""') + '"' if (alone and not cell) or any(ch in cell for ch in _SPECIAL) else cell
        for cell in cells
    ]


def write_csv(path, header, blocks) -> None:
    """Write ``header``, then the rows of every block of ``blocks``, to ``path`` as UTF-8 CSV in the
    csv module's default (excel) dialect, byte for byte as ``csv.writer`` writes it.

    A block is a list of ``len(header)`` equal-length columns of ``str`` cells; its rows follow the
    previous block's.  Each column is quoted as :func:`_csv_cells` says, and each block's rows are
    joined, each ending in CRLF, and written as one string: a caller bounds the writer's memory by the
    size of its blocks."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for columns in itertools.chain([[[name] for name in header]], blocks):
            alone = len(columns) == 1
            lines = list(map(",".join, zip(*(_csv_cells(cells, alone) for cells in columns), strict=True)))
            lines.append("")  # the last line's CRLF
            fh.write("\r\n".join(lines))
            del columns, lines  # this block's cells go before the next block's are formatted
