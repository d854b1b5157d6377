"""Two-survey birth microdata: ingestion, centering and design matrices.

A survey sample holds its births as columns, one array per field, in
the order they were read.  Design matrices carry an explicit intercept
column, B-spline-expanded continuous covariates (each value and the
knots shifted by a reference-population mean, which leaves the basis
unchanged), 0/1 coded binary covariates, and a map from covariate name
to its contiguous column block.  Both surveys of a pair must be built
against one shared knot source, the pair's pooled numeric columns from
``pool_samples`` (one survey alone is its own, ``sample.columns``), so
their bases are identical and coefficient blocks can be swapped.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDesignError,
    EmptyInputError,
    RowError,
    SchemaError,
    csv_line,
    read_csv_blocks,
    read_fields,
    require_number,
    require_object,
    write_csv,
)
from .splines import bspline_basis, quantile_knots

__all__ = [
    "SurveySample",
    "CovariateSpec",
    "CovariateSchema",
    "DesignMatrix",
    "default_schema",
    "ingest_csv",
    "write_survey_csv",
    "pool_samples",
    "compute_centering",
    "build_design",
]

AGE_RANGE = (15.0, 45.0)

# Fields a sample can carry beyond outcome and cluster, in CSV column
# order.  Numeric fields are float64 with NaN as the missing marker; the
# leveled fields are str.
_FIELDS = ("maternal_age", "maternal_education", "birth_order", "birth_interval", "wealth_rank", "sex", "residence")
# The one field a birth may lack: a first birth has no previous interval.
MAY_BE_MISSING = "birth_interval"
_LEVELS = {"sex": ("female", "male"), "residence": ("rural", "urban")}
# The keys a covariate spec of each kind takes besides ``name`` and ``kind``.
_KIND_KEYS = {"continuous_spline": ("degree", "df", "allow_missing"), "binary": ("reference",)}
# The share of survey 1's households, poorest first, whose births are the centering reference.
_POOR_QUANTILE = 0.2
# Rows the data layer handles at a time: ``ingest_csv`` parses this many CSV rows and ``build_design``
# evaluates a spline basis on this many.  One block's cells are the only per-cell Python objects the
# CSV reader holds.
_BLOCK_ROWS = 4096
# Cells a CSV file is formatted in at a time: ``write_survey_csv`` and ``save_draws`` take as many
# rows as hold this many cells, a column at a time, and ``write_csv`` joins and writes them as one
# string (for numbers, under glibc's 128 KiB mmap threshold).  A design built after a write piles its
# peak on what the write left resident: the decompose benchmark's set-up, run three times in one
# process, peaked at 53.7 MB with a ``csv.writer`` row at a time, 54.5 MB formatting 1024 births
# (9 cells each) at a time and 52.8 MB formatting 4096 cells; ``run``'s peak rose 2.3 MB when it
# formatted 1024 draws of 25 cells at a time.
_WRITE_CELLS = 4096


def _field_checks(columns: dict) -> list:
    """``(bad-row mask, message for row i)`` for each per-birth field invariant."""
    checks = [
        (np.isnan(col), lambda i, name=name: f"{name} is missing, and only {MAY_BE_MISSING} may be")
        for name, col in columns.items()
        if name not in _LEVELS and name != MAY_BE_MISSING
    ]
    if "wealth_rank" in columns:
        w = columns["wealth_rank"]
        checks.append(((w < 0.0) | (w > 1.0), lambda i: f"wealth_rank must lie in [0, 1], got {float(w[i])}"))
    if "birth_order" in columns:
        b = columns["birth_order"]
        checks.append((b < 1, lambda i: f"birth_order must be >= 1, got {int(b[i])}"))
    for name, levels in _LEVELS.items():
        if name in columns:
            v = columns[name]
            message = lambda i, v=v, name=name, levels=levels: f"{name} must be one of {levels}, got {str(v[i])!r}"  # noqa: E731
            checks.append((~np.isin(v, levels), message))
    return checks


def _nul_checks(name: str, cells) -> list:
    """The check refusing a NUL character in column ``name``'s raw ``cells``; none when no cell holds one.
    numpy's str dtype drops a NUL from a cell's end, so ``"a\\x00"`` would silently read as ``"a"``."""
    if "\x00" not in "".join(cells):
        return []
    return [(np.array(["\x00" in c for c in cells]), lambda i: f"NUL character in {name}={cells[i].strip()!r}")]


def _refuse_missing_or_nul(what: str, values) -> None:
    """``ValueError`` naming the first birth whose entry of ``values`` is ``None``, else the first value that holds
    a NUL character (see ``_nul_checks``).  ``str(None)`` would read as the cluster id or level ``"None"``."""
    cells = [None if c is None else str(c) for c in values]
    if None in cells:
        only = "" if what == "cluster id" else f", and only {MAY_BE_MISSING} may be"
        raise ValueError(f"birth {cells.index(None)}: {what} is missing{only}")
    if "\x00" in "".join(cells):
        nul = next(c for c in cells if "\x00" in c)
        raise ValueError(f"{what} {nul!r} holds a NUL character")


def in_age_range(columns: dict, n: int) -> np.ndarray:
    """Mask of the births whose mother's age does not lie outside ``AGE_RANGE``: a missing age is kept, for
    ``SurveySample`` to refuse; every birth when no age is recorded."""
    if "maternal_age" not in columns:
        return np.ones(n, dtype=bool)
    age = np.asarray(columns["maternal_age"], dtype=float)
    return ~((age < AGE_RANGE[0]) | (age > AGE_RANGE[1]))


class FrozenArrays:
    """Base of the records whose arrays are read-only: ``_freeze`` sets
    every array ``_arrays`` names read-only, on creation and again on
    unpickling, since a pickled array comes back writeable."""

    def _arrays(self) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def _freeze(self) -> None:
        for arr in self._arrays():
            arr.setflags(write=False)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._freeze()


def _first_failure(checks: list) -> tuple[int, str] | None:
    """Earliest failing row and its message; within a row the first check wins."""
    firsts = [(int(rows[0]), k) for k, (bad, _) in enumerate(checks) if (rows := np.flatnonzero(bad)).size]
    if not firsts:
        return None
    row, k = min(firsts)
    return row, checks[k][1](row)


@dataclass(frozen=True, eq=False)
class SurveySample(FrozenArrays):
    """All births of one survey as columns, in the order they were read.

    ``cluster`` holds each birth's code into ``cluster_ids``, which lists
    the clusters in first-appearance order: the first birth's code is 0,
    and each later code is at most one above the highest code before it.
    No cluster id is empty, has surrounding whitespace or holds a NUL
    character, so every id reads back from a written CSV as itself.
    ``columns`` holds one array per ingested or generated field (see
    ``_FIELDS``); only ``MAY_BE_MISSING`` may hold NaN.  A sample holds
    at least one birth.  Arrays are frozen read-only.
    """

    survey_id: str
    outcome: np.ndarray
    cluster: np.ndarray
    cluster_ids: tuple[str, ...]
    columns: dict[str, np.ndarray]
    dropped_rows: int = 0

    def __post_init__(self):
        n = self.n_births
        if not n:
            filtered = f"the maternal_age filter [{AGE_RANGE[0]:g}, {AGE_RANGE[1]:g}]"
            raise EmptyInputError(f"no births left after {filtered}: all {self.dropped_rows} rows dropped")
        if self.cluster.shape != (n,) or any(col.shape != (n,) for col in self.columns.values()):
            raise ValueError("every column needs one entry per birth")
        for name, col in self.columns.items():
            if name not in _FIELDS or col.dtype.kind != ("U" if name in _LEVELS else "f"):
                raise ValueError(f"unexpected column {name!r} of dtype {col.dtype}")
        highest = np.maximum.accumulate(np.concatenate(([-1], self.cluster)))  # the highest code up to each birth
        if np.any(self.cluster < 0) or np.any(self.cluster > highest[:-1] + 1) or highest[-1] != self.n_clusters - 1:
            raise ValueError("cluster codes must run 0..n_clusters-1 in first-appearance order")
        unreadable = next((c for c in self.cluster_ids if not c or c != c.strip()), None)
        if unreadable is not None:  # ingest_csv strips each cell and refuses an empty one
            raise ValueError(f"cluster id {unreadable!r} is empty or has surrounding whitespace")
        _refuse_missing_or_nul("cluster id", self.cluster_ids)
        outcome = ((self.outcome != 0) & (self.outcome != 1), lambda i: f"outcome must be 0 or 1, got {self.outcome[i]}")
        failure = _first_failure([outcome, *_field_checks(self.columns)])
        if failure is not None:
            raise ValueError(f"birth {failure[0]}: {failure[1]}")
        self._freeze()

    def _arrays(self):
        return (self.outcome, self.cluster, *self.columns.values())

    @classmethod
    def from_columns(
        cls, survey_id: str, outcome, cluster_id, columns: dict, dropped_rows: int = 0
    ) -> "SurveySample":
        """Sample from per-birth values, kept in the order given.

        ``cluster_id`` labels each birth's cluster; clusters are coded in
        first-appearance order.  Outcomes become int64, numeric columns
        float64, ``sex`` and ``residence`` str; ``None`` reads as missing.
        An array already of its column's dtype is taken as it is, and
        frozen read-only.  ``ValueError`` naming the birth refuses an
        outcome other than 0 or 1 (``0.7`` is not cast to 0) and a missing
        cluster id, ``sex`` or ``residence``; a value of those three
        holding a NUL character is refused too.
        """
        for what, values in (("cluster id", cluster_id), *((n, columns[n]) for n in _LEVELS if n in columns)):
            if not (isinstance(values, np.ndarray) and values.dtype.kind == "U"):
                # the str conversion below drops a trailing NUL (a str array has lost its own already);
                # __post_init__ refuses a NUL left inside an id, and the level check one inside a level
                _refuse_missing_or_nul(what, values)
        outcome = np.asarray(outcome)
        if outcome.dtype != np.int64:
            outcome = np.asarray(outcome, dtype=float)
            if np.all((outcome == 0.0) | (outcome == 1.0)):  # otherwise __post_init__ names the first other value
                outcome = outcome.astype(np.int64)
        ids, first, inverse = np.unique(np.asarray(cluster_id, dtype=str), return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        return cls(
            survey_id=survey_id,
            outcome=outcome,
            cluster=np.argsort(by_first)[inverse.reshape(-1)],  # rank of each cluster's first appearance
            cluster_ids=tuple(ids[by_first].tolist()),
            columns={name: np.asarray(v, dtype=str if name in _LEVELS else float) for name, v in columns.items()},
            dropped_rows=dropped_rows,
        )

    @property
    def n_births(self) -> int:
        return self.outcome.shape[0]

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_ids)


@dataclass(frozen=True)
class CovariateSpec:
    """One covariate: a spline-expanded continuous variable or a 0/1 binary.

    ``df`` counts design columns contributed by the spline expansion;
    ``allow_missing`` turns on median imputation plus a missingness
    indicator column (the indicator belongs to the covariate's column
    group); only ``MAY_BE_MISSING`` takes it.  A binary's ``reference``
    is one of its field's levels, or a number for a numeric field.
    """

    name: str
    kind: str  # "continuous_spline" | "binary"
    degree: int = 3
    df: int = 4
    reference: object = None
    allow_missing: bool = False

    def __post_init__(self):
        if self.kind not in _KIND_KEYS:
            raise SchemaError(f"unknown covariate kind {self.kind!r} for {self.name!r}")
        if self.kind == "continuous_spline":
            if self.name in _LEVELS:
                raise SchemaError(f"{self.name}: a spline needs a numeric field, not the levels {_LEVELS[self.name]}")
            if self.degree < 0:
                raise SchemaError(f"{self.name}: spline degree must be >= 0")
            if self.df < max(self.degree, 1):
                raise SchemaError(f"{self.name}: df must be >= max(degree, 1), got df={self.df} degree={self.degree}")
            if self.allow_missing and self.name != MAY_BE_MISSING:
                raise SchemaError(f"{self.name}: allow_missing is for {MAY_BE_MISSING} alone, which a birth may lack")
        elif self.reference is None:
            raise SchemaError(f"{self.name}: binary covariate needs a reference level")
        elif self.name not in _LEVELS:
            require_number(self.reference, f"{self.name}: reference")
        elif not (isinstance(self.reference, str) and self.reference in _LEVELS[self.name]):
            raise SchemaError(f"{self.name}: reference must be one of {_LEVELS[self.name]}, got {self.reference!r}")

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "CovariateSpec":
        """The spec in the config object ``d``, read by ``read_fields``; a key its kind does not take is refused."""
        spec = read_fields(cls, d, where, {"name": str, "kind": str, "degree": int, "df": int, "allow_missing": bool})
        refused = sorted(set(d) - {"name", "kind", *_KIND_KEYS[spec.kind]})
        if refused:
            raise ConfigError(f"{where}: a {spec.kind} covariate takes no {', '.join(refused)}")
        return spec

    def to_dict(self) -> dict:
        keys = ("name", "kind", *_KIND_KEYS[self.kind])
        return {k: getattr(self, k) for k in keys if k != "allow_missing" or self.allow_missing}


@dataclass(frozen=True)
class CovariateSchema:
    """Ordered covariate list; the order fixes the default decomposition order."""

    covariates: tuple[CovariateSpec, ...]

    def __post_init__(self):
        names = [c.name for c in self.covariates]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate covariate names in schema: {names}")
        if "intercept" in names:
            raise SchemaError("'intercept' is implicit and cannot be a covariate name")
        unknown = [n for n in names if n not in _FIELDS]
        if unknown:
            raise SchemaError(f"schema names unknown sample fields: {unknown}")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.covariates]

    @property
    def continuous(self) -> list[CovariateSpec]:
        return [c for c in self.covariates if c.kind == "continuous_spline"]

    @classmethod
    def from_dict(cls, d: dict) -> "CovariateSchema":
        covariates = require_object(d, "schema", ("covariates",), ())["covariates"]
        if not isinstance(covariates, (list, tuple)):
            raise ConfigError(f"schema.covariates must be a list, got {covariates!r}")
        return cls(tuple(CovariateSpec.from_dict(c, f"schema.covariates[{i}]") for i, c in enumerate(covariates)))

    def to_dict(self) -> dict:
        return {"covariates": [c.to_dict() for c in self.covariates]}


def default_schema() -> CovariateSchema:
    """Full covariate set with cubic splines (df 4) for continuous variables.

    The order mirrors the default decomposition order: wealth rank,
    maternal education, maternal age, birth order, birth interval, then
    the binary sex and residence covariates.
    """
    return CovariateSchema(
        (
            CovariateSpec("wealth_rank", "continuous_spline"),
            CovariateSpec("maternal_education", "continuous_spline"),
            CovariateSpec("maternal_age", "continuous_spline"),
            CovariateSpec("birth_order", "continuous_spline"),
            CovariateSpec("birth_interval", "continuous_spline", allow_missing=True),
            CovariateSpec("sex", "binary", reference="female"),
            CovariateSpec("residence", "binary", reference="rural"),
        )
    )


@dataclass(frozen=True)
class DesignMatrix(FrozenArrays):
    """Expanded covariate matrix with named column groups.

    ``x`` has a leading all-ones intercept column; ``column_groups``
    maps each covariate to its half-open column range, and together the
    groups partition columns ``1..p-1``.  Arrays are frozen read-only.
    """

    x: np.ndarray
    outcome: np.ndarray
    cluster_index: np.ndarray
    column_groups: dict[str, tuple[int, int]]
    n_clusters: int
    survey_id: str = ""

    def __post_init__(self):
        self._freeze()
        n, p = self.x.shape
        if not np.all(self.x[:, 0] == 1.0):
            raise ValueError("design column 0 must be the all-ones intercept")
        covered = sorted(c for lo, hi in self.column_groups.values() for c in range(lo, hi))
        if covered != list(range(1, p)):
            raise ValueError("column groups must partition columns 1..p-1 without overlap")
        if self.outcome.shape != (n,) or self.cluster_index.shape != (n,):
            raise ValueError("outcome and cluster_index must have one entry per row")

    def _arrays(self):
        return (self.x, self.outcome, self.cluster_index)

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_cols(self) -> int:
        return self.x.shape[1]

    def group_columns(self, name: str) -> slice:
        if name == "intercept":
            return slice(0, 1)
        lo, hi = self.column_groups[name]
        return slice(lo, hi)


def _number(cell: str) -> float | None:
    """A stripped CSV cell as a float (NaN when empty), or None when it does not parse."""
    try:
        return float(cell) if cell else np.nan
    except ValueError:
        return None


def _parse_numbers(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw CSV cells as ``(values, bad, empty)``: floats (NaN where a cell is
    empty or does not parse), the mask of cells that do not parse, and
    the mask of cells that are empty once stripped.

    The whole column parses in one call, and ``float`` strips each cell
    itself, so a column of numbers and empty cells is never stripped.  A
    blank or bad cell fails that call; only then is the column stripped
    and parsed cell by cell.
    """
    try:
        values = np.array([c or "nan" for c in cells], dtype=float)
    except ValueError:
        stripped = [c.strip() for c in cells]
        parsed = [_number(c) for c in stripped]
        bad = np.array([v is None for v in parsed], dtype=bool)
        return np.array(parsed, dtype=float), bad, np.array(stripped) == ""
    empty = np.zeros(values.shape, dtype=bool)
    missing = np.flatnonzero(np.isnan(values))  # empty cells, and "nan" text
    empty[missing] = [cells[i] == "" for i in missing]
    return values, np.zeros(values.shape, dtype=bool), empty


def _header_fault(path: Path, header: list[str], schema: CovariateSchema) -> SchemaError | None:
    """The ``SchemaError`` a survey CSV's stripped ``header`` earns, or None."""
    repeated = next((h for h in ("outcome", "cluster_id", *_FIELDS) if header.count(h) > 1), None)
    if repeated:
        return SchemaError(f"{path}: column {repeated!r} appears more than once in the header")
    missing = [c for c in ["outcome", "cluster_id"] + schema.names if c not in header]
    if missing:
        return SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
    return None


def _read_block(rows: list[list[str]], start: int, width: int, position: dict, fields: list[str]) -> tuple:
    """Non-blank CSV rows ``start``, ``start + 1``, ... under a ``width``-column header, parsed and checked:
    ``(kept, None)``, with the columns of the rows the age filter keeps (``outcome`` as 0/1, ``cluster_id``
    and the leveled fields as stripped str, the numeric fields as floats), or ``({}, (row, message))`` for
    the first bad row; within a row the first check wins, and a row with more cells than the header fails first."""
    table = list(itertools.zip_longest(*rows, fillvalue=""))  # short rows read as empty cells
    checks = []
    if len(table) > width:  # some row has cells past the header's
        wide = np.array([len(row) for row in rows]) > width
        checks.append((wide, lambda i: f"{len(rows[i])} cells under a {width}-column header"))
    table += [("",) * len(rows)] * (width - len(table))
    for name in ("outcome", "cluster_id", *(f for f in fields if f in _LEVELS)):  # str columns, which drop NULs
        checks += _nul_checks(name, table[position[name]])
    outcome = np.array([c.strip() for c in table[position["outcome"]]])
    cluster_id = np.array([c.strip() for c in table[position["cluster_id"]]])
    checks += [
        (~np.isin(outcome, ("0", "1")), lambda i: f"outcome must be 0 or 1, got {str(outcome[i])!r}"),
        (cluster_id == "", lambda i: "empty cluster_id"),
    ]
    columns = {}
    for name in fields:
        cells = table[position[name]]
        if name in _LEVELS:
            columns[name] = values = np.array([c.strip() for c in cells])
            checks.append((values == "", lambda i, name=name: f"empty value for {name!r}"))
            continue
        values, bad, empty = _parse_numbers(cells)
        columns[name] = values
        if name != MAY_BE_MISSING:
            checks.append((empty, lambda i, name=name: f"empty value for {name!r}"))
        if name == "birth_order":  # "3.0" reads as 3; "2.5" does not parse
            bad |= np.isfinite(values) & (values != np.trunc(values))
        for wrong, what in ((bad, "could not parse"), (~np.isfinite(values) & ~empty & ~bad, "non-finite value")):
            checks.append((wrong, lambda i, what=what, name=name, cells=cells: f"{what} {name}={cells[i].strip()!r}"))

    kept = in_age_range(columns, len(rows))
    checks += [(bad & kept, message) for bad, message in _field_checks(columns)]
    failure = _first_failure(checks)
    if failure is not None:
        return {}, (start + failure[0], failure[1])
    part = {"outcome": (outcome[kept] == "1").astype(np.int64), "cluster_id": cluster_id[kept]}
    part.update((name, values[kept]) for name, values in columns.items())
    return part, None


def ingest_csv(path, schema: CovariateSchema, *, survey_id: str = "S1") -> SurveySample:
    """Read one survey's births from CSV, in file order.

    The header must name every schema covariate plus ``outcome`` and
    ``cluster_id``; every other known field in the header is read too,
    and no field the reader knows may be named twice.
    Rows whose maternal age falls outside [15, 45] are dropped; the count
    of dropped rows is recorded on the sample, and a file with no row
    left raises ``EmptyInputError``.  A bad row raises ``RowError`` naming
    the file and the row's CSV line: parse errors (empty, unparseable or
    non-finite cells, and a NUL character in ``outcome``, ``cluster_id``,
    ``sex`` or ``residence``) count on every row, range and level errors
    only on rows that are kept.  A file that is not UTF-8, or that the CSV reader
    rejects (a field over its size limit, say), raises ``ConfigError``
    naming the file, and the line for the CSV reader; those faults come
    first, wherever they are in the file.

    The rows are parsed, checked and filtered ``_BLOCK_ROWS`` at a time,
    and only the kept columns are joined once the file is read.  After a
    bad row the rest of the file is read but not parsed.
    """
    path = Path(path)
    with contextlib.closing(read_csv_blocks(path, _BLOCK_ROWS)) as blocks:
        first = next(blocks, None)
        if first is None:
            raise EmptyInputError(f"{path}: file is empty")
        header = [h.strip() for h in first[0]]
        refused = _header_fault(path, header, schema)
        if refused is not None:
            for _ in blocks:  # the CSV reader's faults further down come first
                pass
            raise refused
        position = {h: j for j, h in enumerate(header)}
        fields = [f for f in _FIELDS if f in position]
        n, parts, failure = 0, [], None
        for block in itertools.chain([first[1:]], blocks):
            rows = [row for row in block if row]  # blank lines are skipped
            if rows and failure is None:
                part, failure = _read_block(rows, n, len(header), position, fields)
                parts.append(part)
            n += len(rows)
    if failure is not None:
        raise RowError(path, csv_line(path, failure[0]), failure[1])
    if not n:
        raise EmptyInputError(f"{path}: header only, no data rows")
    columns = {key: np.concatenate([part.pop(key) for part in parts]) for key in list(parts[0])}
    del parts
    outcome, cluster_id = columns.pop("outcome"), columns.pop("cluster_id")
    try:
        return SurveySample.from_columns(survey_id, outcome, cluster_id, columns, n - outcome.size)
    except EmptyInputError as exc:  # every row was dropped
        raise EmptyInputError(f"{path}: {exc}") from None


def _table_cells(table, codes: np.ndarray) -> list[str]:
    """``table[code]`` for each of ``codes``: cells that share the table's strings."""
    return list(map(table.__getitem__, codes.tolist()))


def _number_cells(values: np.ndarray, integer: bool) -> list[str]:
    """``values`` as CSV cells: ``repr`` of each float, or of its ``int`` when ``integer``; NaN as an empty cell."""
    missing = np.isnan(values)
    if integer:
        cells = list(map(repr, map(int, np.where(missing, 0.0, values).tolist())))
    else:
        cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(missing).tolist():
        cells[i] = ""
    return cells


def write_survey_csv(sample: SurveySample, path) -> None:
    """Write a sample in the CSV layout :func:`ingest_csv` reads.

    Columns missing on every birth are omitted; other missing values are
    empty cells.  Numbers are written as ``repr(float)``, birth orders as
    integers.  Births are formatted as many at a time as hold
    ``_WRITE_CELLS`` cells, a column at once: each numeric column through
    one ``map(repr, ...)``, and the outcome, the two-level fields and the
    cluster ids by looking each code up in a table of their strings;
    :func:`write_csv` quotes the cells that need it and writes the rows.
    """
    cols = sample.columns
    fields = [f for f in _FIELDS if f in cols and (f in _LEVELS or not np.isnan(cols[f]).all())]

    def cells(name, rows):
        if name in _LEVELS:  # every value is one of the two levels
            return _table_cells(_LEVELS[name], cols[name][rows] == _LEVELS[name][1])
        return _number_cells(cols[name][rows], integer=name == "birth_order")

    size = max(1, _WRITE_CELLS // (len(fields) + 2))

    def block(start):
        rows = slice(start, start + size)
        return [
            _table_cells(("0", "1"), sample.outcome[rows]),
            *(cells(name, rows) for name in fields),
            _table_cells(sample.cluster_ids, sample.cluster[rows]),
        ]

    write_csv(path, ["outcome", *fields, "cluster_id"], map(block, range(0, sample.n_births, size)))


def pool_samples(s1: SurveySample, s2: SurveySample) -> dict[str, np.ndarray]:
    """The knot source of a pair of surveys: each numeric field both samples
    carry, as one read-only column of survey 1's values, then survey 2's."""
    shared = [name for name in s1.columns if name not in _LEVELS and name in s2.columns]
    pooled = {name: np.concatenate([s1.columns[name], s2.columns[name]]) for name in shared}
    for column in pooled.values():
        column.setflags(write=False)
    return pooled


def _numeric(sample: SurveySample, name: str) -> np.ndarray:
    """A numeric column; a field the sample lacks is missing on every birth."""
    return sample.columns.get(name, np.full(sample.n_births, np.nan))


def compute_centering(sample1: SurveySample, schema: CovariateSchema) -> dict[str, float]:
    """Mean of each continuous covariate over the poorest households of survey 1, keyed by its name.

    A birth is in the reference population when its wealth rank is
    recorded and at or below ``_POOR_QUANTILE``.  If no birth qualifies
    for a covariate (say, the survey records no wealth rank), its
    full-sample mean is used instead.  Missing values (allowed for birth
    intervals) are excluded from the means.
    """
    poor = _numeric(sample1, "wealth_rank") <= _POOR_QUANTILE  # False where the rank is missing

    values: dict[str, float] = {}
    for cov in schema.continuous:
        col = _numeric(sample1, cov.name)
        observed = ~np.isnan(col)
        vals = col[poor & observed]
        if not vals.size:
            vals = col[observed]
            if not vals.size:
                raise SchemaError(f"covariate {cov.name!r} has no observed values")
        values[cov.name] = float(np.mean(vals))
    return values


@dataclass(frozen=True, eq=False)
class DesignLayout(FrozenArrays):
    """What both designs of a pair share, placed once by ``place_knots``.

    ``column_groups`` is each covariate's half-open column range, as in
    ``DesignMatrix``; ``splines`` maps each continuous covariate to its
    centre and its knots, on the centred scale.  Knot arrays are frozen
    read-only.
    """

    schema: CovariateSchema
    centering: dict[str, float]
    column_groups: dict[str, tuple[int, int]]
    splines: dict[str, tuple[float, np.ndarray]]

    def __post_init__(self):
        self._freeze()

    def _arrays(self):
        return tuple(knots for _, knots in self.splines.values())

    @property
    def n_cols(self) -> int:
        return 1 + sum(hi - lo for lo, hi in self.column_groups.values())


def _median(values: np.ndarray) -> float:
    """The median of a 1-D array with no NaN, as ``np.median`` gives it, partitioning ``values`` in
    place; ``np.median``'s NaN check would load ``numpy.ma``."""
    lo, hi = (values.size - 1) // 2, values.size // 2
    values.partition([lo, hi])
    return float(values[lo : hi + 1].mean())


def place_knots(
    schema: CovariateSchema, centering: dict[str, float], knot_source: dict[str, np.ndarray]
) -> DesignLayout:
    """The pair-level half of a design: each covariate's columns, and each spline's centre and knots.

    The knots sit at quantiles of ``knot_source``'s values (see
    ``build_design``), a missing one imputed at their median, each shifted
    by the covariate's centre.  A binary takes one column, a spline ``df``
    and one more for its missingness indicator.
    """
    column_groups: dict[str, tuple[int, int]] = {}
    splines: dict[str, tuple[float, np.ndarray]] = {}
    col = 1
    for cov in schema.covariates:
        width = 1 if cov.kind == "binary" else cov.df + cov.allow_missing
        column_groups[cov.name] = (col, col + width)
        col += width
        if cov.kind == "binary":
            continue
        center = centering.get(cov.name)
        if center is None:
            raise SchemaError(f"no centering constant for continuous covariate {cov.name!r}")
        src_raw = knot_source.get(cov.name, np.full(1, np.nan))  # an absent field has no observed value
        src_missing = np.isnan(src_raw)
        if src_missing.all():
            raise SchemaError(f"covariate {cov.name!r} has no observed values in the sample")
        src_median = _median(src_raw[~src_missing])  # on its own copy
        src = np.where(src_missing, src_median, src_raw)
        del src_missing
        src -= center
        splines[cov.name] = (center, quantile_knots(src, cov.degree, cov.df, overwrite_input=True))
        del src  # else it lives on beside the next covariate's copies
    return DesignLayout(schema, centering, column_groups, splines)


def _continuous_columns(cov: CovariateSpec, raw: np.ndarray, median: float, spline: tuple, out: np.ndarray) -> None:
    """Write one continuous covariate's centred, spline-expanded columns for the births ``raw`` into ``out``.

    A missing value is imputed at ``median``, the survey's own median,
    while the knots sit on the pooled values with their missing ones
    imputed at the pooled median.  The paper's abstract, the only part
    of it to hand, states no rule for this, so that choice is not
    checked against the paper.
    """
    center, knots = spline
    missing = np.isnan(raw)
    values = np.where(missing, median, raw)
    values -= center
    out[:, : cov.df] = bspline_basis(values, knots, cov.degree)[:, 1:]  # the intercept is explicit
    if cov.allow_missing:
        out[:, cov.df] = missing


class DesignRows:
    """One survey's design rows under a pair's ``DesignLayout``, written a row block at a time.

    Creating it checks the survey's own columns: a binary covariate
    missing from some births, and a spline covariate with missing values
    while ``allow_missing`` is off, or with no observed value.  ``write``
    fills rows ``a:a + len(out)`` into ``out`` and gathers each column's
    minimum and maximum; once every row is written, ``check`` raises
    ``DegenerateDesignError``, naming the survey, if a non-intercept
    column is constant.
    """

    def __init__(self, sample: SurveySample, layout: DesignLayout):
        self.sample, self.layout = sample, layout
        self.medians: dict[str, float] = {}
        for cov in layout.schema.covariates:
            if cov.kind == "binary":
                vals = sample.columns.get(cov.name)
                if vals is None or (vals.dtype.kind == "f" and np.isnan(vals).any()):
                    raise SchemaError(f"covariate {cov.name!r} is missing from some births")
                continue
            raw = _numeric(sample, cov.name)
            missing = np.isnan(raw)
            if missing.any() and not cov.allow_missing:
                raise SchemaError(f"covariate {cov.name!r} has missing values but allow_missing is off")
            if missing.all():
                raise SchemaError(f"covariate {cov.name!r} has no observed values in the sample")
            self.medians[cov.name] = _median(raw[~missing])
        self.low = np.full(layout.n_cols, np.inf)
        self.high = np.full(layout.n_cols, -np.inf)

    def write(self, a: int, out: np.ndarray) -> np.ndarray:
        """Rows ``a:a + len(out)`` of the design, written into ``out`` and returned."""
        rows = slice(a, a + out.shape[0])
        out[:, 0] = 1.0
        for cov in self.layout.schema.covariates:
            lo, hi = self.layout.column_groups[cov.name]
            if cov.kind == "binary":
                out[:, lo] = self.sample.columns[cov.name][rows] != cov.reference
            else:
                raw = self.sample.columns[cov.name][rows]
                _continuous_columns(cov, raw, self.medians[cov.name], self.layout.splines[cov.name], out[:, lo:hi])
        np.minimum(self.low, out.min(axis=0), out=self.low)
        np.maximum(self.high, out.max(axis=0), out=self.high)
        return out

    def check(self) -> None:
        """``DegenerateDesignError`` naming the survey and the group of the first constant column."""
        constant = np.flatnonzero((self.high == self.low)[1:]) + 1
        if constant.size:
            j = int(constant[0])
            name = next(name for name, (lo, hi) in self.layout.column_groups.items() if lo <= j < hi)
            message = f"survey {self.sample.survey_id}: column {j} of group {name!r} is constant"
            raise DegenerateDesignError(name, message)


def build_design(
    sample: SurveySample,
    schema: CovariateSchema,
    centering: dict[str, float],
    knot_source: dict[str, np.ndarray] | DesignLayout,
) -> DesignMatrix:
    """Assemble the design matrix for one survey.

    ``knot_source`` maps each continuous covariate to the values its
    spline knots are placed on: the pair's pooled columns from
    ``pool_samples``, or ``sample.columns`` for one survey alone, so that
    designs built for different samples share one basis.  It may also be
    the ``DesignLayout`` that ``place_knots`` made from ``schema`` and
    ``centering``, so a pair's knots are placed once for both designs.
    Cluster ordinals follow first appearance.  Raises
    ``DegenerateDesignError`` if any produced column is constant.  The
    rows are written ``_BLOCK_ROWS`` at a time by ``DesignRows`` into one
    preallocated ``x``.
    """
    if isinstance(knot_source, DesignLayout):
        if knot_source.schema != schema or knot_source.centering != centering:
            raise ValueError("the layout was placed under another schema or centering")
        layout = knot_source
    else:
        layout = place_knots(schema, centering, knot_source)
    writer = DesignRows(sample, layout)
    x = np.empty((sample.n_births, layout.n_cols))
    for a in range(0, sample.n_births, _BLOCK_ROWS):
        writer.write(a, x[a : a + _BLOCK_ROWS])
    writer.check()
    return DesignMatrix(
        x=x,
        outcome=sample.outcome,
        cluster_index=sample.cluster,
        column_groups=dict(layout.column_groups),
        n_clusters=sample.n_clusters,
        survey_id=sample.survey_id,
    )
