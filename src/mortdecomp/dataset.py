"""Two-survey birth microdata: ingestion, centering and design matrices.

A survey sample holds its births as columns, one array per field, with
rows grouped by sampling cluster.  Design matrices carry an explicit
intercept column, spline-expanded continuous covariates centered at
reference-population means, 0/1 coded binary covariates, and a map from
covariate name to its contiguous column block.  Both surveys of a pair
must be built against one shared knot source so their bases are
identical and coefficient blocks can be swapped between them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDesignError,
    EmptyInputError,
    RowError,
    SchemaError,
    require_bool,
    require_number,
    require_object,
    require_str,
)
from .splines import bspline_basis, quantile_knots

__all__ = [
    "SurveySample",
    "CovariateSpec",
    "CovariateSchema",
    "CenteringConstants",
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
_LEVELS = {"sex": ("female", "male"), "residence": ("rural", "urban")}


def _field_checks(columns: dict) -> list:
    """``(bad-row mask, message for row i)`` for each per-birth field invariant."""
    checks = []
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


def _first_failure(checks: list) -> tuple[int, str] | None:
    """Earliest failing row and its message; within a row the first check wins."""
    firsts = [(int(rows[0]), k) for k, (bad, _) in enumerate(checks) if (rows := np.flatnonzero(bad)).size]
    if not firsts:
        return None
    row, k = min(firsts)
    return row, checks[k][1](row)


@dataclass(frozen=True, eq=False)
class SurveySample:
    """All births of one survey as columns, grouped by cluster in first-appearance order.

    ``cluster`` holds each birth's code into ``cluster_ids``; codes rise
    from 0 in row order, so every cluster's births are contiguous.
    ``columns`` holds one array per ingested or generated field (see
    ``_FIELDS``).  Arrays are frozen read-only.
    """

    survey_id: str
    survey_year: int
    outcome: np.ndarray
    cluster: np.ndarray
    cluster_ids: tuple[str, ...]
    columns: dict[str, np.ndarray]
    dropped_rows: int = 0

    def __post_init__(self):
        n = self.n_births
        if self.cluster.shape != (n,) or any(col.shape != (n,) for col in self.columns.values()):
            raise ValueError("every column needs one entry per birth")
        for name, col in self.columns.items():
            if name not in _FIELDS or col.dtype.kind != ("U" if name in _LEVELS else "f"):
                raise ValueError(f"unexpected column {name!r} of dtype {col.dtype}")
        steps = np.diff(np.concatenate(([-1], self.cluster, [self.n_clusters])))
        if steps[0] != 1 or steps[-1] != 1 or np.any((steps != 0) & (steps != 1)):
            raise ValueError("births must be grouped by cluster, coded 0.. in first-appearance order")
        outcome = ((self.outcome != 0) & (self.outcome != 1), lambda i: f"outcome must be 0 or 1, got {self.outcome[i]}")
        failure = _first_failure([outcome, *_field_checks(self.columns)])
        if failure is not None:
            raise ValueError(f"birth {failure[0]}: {failure[1]}")
        for arr in (self.outcome, self.cluster, *self.columns.values()):
            arr.setflags(write=False)

    @classmethod
    def from_columns(
        cls, survey_id: str, survey_year: int, outcome, cluster_id, columns: dict, dropped_rows: int = 0
    ) -> "SurveySample":
        """Sample from per-birth values in any row order.

        ``cluster_id`` labels each birth's cluster; rows are regrouped by
        cluster in first-appearance order with one stable sort, so births
        keep their order within a cluster.  Numeric columns become float64
        (``None`` reads as missing), ``sex`` and ``residence`` str.
        """
        ids, first, inverse = np.unique(np.asarray(cluster_id, dtype=str), return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        codes = np.argsort(by_first)[inverse.reshape(-1)]  # rank of each cluster's first appearance
        order = np.argsort(codes, kind="stable")
        return cls(
            survey_id=survey_id,
            survey_year=survey_year,
            outcome=np.asarray(outcome, dtype=np.int64)[order],
            cluster=codes[order],
            cluster_ids=tuple(ids[by_first].tolist()),
            columns={name: np.asarray(v, dtype=str if name in _LEVELS else float)[order] for name, v in columns.items()},
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
    group).
    """

    name: str
    kind: str  # "continuous_spline" | "binary"
    degree: int = 3
    df: int = 4
    reference: object = None
    allow_missing: bool = False

    def __post_init__(self):
        if self.kind not in ("continuous_spline", "binary"):
            raise SchemaError(f"unknown covariate kind {self.kind!r} for {self.name!r}")
        if self.kind == "continuous_spline":
            if self.degree < 0:
                raise SchemaError(f"{self.name}: spline degree must be >= 0")
            if self.df < max(self.degree, 1):
                raise SchemaError(
                    f"{self.name}: df must be >= max(degree, 1), got df={self.df} degree={self.degree}"
                )
        if self.kind == "binary" and self.reference is None:
            raise SchemaError(f"{self.name}: binary covariate needs a reference level")

    @classmethod
    def from_dict(cls, d: dict) -> "CovariateSpec":
        allowed = {"name", "kind", "degree", "df", "reference", "allow_missing"}
        unknown = set(require_object(d, "covariate spec", ("name", "kind"))) - allowed
        if unknown:
            raise SchemaError(f"unknown covariate spec keys: {sorted(unknown)}")
        checked = {k: require_str(d[k], f"covariate spec {k}") for k in ("name", "kind")}
        checked.update({k: require_number(d[k], f"covariate spec {k}", int) for k in ("degree", "df") if k in d})
        if "allow_missing" in d:
            checked["allow_missing"] = require_bool(d["allow_missing"], "covariate spec allow_missing")
        return cls(**{**d, **checked})

    def to_dict(self) -> dict:
        d = {"name": self.name, "kind": self.kind}
        if self.kind == "continuous_spline":
            d["degree"] = self.degree
            d["df"] = self.df
            if self.allow_missing:
                d["allow_missing"] = True
        else:
            d["reference"] = self.reference
        return d


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
        covariates = d["covariates"]
        if not isinstance(covariates, (list, tuple)):
            raise SchemaError(f"schema covariates must be a list, got {covariates!r}")
        return cls(tuple(CovariateSpec.from_dict(c) for c in covariates))

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
class CenteringConstants:
    """Reference-population means for the schema's continuous covariates.

    ``fallback`` names covariates whose reference subset was empty, for
    which the full-sample mean was used instead.
    """

    values: dict[str, float]
    poor_quantile: float
    fallback: frozenset[str] = frozenset()

    @classmethod
    def zeros(cls, schema: CovariateSchema) -> "CenteringConstants":
        return cls({c.name: 0.0 for c in schema.continuous}, poor_quantile=1.0)


@dataclass(frozen=True)
class DesignMatrix:
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
        for arr in (self.x, self.outcome, self.cluster_index):
            arr.setflags(write=False)
        n, p = self.x.shape
        if not np.all(self.x[:, 0] == 1.0):
            raise ValueError("design column 0 must be the all-ones intercept")
        covered = sorted(c for lo, hi in self.column_groups.values() for c in range(lo, hi))
        if covered != list(range(1, p)):
            raise ValueError("column groups must partition columns 1..p-1 without overlap")
        if self.outcome.shape != (n,) or self.cluster_index.shape != (n,):
            raise ValueError("outcome and cluster_index must have one entry per row")

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


def ingest_csv(path, schema: CovariateSchema, survey_year: int, survey_id: str = "S1") -> SurveySample:
    """Read one survey's births from CSV, grouped by cluster.

    The header must name every schema covariate plus ``outcome`` and
    ``cluster_id``; every other known field in the header is read too.
    Rows whose maternal age falls outside [15, 45] are dropped; the count
    of dropped rows is recorded on the sample.  A bad row raises
    ``RowError`` at its CSV line: parse errors (empty, unparseable or
    non-finite cells) count on every row, range and level errors only on
    rows that are kept.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInputError(f"{path}: file is empty")
        header = [h.strip() for h in header]
        required = ["outcome", "cluster_id"] + schema.names
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
        position = {h: j for j, h in enumerate(header)}
        rows, lines = [], []
        for row in reader:
            if row:  # blank lines are skipped; short rows read as empty cells
                if len(row) < len(header):
                    row += [""] * (len(header) - len(row))
                rows.append(row)
                lines.append(reader.line_num)
    if not rows:
        raise EmptyInputError(f"{path}: header only, no data rows")
    table = list(zip(*rows))

    def cells(name):
        return [c.strip() for c in table[position[name]]]

    raw_outcome = np.array(cells("outcome"))
    cluster_id = np.array(cells("cluster_id"))
    checks = [
        (~np.isin(raw_outcome, ("0", "1")), lambda i: f"outcome must be 0 or 1, got {str(raw_outcome[i])!r}"),
        (cluster_id == "", lambda i: "empty cluster_id"),
    ]
    columns = {}
    for name in (f for f in _FIELDS if f in position):
        raw = cells(name)
        text = np.array(raw)
        empty = text == ""
        if name != "birth_interval":
            checks.append((empty, lambda i, name=name: f"empty value for {name!r}"))
        if name in _LEVELS:
            columns[name] = text
            continue
        parsed = [_number(c) for c in raw]
        values, bad = np.array(parsed, dtype=float), np.array([v is None for v in parsed], dtype=bool)
        if name == "birth_order":  # "3.0" reads as 3; "2.5" does not parse
            bad |= np.isfinite(values) & (values != np.trunc(values))
        checks.append((bad, lambda i, name=name, raw=raw: f"could not parse {name}={raw[i]!r}"))
        checks.append(
            (~np.isfinite(values) & ~empty & ~bad, lambda i, name=name, raw=raw: f"non-finite value {name}={raw[i]!r}")
        )
        columns[name] = values

    age = columns.get("maternal_age")
    kept = np.ones(len(rows), dtype=bool) if age is None else (age >= AGE_RANGE[0]) & (age <= AGE_RANGE[1])
    checks += [(bad & kept, message) for bad, message in _field_checks(columns)]
    failure = _first_failure(checks)
    if failure is not None:
        raise RowError(lines[failure[0]], failure[1])

    return SurveySample.from_columns(
        survey_id,
        survey_year,
        outcome=(raw_outcome[kept] == "1").astype(np.int64),
        cluster_id=cluster_id[kept],
        columns={name: values[kept] for name, values in columns.items()},
        dropped_rows=int(len(rows) - kept.sum()),
    )


def write_survey_csv(sample: SurveySample, path) -> None:
    """Write a sample in the CSV layout :func:`ingest_csv` reads.

    Columns missing on every birth are omitted; other missing values are
    empty cells.  Numbers are written as ``repr(float)``, birth orders as
    integers.
    """
    if sample.n_births == 0:
        raise EmptyInputError("cannot write an empty sample")
    cols = sample.columns
    fields = [f for f in _FIELDS if f in cols and (f in _LEVELS or not np.isnan(cols[f]).all())]

    def cells(name):
        values = cols[name].tolist()
        if name in _LEVELS:
            return values
        fmt = (lambda v: str(int(v))) if name == "birth_order" else repr
        return ["" if v != v else fmt(v) for v in values]  # NaN is missing

    table = [sample.outcome.tolist(), *(cells(name) for name in fields)]
    table.append(np.asarray(sample.cluster_ids)[sample.cluster].tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outcome", *fields, "cluster_id"])
        writer.writerows(zip(*table))


def pool_samples(*samples: SurveySample) -> SurveySample:
    """Concatenate samples into one pooled sample for knot placement.

    Cluster ids are prefixed with their survey id so clusters never
    merge across surveys.  The pool keeps the fields every sample has.
    """
    if not samples:
        raise ValueError("need at least one sample to pool")
    offsets = np.cumsum([0] + [s.n_clusters for s in samples[:-1]])
    shared = [name for name in samples[0].columns if all(name in s.columns for s in samples)]
    return SurveySample(
        survey_id="pooled",
        survey_year=samples[0].survey_year,
        outcome=np.concatenate([s.outcome for s in samples]),
        cluster=np.concatenate([s.cluster + offset for s, offset in zip(samples, offsets)]),
        cluster_ids=tuple(f"{s.survey_id}:{cid}" for s in samples for cid in s.cluster_ids),
        columns={name: np.concatenate([s.columns[name] for s in samples]) for name in shared},
    )


def _numeric(sample: SurveySample, name: str) -> np.ndarray:
    """A numeric column; a field the sample lacks is missing on every birth."""
    return sample.columns.get(name, np.full(sample.n_births, np.nan))


def compute_centering(
    sample1: SurveySample, schema: CovariateSchema, poor_quantile: float = 0.2
) -> CenteringConstants:
    """Mean of each continuous covariate over the poorest households of survey 1.

    A household is in the reference population when its wealth rank is
    at or below ``poor_quantile``.  If no birth qualifies for a
    covariate, its full-sample mean is used and the covariate is
    flagged as a fallback.  Missing values (allowed for birth
    intervals) are excluded from the means.
    """
    if not 0.0 < poor_quantile <= 1.0:
        raise ValueError(f"poor_quantile must lie in (0, 1], got {poor_quantile}")
    if sample1.n_births == 0:
        raise EmptyInputError("cannot compute centering constants on an empty sample")
    continuous = schema.continuous
    if not continuous:
        return CenteringConstants({}, poor_quantile=poor_quantile)

    wealth = _numeric(sample1, "wealth_rank")
    if np.isnan(wealth).any():
        raise SchemaError("centering needs wealth_rank on every birth")
    poor = wealth <= poor_quantile

    values: dict[str, float] = {}
    fallback: set[str] = set()
    for cov in continuous:
        col = _numeric(sample1, cov.name)
        observed = ~np.isnan(col)
        vals = col[poor & observed]
        if not vals.size:
            fallback.add(cov.name)
            vals = col[observed]
            if not vals.size:
                raise SchemaError(f"covariate {cov.name!r} has no observed values")
        values[cov.name] = float(np.mean(vals))
    return CenteringConstants(values, poor_quantile=poor_quantile, fallback=frozenset(fallback))


def _continuous_columns(
    cov: CovariateSpec,
    sample: SurveySample,
    centering: CenteringConstants,
    knot_source: SurveySample,
) -> np.ndarray:
    """Centered, spline-expanded columns for one continuous covariate."""
    center = centering.values.get(cov.name)
    if center is None:
        raise SchemaError(f"no centering constant for continuous covariate {cov.name!r}")
    raw = _numeric(sample, cov.name)
    src_raw = _numeric(knot_source, cov.name)
    missing = np.isnan(raw)
    src_missing = np.isnan(src_raw)
    if missing.any() and not cov.allow_missing:
        raise SchemaError(f"covariate {cov.name!r} has missing values but allow_missing is off")
    if missing.all() or src_missing.all():
        raise SchemaError(f"covariate {cov.name!r} has no observed values in the sample")
    median = float(np.median(raw[~missing]))
    src_median = float(np.median(src_raw[~src_missing]))

    knots = quantile_knots(np.where(src_missing, src_median, src_raw) - center, cov.degree, cov.df)
    basis = bspline_basis(np.where(missing, median, raw) - center, knots, cov.degree)
    cols = basis[:, 1:]  # drop the first basis function: intercept is explicit
    if cov.allow_missing:
        cols = np.column_stack([cols, missing.astype(float)])
    return cols


def build_design(
    sample: SurveySample,
    schema: CovariateSchema,
    centering: CenteringConstants,
    knot_source: SurveySample,
) -> DesignMatrix:
    """Assemble the design matrix for one survey.

    ``knot_source`` fixes the spline knots (normally the pooled pair of
    surveys) so that designs built for different samples share one
    basis.  Cluster ordinals follow first appearance.  Raises
    ``DegenerateDesignError`` if any produced column is constant.
    """
    if sample.n_births == 0:
        raise EmptyInputError("cannot build a design from an empty sample")

    blocks: list[np.ndarray] = [np.ones((sample.n_births, 1))]
    column_groups: dict[str, tuple[int, int]] = {}
    col = 1
    for cov in schema.covariates:
        if cov.kind == "binary":
            vals = sample.columns.get(cov.name)
            if vals is None or (vals.dtype.kind == "f" and np.isnan(vals).any()):
                raise SchemaError(f"covariate {cov.name!r} is missing from some births")
            block = (vals != cov.reference).astype(float)[:, None]
        else:
            block = _continuous_columns(cov, sample, centering, knot_source)
        blocks.append(block)
        column_groups[cov.name] = (col, col + block.shape[1])
        col += block.shape[1]

    x = np.hstack(blocks)
    constant = np.flatnonzero(np.all(x == x[0], axis=0)[1:]) + 1
    if constant.size:
        j = int(constant[0])
        name = next(name for name, (lo, hi) in column_groups.items() if lo <= j < hi)
        raise DegenerateDesignError(name, f"column {j} of group {name!r} is constant")

    return DesignMatrix(
        x=x,
        outcome=sample.outcome,
        cluster_index=sample.cluster,
        column_groups=column_groups,
        n_clusters=sample.n_clusters,
        survey_id=sample.survey_id,
    )
