"""Result tables and JSON documents for a decomposition run.

Three CSV tables mirror the reporting layout: per-survey mortality
rates with their decline, the overall two-part split, and the
per-covariate split.  Rates are per 1000 births and displayed with one
decimal; percent columns are integers truncated toward zero (the
convention that reproduces the published example rows).  The JSON
document keeps full precision so tables can be re-rendered without
recomputation.
"""

from __future__ import annotations

import csv
import json
import math
from numbers import Real
from pathlib import Path

from .errors import ConfigError, require_object

__all__ = [
    "format_rate",
    "format_percent",
    "format_flag",
    "summary_to_dict",
    "write_decomposition_json",
    "load_results",
    "write_mortality_table",
    "write_overall_table",
    "write_coef_table",
    "write_variance_profile",
    "write_all_tables",
]


def format_rate(value: float) -> str:
    """One-decimal display for per-1000 rates and their bounds."""
    if value is None or not math.isfinite(value):
        return ""
    return f"{value:.1f}"


def format_percent(value: float) -> str:
    """Integer display for percent shares, truncated toward zero."""
    if value is None or not math.isfinite(value):
        return ""
    return str(math.trunc(value))


def format_flag(significant: bool) -> str:
    return "true" if significant else "false"


def _clean(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def summary_to_dict(summary) -> dict:
    """Full-precision JSON form of a DecompositionSummary."""
    components = {}
    for name, comp in summary.components.items():
        components[name] = {
            "mean": comp.mean,
            "lower": comp.lower,
            "upper": comp.upper,
            "annualized": comp.annualized,
            "annualized_lower": comp.annualized_lower,
            "annualized_upper": comp.annualized_upper,
            "percent": _clean(comp.percent),
            "percent_lower": _clean(comp.percent_lower),
            "percent_upper": _clean(comp.percent_upper),
            "significant": comp.significant,
        }
    return {
        "years_between": summary.years_between,
        "order": list(summary.order),
        "convention": summary.convention,
        "rates_per_1000": {
            "s1": {"mean": summary.rate_s1.mean, "lower": summary.rate_s1.lower, "upper": summary.rate_s1.upper},
            "s2": {"mean": summary.rate_s2.mean, "lower": summary.rate_s2.lower, "upper": summary.rate_s2.upper},
        },
        "components": components,
    }


def write_decomposition_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


_RATE_FIELDS = ("mean", "lower", "upper")
_NUMBER_FIELDS = ("mean", "lower", "upper", "annualized", "annualized_lower", "annualized_upper")
_PERCENT_FIELDS = ("percent", "percent_lower", "percent_upper")
_COMPONENT_FIELDS = _NUMBER_FIELDS + _PERCENT_FIELDS + ("significant",)


def _number(value, where: str, nullable: bool = False) -> None:
    if (value is None and nullable) or (isinstance(value, Real) and not isinstance(value, bool)):
        return
    raise ConfigError(f"{where} must be a number, got {value!r}")


def load_results(path) -> dict:
    """Read a document written by :func:`write_decomposition_json`.

    Raises ``ConfigError`` unless the file is JSON with every field the
    tables read, of the type :func:`summary_to_dict` writes.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    try:
        require_object(doc, "results", ("years_between", "order", "rates_per_1000", "components"))
        _number(doc["years_between"], "years_between")
        order = doc["order"]
        if not isinstance(order, list) or not all(isinstance(name, str) for name in order):
            raise ConfigError(f"order must be a list of group names, got {order!r}")
        rates = require_object(doc["rates_per_1000"], "rates_per_1000", ("s1", "s2"))
        for sid in ("s1", "s2"):
            rate = require_object(rates[sid], f"rates_per_1000.{sid}", _RATE_FIELDS)
            for key in _RATE_FIELDS:
                _number(rate[key], f"rates_per_1000.{sid}.{key}")
        names = ("overall_diff", "x_effect", "beta_effect", *order)
        components = require_object(doc["components"], "components", names)
        for name in names:
            comp = require_object(components[name], f"components.{name}", _COMPONENT_FIELDS)
            for key in _NUMBER_FIELDS + _PERCENT_FIELDS:
                _number(comp[key], f"components.{name}.{key}", nullable=key in _PERCENT_FIELDS)
    except ConfigError as exc:
        raise ConfigError(f"{path}: not a decomposition results document ({exc})") from None
    return doc


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_mortality_table(doc: dict, path) -> None:
    """Per-survey rates, their difference, and the annualized decline."""
    overall = doc["components"]["overall_diff"]
    s1 = doc["rates_per_1000"]["s1"]
    s2 = doc["rates_per_1000"]["s2"]
    header = [
        "years_between",
        "s1", "s1_lower", "s1_upper",
        "s2", "s2_lower", "s2_upper",
        "diff", "diff_lower", "diff_upper",
        "diff_per_year", "diff_per_year_lower", "diff_per_year_upper",
    ]
    row = [
        format_rate(doc["years_between"]),
        format_rate(s1["mean"]), format_rate(s1["lower"]), format_rate(s1["upper"]),
        format_rate(s2["mean"]), format_rate(s2["lower"]), format_rate(s2["upper"]),
        format_rate(overall["mean"] * 1000), format_rate(overall["lower"] * 1000),
        format_rate(overall["upper"] * 1000),
        format_rate(overall["annualized"]), format_rate(overall["annualized_lower"]),
        format_rate(overall["annualized_upper"]),
    ]
    _write_rows(path, header, [row])


def write_overall_table(doc: dict, path) -> None:
    """Covariate-distribution and coefficient effects with percent shares."""
    header = [
        "component",
        "effect_per_year", "lower", "upper",
        "percent", "percent_lower", "percent_upper",
        "significant",
    ]
    rows = []
    for name in ("x_effect", "beta_effect"):
        comp = doc["components"][name]
        rows.append(
            [
                name,
                format_rate(comp["annualized"]), format_rate(comp["annualized_lower"]),
                format_rate(comp["annualized_upper"]),
                format_percent(comp["percent"]),
                format_percent(comp["percent_lower"]), format_percent(comp["percent_upper"]),
                format_flag(comp["significant"]),
            ]
        )
    _write_rows(path, header, rows)


def write_coef_table(doc: dict, path) -> None:
    """Per-covariate coefficient effects in decomposition order."""
    header = ["component", "effect_per_year", "lower", "upper", "significant"]
    rows = []
    for name in ["beta_effect"] + list(doc["order"]):
        comp = doc["components"][name]
        rows.append(
            [
                name,
                format_rate(comp["annualized"]), format_rate(comp["annualized_lower"]),
                format_rate(comp["annualized_upper"]),
                format_flag(comp["significant"]),
            ]
        )
    _write_rows(path, header, rows)


def write_variance_profile(profile, path) -> None:
    """Partial-sum variance per added group, full precision for plotting."""
    header = ["m", "group_added", "partial_sum_variance"]
    rows = [
        [m + 1, name, repr(float(var))]
        for m, (name, var) in enumerate(zip(profile.order, profile.partial_sum_variance))
    ]
    _write_rows(path, header, rows)


def write_all_tables(doc: dict, out_dir) -> list[Path]:
    out_dir = Path(out_dir)
    paths = {
        "mortality.csv": write_mortality_table,
        "overall_decomp.csv": write_overall_table,
        "coef_decomp.csv": write_coef_table,
    }
    written = []
    for name, writer in paths.items():
        target = out_dir / name
        writer(doc, target)
        written.append(target)
    return written
