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

import math
from dataclasses import fields
from pathlib import Path

from .decompose import ComponentSummary
from .errors import ConfigError, read_json, require_bool, require_number, require_object, write_csv, write_json

__all__ = [
    "format_rate",
    "format_percent",
    "summary_to_dict",
    "write_decomposition_json",
    "load_results",
    "write_variance_profile",
    "TABLE_FILES",
    "write_all_tables",
]

# File names of the tables ``write_all_tables`` writes, in writing order.
TABLE_FILES = ("mortality.csv", "overall_decomp.csv", "coef_decomp.csv")


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


def _clean(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# A component's keys in the document are the fields of ComponentSummary
# but its name, which keys the component; a percent field may be null.
_COMPONENT_KEYS = tuple(f.name for f in fields(ComponentSummary) if f.name != "name")
_ANNUALIZED_FIELDS = ("annualized", "annualized_lower", "annualized_upper")
_PERCENT_FIELDS = ("percent", "percent_lower", "percent_upper")
_RATE_FIELDS = ("mean", "lower", "upper")


def summary_to_dict(summary) -> dict:
    """Full-precision JSON form of a DecompositionSummary."""
    return {
        "years_between": summary.years_between,
        "order": list(summary.order),
        "rates_per_1000": {
            sid: {key: getattr(rate, key) for key in _RATE_FIELDS}
            for sid, rate in (("s1", summary.rate_s1), ("s2", summary.rate_s2))
        },
        "components": {
            name: {key: _clean(getattr(comp, key)) for key in _COMPONENT_KEYS}
            for name, comp in summary.components.items()
        },
    }


def write_decomposition_json(doc: dict, path) -> None:
    """Write the document :func:`summary_to_dict` returns, as :func:`~mortdecomp.errors.write_json` does."""
    write_json(doc, path)


def load_results(path) -> dict:
    """Read a document written by :func:`write_decomposition_json`.

    Raises ``ConfigError`` unless the file is JSON with every field
    :func:`summary_to_dict` writes, of the type it writes.
    """
    doc = read_json(path)
    try:
        require_object(doc, "results", ("years_between", "order", "rates_per_1000", "components"))
        require_number(doc["years_between"], "years_between")
        order = doc["order"]
        if not isinstance(order, list) or not all(isinstance(name, str) for name in order):
            raise ConfigError(f"order must be a list of group names, got {order!r}")
        rates = require_object(doc["rates_per_1000"], "rates_per_1000", ("s1", "s2"))
        for sid in ("s1", "s2"):
            rate = require_object(rates[sid], f"rates_per_1000.{sid}", _RATE_FIELDS)
            for key in _RATE_FIELDS:
                require_number(rate[key], f"rates_per_1000.{sid}.{key}")
        names = ("overall_diff", "x_effect", "beta_effect", *order)
        components = require_object(doc["components"], "components", names)
        for name in names:
            comp = require_object(components[name], f"components.{name}", _COMPONENT_KEYS)
            for key in _COMPONENT_KEYS:
                where = f"components.{name}.{key}"
                if key == "significant":
                    require_bool(comp[key], where)
                elif not (key in _PERCENT_FIELDS and comp[key] is None):
                    require_number(comp[key], where)
    except ConfigError as exc:
        raise ConfigError(f"{path}: not a decomposition results document ({exc})") from None
    return doc


def _write_mortality_table(doc: dict, path) -> None:
    """Per-survey rates, their difference, and the annualized decline."""
    overall = doc["components"]["overall_diff"]
    rates = doc["rates_per_1000"]
    header = [
        "years_between",
        "s1", "s1_lower", "s1_upper",
        "s2", "s2_lower", "s2_upper",
        "diff", "diff_lower", "diff_upper",
        "diff_per_year", "diff_per_year_lower", "diff_per_year_upper",
    ]
    row = [
        doc["years_between"],
        *(rates[sid][key] for sid in ("s1", "s2") for key in _RATE_FIELDS),
        *(overall[key] * 1000 for key in _RATE_FIELDS),
        *(overall[key] for key in _ANNUALIZED_FIELDS),
    ]
    write_csv(path, header, [[[format_rate(value)] for value in row]])


def _write_component_table(doc: dict, path, names, percents: bool) -> None:
    """One row per component in ``names``: its annualized effect, the percent
    columns when ``percents``, and its significance flag."""
    percent_keys = _PERCENT_FIELDS if percents else ()
    comps = [doc["components"][name] for name in names]
    columns = [
        list(names),
        *([format_rate(comp[key]) for comp in comps] for key in _ANNUALIZED_FIELDS),
        *([format_percent(comp[key]) for comp in comps] for key in percent_keys),
        ["true" if comp["significant"] else "false" for comp in comps],
    ]
    write_csv(path, ["component", "effect_per_year", "lower", "upper", *percent_keys, "significant"], [columns])


def write_variance_profile(profile, path) -> None:
    """Partial-sum variance per added group, full precision for plotting."""
    variances = [repr(float(var)) for var in profile.partial_sum_variance]
    columns = [[str(m) for m in range(1, len(variances) + 1)], list(profile.order), variances]
    write_csv(path, ["m", "group_added", "partial_sum_variance"], [columns])


def write_all_tables(doc: dict, out_dir) -> list[Path]:
    """Write the three tables under ``out_dir`` as ``TABLE_FILES``; returns their paths.  The overall
    table has percent shares; the coefficient table splits ``beta_effect`` in decomposition order."""
    mortality, overall, coef = paths = [Path(out_dir) / name for name in TABLE_FILES]
    _write_mortality_table(doc, mortality)
    _write_component_table(doc, overall, ("x_effect", "beta_effect"), percents=True)
    _write_component_table(doc, coef, ("beta_effect", *doc["order"]), percents=False)
    return paths
