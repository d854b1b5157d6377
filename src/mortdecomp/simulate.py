"""Synthetic two-survey data with a known probit data-generating process.

Outcomes are Bernoulli with probability ``Phi(x' beta + gamma)``, where
``x`` is the row of the design matrix built from the generated
covariates with the same schema, centering and shared-knot conventions
used for fitting, and ``gamma`` is a per-cluster normal effect.  The
true coefficients therefore live in design-column space and can be
compared directly against fitted posteriors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._phi import ndtr
from .dataset import (
    _BLOCK_ROWS,
    _FIELDS,
    _LEVELS,
    CovariateSchema,
    DesignLayout,
    DesignRows,
    SurveySample,
    compute_centering,
    in_age_range,
    place_knots,
    pool_samples,
)
from .errors import ConfigError, read_fields, require_number, require_object, require_str

__all__ = ["SyntheticSurveySpec", "SyntheticConfig", "synthesize"]

# Each distribution kind and its required keys (optional: ``missing_prob``; ``probs`` for ``choice``).
_DIST_KEYS = {"uniform": ("low", "high"), "normal": ("mean", "sd"), "beta": ("a", "b"), "choice": ("values",)}
# The tolerance ``Generator.choice`` allows on the sum of its probabilities.
_PROBS_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

# Fallback generators for fields the schema does not mention but every
# synthetic sample carries (age drives the ingestion filter; wealth drives
# centering).
_DEFAULT_DISTRIBUTIONS = {
    "maternal_age": {"dist": "uniform", "low": 18.0, "high": 40.0, "missing_prob": 0.0},
    "wealth_rank": {"dist": "uniform", "low": 0.0, "high": 1.0, "missing_prob": 0.0},
}


def _check_distribution(spec, where: str) -> dict:
    """``spec`` with ``missing_prob`` defaulting to 0 and ``probs`` to ``None``, or ``ConfigError``.

    Values are finite numbers, with ``high - low`` finite, ``sd >= 0``,
    ``a, b > 0`` and ``missing_prob`` in [0, 1]; ``choice`` ``values`` are
    numbers or strings that hold no NUL, and ``probs`` are non-negative,
    one per value, summing to 1.
    """
    kind = require_object(spec, where, ("dist",))["dist"]
    if not isinstance(kind, str) or kind not in _DIST_KEYS:
        raise ConfigError(f"{where}.dist must be one of {sorted(_DIST_KEYS)}, got {kind!r}")
    optional = ("missing_prob", "probs") if kind == "choice" else ("missing_prob",)
    require_object(spec, where, ("dist", *_DIST_KEYS[kind]), optional)
    checked = {"dist": kind, "missing_prob": require_number(spec.get("missing_prob", 0.0), f"{where}.missing_prob")}
    if not 0.0 <= checked["missing_prob"] <= 1.0:
        raise ConfigError(f"{where}.missing_prob must lie in [0, 1], got {checked['missing_prob']}")
    if kind != "choice":
        checked.update((k, require_number(spec[k], f"{where}.{k}")) for k in _DIST_KEYS[kind])
        if kind == "uniform" and not math.isfinite(checked["high"] - checked["low"]):
            raise ConfigError(f"{where}.high - {where}.low must be finite, got {checked['low']} to {checked['high']}")
        if kind == "normal" and checked["sd"] < 0.0:
            raise ConfigError(f"{where}.sd must be >= 0, got {checked['sd']}")
        if kind == "beta" and min(checked["a"], checked["b"]) <= 0.0:
            raise ConfigError(f"{where}.a and {where}.b must be > 0, got {checked['a']} and {checked['b']}")
        return checked
    values, probs = spec["values"], spec.get("probs")
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where}.values must be a non-empty list, got {values!r}")
    for value in values:
        (require_str if isinstance(value, str) else require_number)(value, f"{where}.values")
    if probs is not None:
        if not isinstance(probs, list) or len(probs) != len(values):
            raise ConfigError(f"{where}.probs must be a list of {len(values)} numbers, got {probs!r}")
        probs = [require_number(q, f"{where}.probs") for q in probs]
        if min(probs) < 0.0 or abs(math.fsum(probs) - 1.0) > _PROBS_ATOL:
            raise ConfigError(f"{where}.probs must be non-negative and sum to 1, got {probs}")
    return {**checked, "values": values, "probs": probs}


@dataclass(frozen=True)
class SyntheticSurveySpec:
    """Truth for one survey: design-space coefficients, cluster variance and checked covariate distributions."""

    beta: tuple[float, ...]
    sigma2: float
    n_clusters: int
    births_per_cluster: int
    survey_year: int
    covariates: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_clusters <= 0:
            raise ConfigError(f"n_clusters must be positive, got {self.n_clusters}")
        if self.births_per_cluster <= 0:
            raise ConfigError(f"births_per_cluster must be positive, got {self.births_per_cluster}")
        if self.sigma2 < 0:
            raise ConfigError(f"sigma2 must be >= 0, got {self.sigma2}")
        require_object(self.covariates, "covariates", allowed=_FIELDS)
        checked = {name: _check_distribution(spec, f"covariates.{name}") for name, spec in self.covariates.items()}
        object.__setattr__(self, "covariates", checked)

    @classmethod
    def from_dict(cls, d: dict, where: str = "synthetic survey spec") -> "SyntheticSurveySpec":
        """The spec in the config object ``d``; ``ConfigError`` naming ``<where>.<key>``."""
        ints = dict.fromkeys(("n_clusters", "births_per_cluster", "survey_year"), int)
        return read_fields(cls, d, where, {"beta": tuple, "sigma2": float, **ints})


@dataclass(frozen=True)
class SyntheticConfig:
    """Full data-generating process for a pair of surveys.

    ``mortdecomp.cli.RunConfig`` reads a run config's ``input.dgp`` object into one, with its schema.
    """

    schema: CovariateSchema
    s1: SyntheticSurveySpec
    s2: SyntheticSurveySpec


def _draw(spec: dict, n: int, rng: np.random.Generator, numeric: bool) -> np.ndarray:
    """``n`` values from a spec checked by ``_check_distribution``.

    For a ``numeric`` field, unless the spec chooses among strings, the
    values are float64 with NaN where missing.  Otherwise they are
    objects with None where missing, which ``SurveySample.from_columns``
    converts, or refuses, as it does any value it is given.
    """
    kind = spec["dist"]
    numeric = numeric and not (kind == "choice" and any(isinstance(v, str) for v in spec["values"]))
    if kind == "uniform":
        out = rng.uniform(spec["low"], spec["high"], size=n)
    elif kind == "normal":
        out = rng.normal(spec["mean"], spec["sd"], size=n)
    elif kind == "beta":
        out = rng.beta(spec["a"], spec["b"], size=n)
    else:
        values = np.array(spec["values"], dtype=float if numeric else object)
        out = values[rng.choice(len(values), size=n, p=spec["probs"])]
    if spec["missing_prob"] > 0.0:
        missing = rng.random(n) < spec["missing_prob"]
        if not numeric:
            out = np.asarray(out, dtype=object)
        out[missing] = np.nan if numeric else None
    return out


def _generate_sample(
    spec: SyntheticSurveySpec, schema: CovariateSchema, survey_id: str, rng: np.random.Generator
) -> SurveySample:
    """Covariates for one survey, with every outcome 0; clusters are consecutive blocks.

    Births to mothers outside ``AGE_RANGE`` are dropped after the draws,
    as ``ingest_csv`` drops them, and counted in ``dropped_rows``.
    ``ConfigError`` naming the survey when the generated values break an
    invariant of ``SurveySample``: a missing value outside
    ``MAY_BE_MISSING``, say, or no birth kept.
    """
    n = spec.n_clusters * spec.births_per_cluster
    columns = {}
    for name in dict.fromkeys(schema.names + list(_DEFAULT_DISTRIBUTIONS)):
        dist = spec.covariates.get(name) or _DEFAULT_DISTRIBUTIONS.get(name)
        if dist is None:
            raise ConfigError(f"no distribution configured for covariate {name!r}")
        columns[name] = _draw(dist, n, rng, name not in _LEVELS)
    width = len(str(spec.n_clusters - 1))
    cluster_id = np.repeat([f"c{j:0{width}d}" for j in range(spec.n_clusters)], spec.births_per_cluster)
    try:
        if "birth_order" in columns:
            columns["birth_order"] = np.trunc(columns["birth_order"].astype(float))
        kept = in_age_range(columns, n)
        n_kept = int(kept.sum())
        if n_kept < n:  # a column is copied only when the filter drops a birth
            cluster_id = cluster_id[kept]
            columns = {name: values[kept] for name, values in columns.items()}
        return SurveySample.from_columns(survey_id, np.zeros(n_kept, dtype=np.int64), cluster_id, columns, n - n_kept)
    except ValueError as exc:
        raise ConfigError(f"survey {survey_id}: the generated covariates are not a valid sample ({exc})") from None


def _with_outcomes(
    spec: SyntheticSurveySpec, sample: SurveySample, layout: DesignLayout, rng: np.random.Generator
) -> SurveySample:
    """``sample`` with outcomes drawn on its design from ``spec``'s truth.

    The design is written one row block at a time into one reused
    buffer, and only its product with ``beta`` is kept, so no whole
    design matrix exists.  A constant design column is reported before a
    ``beta`` of the wrong length.
    """
    rows = DesignRows(sample, layout)
    beta = np.asarray(spec.beta, dtype=float)
    fits = beta.shape == (layout.n_cols,)
    n = sample.n_births
    eta = np.empty(n)
    buffer = np.empty((min(n, _BLOCK_ROWS), layout.n_cols))
    for a in range(0, n, _BLOCK_ROWS):
        block = rows.write(a, buffer[: n - a])
        if fits:
            np.matmul(block, beta, out=eta[a : a + block.shape[0]])
    rows.check()
    if not fits:
        raise ConfigError(
            f"{sample.survey_id}: beta has length {beta.size} but the design has "
            f"{layout.n_cols} columns (intercept + expanded covariates)"
        )
    gamma = rng.normal(0.0, np.sqrt(spec.sigma2), size=spec.n_clusters)
    eta += gamma[sample.cluster]
    probs = ndtr(eta)
    if probs.min() <= 0.0 or probs.max() >= 1.0:
        raise ConfigError(
            "DGP implies event probabilities of exactly 0 or 1; "
            f"linear predictor range [{eta.min():.2f}, {eta.max():.2f}]"
        )
    y = (rng.random(eta.size) < probs).astype(np.int64)
    return replace(sample, outcome=y)


def synthesize(dgp: SyntheticConfig, seed: int) -> tuple[SurveySample, SurveySample]:
    """Generate a deterministic pair of survey samples from known truth.

    Covariates are drawn from the configured distributions, designs are
    built exactly as the fitting pipeline builds them (centering from
    survey 1's poorest households, knots from the pooled pair), cluster
    effects are ``N(0, sigma2)``, and outcomes are Bernoulli with
    probability ``Phi(x' beta + gamma)``.  Identical config and seed
    give identical samples.
    """
    root = np.random.SeedSequence(seed)
    cov_ss, effect_ss = root.spawn(2)
    cov_rngs = [np.random.default_rng(s) for s in cov_ss.spawn(2)]
    effect_rngs = [np.random.default_rng(s) for s in effect_ss.spawn(2)]

    # First pass: covariates only, so centering and shared knots exist
    # before any outcome is drawn.
    bare = [
        _generate_sample(spec, dgp.schema, sid, rng)
        for spec, sid, rng in zip((dgp.s1, dgp.s2), ("S1", "S2"), cov_rngs)
    ]
    centering = compute_centering(bare[0], dgp.schema)
    layout = place_knots(dgp.schema, centering, pool_samples(*bare))  # the pooled columns go once knots exist
    s1, s2 = [
        _with_outcomes(spec, sample, layout, rng)
        for spec, sample, rng in zip((dgp.s1, dgp.s2), bare, effect_rngs)
    ]
    return s1, s2
