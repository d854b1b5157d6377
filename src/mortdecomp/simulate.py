"""Synthetic two-survey data with a known probit data-generating process.

Outcomes are Bernoulli with probability ``Phi(x' beta + gamma)``, where
``x`` is the row of the design matrix built from the generated
covariates with the same schema, centering and shared-knot conventions
used for fitting, and ``gamma`` is a per-cluster normal effect.  The
true coefficients therefore live in design-column space and can be
compared directly against fitted posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from .dataset import (
    CovariateSchema,
    SurveySample,
    build_design,
    compute_centering,
    pool_samples,
)
from .errors import ConfigError, require_object

__all__ = ["SyntheticSurveySpec", "SyntheticConfig", "synthesize"]

# Fallback generators for fields the schema does not mention but every
# synthetic sample carries (age drives the ingestion filter; wealth drives
# centering).
_DEFAULT_DISTRIBUTIONS = {
    "maternal_age": {"dist": "uniform", "low": 18.0, "high": 40.0},
    "wealth_rank": {"dist": "uniform", "low": 0.0, "high": 1.0},
}


@dataclass(frozen=True)
class SyntheticSurveySpec:
    """Truth for one survey: design-space coefficients and cluster variance."""

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

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSurveySpec":
        require_object(d, "synthetic survey spec", ("beta", "sigma2", "n_clusters", "births_per_cluster", "survey_year"))
        return cls(
            beta=tuple(float(b) for b in d["beta"]),
            sigma2=float(d["sigma2"]),
            n_clusters=int(d["n_clusters"]),
            births_per_cluster=int(d["births_per_cluster"]),
            survey_year=int(d["survey_year"]),
            covariates={k: dict(v) for k, v in d.get("covariates", {}).items()},
        )

    def to_dict(self) -> dict:
        return {
            "beta": list(self.beta),
            "sigma2": self.sigma2,
            "n_clusters": self.n_clusters,
            "births_per_cluster": self.births_per_cluster,
            "survey_year": self.survey_year,
            "covariates": {k: dict(v) for k, v in self.covariates.items()},
        }


@dataclass(frozen=True)
class SyntheticConfig:
    """Full data-generating process for a pair of surveys."""

    schema: CovariateSchema
    s1: SyntheticSurveySpec
    s2: SyntheticSurveySpec
    poor_quantile: float = 0.2

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticConfig":
        return cls(
            schema=CovariateSchema.from_dict(d["schema"]),
            s1=SyntheticSurveySpec.from_dict(d["s1"]),
            s2=SyntheticSurveySpec.from_dict(d["s2"]),
            poor_quantile=float(d.get("poor_quantile", 0.2)),
        )

    def to_dict(self) -> dict:
        return {
            "schema": self.schema.to_dict(),
            "s1": self.s1.to_dict(),
            "s2": self.s2.to_dict(),
            "poor_quantile": self.poor_quantile,
        }


def _draw(spec: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    kind = spec.get("dist")
    if kind == "uniform":
        out = rng.uniform(spec["low"], spec["high"], size=n)
    elif kind == "normal":
        out = rng.normal(spec["mean"], spec["sd"], size=n)
    elif kind == "beta":
        out = rng.beta(spec["a"], spec["b"], size=n)
    elif kind == "choice":
        values = spec["values"]
        probs = spec.get("probs")
        out = np.array(values, dtype=object)[rng.choice(len(values), size=n, p=probs)]
    else:
        raise ConfigError(f"unknown covariate distribution {spec!r}")
    missing_prob = float(spec.get("missing_prob", 0.0))
    if missing_prob > 0.0:
        out = np.asarray(out, dtype=object)
        out[rng.random(n) < missing_prob] = None
    return out


def _generate_sample(
    spec: SyntheticSurveySpec, schema: CovariateSchema, survey_id: str, rng: np.random.Generator
) -> SurveySample:
    """Covariates for one survey, with every outcome 0; clusters are consecutive blocks."""
    n = spec.n_clusters * spec.births_per_cluster
    columns = {}
    for name in dict.fromkeys(schema.names + list(_DEFAULT_DISTRIBUTIONS)):
        dist = spec.covariates.get(name) or _DEFAULT_DISTRIBUTIONS.get(name)
        if dist is None:
            raise ConfigError(f"no distribution configured for covariate {name!r}")
        values = _draw(dist, n, rng)
        columns[name] = np.trunc(values.astype(float)) if name == "birth_order" else values
    width = len(str(spec.n_clusters - 1))
    cluster_id = np.repeat([f"c{j:0{width}d}" for j in range(spec.n_clusters)], spec.births_per_cluster)
    return SurveySample.from_columns(survey_id, spec.survey_year, np.zeros(n, dtype=np.int64), cluster_id, columns)


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
    centering = compute_centering(bare[0], dgp.schema, dgp.poor_quantile)
    knot_source = pool_samples(*bare)

    samples = []
    for spec, sample, sid, eff_rng in zip((dgp.s1, dgp.s2), bare, ("S1", "S2"), effect_rngs):
        design = build_design(sample, dgp.schema, centering, knot_source)
        beta = np.asarray(spec.beta, dtype=float)
        if beta.shape != (design.n_cols,):
            raise ConfigError(
                f"{sid}: beta has length {beta.size} but the design has "
                f"{design.n_cols} columns (intercept + expanded covariates)"
            )
        gamma = eff_rng.normal(0.0, np.sqrt(spec.sigma2), size=spec.n_clusters)
        eta = design.x @ beta + gamma[design.cluster_index]
        probs = ndtr(eta)
        if probs.min() <= 0.0 or probs.max() >= 1.0:
            raise ConfigError(
                "DGP implies event probabilities of exactly 0 or 1; "
                f"linear predictor range [{eta.min():.2f}, {eta.max():.2f}]"
            )
        y = (eff_rng.random(eta.size) < probs).astype(np.int64)
        samples.append(replace(sample, outcome=y))
    return samples[0], samples[1]
