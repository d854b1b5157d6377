"""End-to-end walkthrough on synthetic data.

Generates two surveys from a known probit truth, fits the hierarchical
model to each, and decomposes the between-survey decline in average
mortality risk into a covariate-distribution part and a coefficient
part, with per-covariate contributions.

Run with:  python demos/01_synthetic_pipeline.py
"""

import numpy as np

from mortdecomp import (
    CovariateSchema,
    CovariateSpec,
    McmcConfig,
    PriorSpec,
    SyntheticConfig,
    SyntheticSurveySpec,
    build_design,
    compute_centering,
    diagnostics,
    fit,
    pool_samples,
    posterior_decompose,
    synthesize,
)

schema = CovariateSchema(
    (
        CovariateSpec("wealth_rank", "continuous_spline", degree=3, df=4),
        CovariateSpec("sex", "binary", reference="female"),
        CovariateSpec("residence", "binary", reference="rural"),
    )
)

# Truth lives in design-column space: intercept, 4 spline columns for
# wealth, then the two binary contrasts.  Survey 2 keeps the covariate
# effects but shifts the intercept down: a "same parents, safer births"
# change that the decomposition should attribute to coefficients.
covariates = {
    "wealth_rank": {"dist": "uniform", "low": 0.0, "high": 1.0},
    "sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.5, 0.5]},
    "residence": {"dist": "choice", "values": ["rural", "urban"], "probs": [0.65, 0.35]},
}
beta_s1 = [-1.05, -0.1, -0.3, -0.45, -0.55, 0.25, -0.2]
beta_s2 = [-1.45, -0.1, -0.3, -0.45, -0.55, 0.25, -0.2]

dgp = SyntheticConfig(
    schema=schema,
    s1=SyntheticSurveySpec(
        beta=tuple(beta_s1), sigma2=0.2, n_clusters=150, births_per_cluster=20,
        survey_year=2000, covariates=covariates,
    ),
    s2=SyntheticSurveySpec(
        beta=tuple(beta_s2), sigma2=0.15, n_clusters=150, births_per_cluster=20,
        survey_year=2014,
        covariates={**covariates, "residence": {"dist": "choice", "values": ["rural", "urban"], "probs": [0.5, 0.5]}},
    ),
)

print("generating two synthetic surveys ...")
s1, s2 = synthesize(dgp, seed=20240810)
for s, spec in ((s1, dgp.s1), (s2, dgp.s2)):
    rate = 1000 * int(s.outcome.sum()) / s.n_births
    print(f"  {s.survey_id} ({spec.survey_year}): {s.n_births} births, "
          f"{s.n_clusters} clusters, empirical rate {rate:.1f} per 1000")

print("\nbuilding shared-basis designs (centering from survey 1's poorest 20%) ...")
centering = compute_centering(s1, schema)
pooled = pool_samples(s1, s2)
d1 = build_design(s1, schema, centering, pooled)
d2 = build_design(s2, schema, centering, pooled)
print(f"  {d1.n_cols} columns; groups: {d1.column_groups}")

print("\nfitting both surveys (Gibbs, latent-normal augmentation) ...")
prior = PriorSpec()
draws1 = fit(d1, prior, McmcConfig(total=1000 + 1250 * 4, burnin=1000, thin=4, seed=1))
draws2 = fit(d2, prior, McmcConfig(total=1000 + 1250 * 4, burnin=1000, thin=4, seed=2))
for name, draws in (("S1", draws1), ("S2", draws2)):
    diag = diagnostics(draws)
    print(f"  {name}: {draws.n_draws} retained draws, min ESS {diag.min_ess:.0f}, "
          f"posterior sigma2 {draws.sigma2.mean():.3f}")

print("\ndecomposing the decline (cluster effects integrated out per draw) ...")
summary = posterior_decompose(d1, d2, draws1, draws2, years_between=14.0)
r1, r2 = summary.rate_s1, summary.rate_s2
print(f"  fitted rates per 1000: S1 {r1.mean:.1f} [{r1.lower:.1f}, {r1.upper:.1f}], "
      f"S2 {r2.mean:.1f} [{r2.lower:.1f}, {r2.upper:.1f}]")
print(f"  {'component':<14}{'per 1000/yr':>12}{'95% interval':>20}{'% of decline':>14}  sig")
for name in ["overall_diff", "x_effect", "beta_effect"] + list(summary.order):
    c = summary.components[name]
    interval = f"[{c.annualized_lower:6.2f}, {c.annualized_upper:6.2f}]"
    pct = f"{c.percent:6.0f}%" if np.isfinite(c.percent) else "   n/a"
    print(f"  {name:<14}{c.annualized:12.2f}{interval:>20}{pct:>14}  {'*' if c.significant else ''}")

print("\nThe intercept swap should carry most of the decline here, because the")
print("generator only moved the intercept while the residence mix also shifted.")
