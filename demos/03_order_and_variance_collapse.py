"""Order dependence of the per-covariate split, and the variance profile.

The coefficient effect telescopes into one contribution per covariate
group, but the split depends on the order in which groups are swapped;
only the total is order-invariant.  The posterior variance of the
partial sums typically stays above the variance of the total until the
last group joins, because the contributions are strongly negatively
correlated.

Run with:  python demos/03_order_and_variance_collapse.py
"""

import itertools

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
    decompose_draws,
    fit,
    marginalize,
    pool_samples,
    synthesize,
    variance_collapse,
)

schema = CovariateSchema(
    (
        CovariateSpec("sex", "binary", reference="female"),
        CovariateSpec("residence", "binary", reference="rural"),
    )
)
covariates = {
    "sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.5, 0.5]},
    "residence": {"dist": "choice", "values": ["rural", "urban"], "probs": [0.6, 0.4]},
}
spec = dict(
    sigma2=0.2, n_clusters=120, births_per_cluster=15, covariates=covariates
)
dgp = SyntheticConfig(
    schema=schema,
    s1=SyntheticSurveySpec(beta=(-1.0, 0.35, -0.3), survey_year=2000, **spec),
    s2=SyntheticSurveySpec(beta=(-1.45, 0.15, -0.1), survey_year=2014, **spec),
)
s1, s2 = synthesize(dgp, seed=7)
centering = compute_centering(s1, schema)
pooled = pool_samples(s1, s2)
d1 = build_design(s1, schema, centering, pooled)
d2 = build_design(s2, schema, centering, pooled)

print("fitting both surveys ...")
draws1 = fit(d1, PriorSpec(), McmcConfig(total=1000 + 1000 * 3, burnin=1000, thin=3, target_retained=1000, seed=1))
draws2 = fit(d2, PriorSpec(), McmcConfig(total=1000 + 1000 * 3, burnin=1000, thin=3, target_retained=1000, seed=2))

b1 = marginalize(draws1.beta.mean(axis=0), float(draws1.sigma2.mean()))
b2 = marginalize(draws2.beta.mean(axis=0), float(draws2.sigma2.mean()))

print("\nper-group effects at the posterior-mean coefficients, every order:")
names = ["intercept", "sex", "residence"]
print(f"  {'order':<34}{'intercept':>10}{'sex':>8}{'residence':>10}{'total':>9}")
for order in itertools.permutations(names):
    d = decompose_draws(d2, d2, b1, b2, list(order))
    effects = dict(zip(order, d.group_effects[0]))
    total = sum(effects.values())
    print(
        f"  {' -> '.join(order):<34}"
        f"{1000 * effects['intercept']:10.2f}{1000 * effects['sex']:8.2f}"
        f"{1000 * effects['residence']:10.2f}{1000 * total:9.2f}"
    )
print("  (per 1000 births; the total column never moves)")

print("\nposterior variance of partial sums (default order):")
profile = variance_collapse(d2, draws1, draws2)
for m, (name, var) in enumerate(zip(profile.order, profile.partial_sum_variance), start=1):
    bar = "#" * max(1, int(60 * var / profile.partial_sum_variance.max()))
    print(f"  first {m} ({name:<10}) {var:10.3e} {bar}")
print(f"  coefficient-effect variance   {profile.beta_effect_variance:10.3e} (equals the last row)")

print("\npairwise correlation of the group effects:")
print(np.array2string(profile.correlation, precision=2, suppress_small=True))
print("(large negative off-diagonals are why early partial sums are noisy)")
