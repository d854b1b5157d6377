"""Independent reference implementations used to cross-check the core math,
the cross-checks built on them, and the variance profile of the
per-covariate effects.

Each oracle deliberately re-derives a quantity along a different route
than the main modules: the closed-form linear decomposition, direct
Monte-Carlo integration over the cluster effect, and a Newton-Raphson
maximum-likelihood probit.  ``random_design`` builds the random designs
they are checked on.  Each of the four ``*_deviation`` cross-checks
returns its worst deviation; ``validate_suite`` (``mortdecomp validate``)
and the acceptance tests call them at their own seeds, sizes and
tolerances.  The variance profile of partial sums is not an oracle: it
is read off the decomposition's per-draw group effects.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._phi import log_ndtr, ndtr, ndtri
from .dataset import CovariateSchema, CovariateSpec, DesignMatrix, build_design, compute_centering
from .decompose import decompose_draws
from .errors import NonConvergenceError, require_seed
from .marginal import marginal_prob, marginalize
from .sampler import ChainQualityWarning, McmcConfig, PriorSpec, diagnostics, fit
from .simulate import SyntheticConfig, SyntheticSurveySpec, synthesize

__all__ = [
    "linear_oracle",
    "mc_marginalization_oracle",
    "ml_probit_fit",
    "random_design",
    "linear_triangle_deviation",
    "marginalization_grid_deviation",
    "prior_limit_deviation",
    "additivity_deviation",
    "CheckResult",
    "validate_suite",
    "VarianceCollapseProfile",
    "variance_collapse",
]


def linear_oracle(xbar1, xbar2, beta1, beta2) -> tuple[float, float]:
    """Closed-form decomposition for the identity link.

    With a linear model the fitted mean is the mean covariate vector
    times the coefficients, so the covariate and coefficient effects
    reduce to ``(xbar1 - xbar2)' beta1`` and ``xbar2' (beta1 - beta2)``.
    """
    xbar1 = np.asarray(xbar1, dtype=float)
    xbar2 = np.asarray(xbar2, dtype=float)
    beta1 = np.asarray(beta1, dtype=float)
    beta2 = np.asarray(beta2, dtype=float)
    if not (xbar1.shape == xbar2.shape == beta1.shape == beta2.shape):
        raise ValueError("all four vectors must share one length")
    return float((xbar1 - xbar2) @ beta1), float(xbar2 @ (beta1 - beta2))


def mc_marginalization_oracle(beta, sigma2: float, x, n_draws: int, seed: int | tuple[int, ...]) -> tuple[float, float]:
    """Monte-Carlo estimate of the cluster-effect-integrated probability.

    Averages ``Phi(x' beta + g)`` over ``g ~ N(0, sigma2)`` and returns
    the estimate with its Monte-Carlo standard error.  With ``sigma2``
    zero the integral is degenerate and the exact value is returned with
    a zero standard error.  ``seed`` is the entropy of the draws'
    ``SeedSequence``: an int or a tuple of ints.
    """
    if n_draws < 10_000:
        raise ValueError(f"need at least 1e4 draws for a usable oracle, got {n_draws}")
    eta = float(np.asarray(x, dtype=float) @ np.asarray(beta, dtype=float))
    if sigma2 == 0.0:
        return float(ndtr(eta)), 0.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = ndtr(eta + rng.normal(0.0, np.sqrt(sigma2), size=n_draws))
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n_draws))


def random_design(rng: np.random.Generator, n_rows: int, group_sizes) -> DesignMatrix:
    """Intercept plus standard-normal column groups ``g0, g1, ...`` of the given widths."""
    cols = [np.ones((n_rows, 1))]
    groups = {}
    at = 1
    for k, size in enumerate(group_sizes):
        cols.append(rng.normal(size=(n_rows, size)))
        groups[f"g{k}"] = (at, at + size)
        at += size
    return DesignMatrix(
        x=np.hstack(cols),
        outcome=np.zeros(n_rows, dtype=np.int64),
        cluster_index=np.zeros(n_rows, dtype=np.int64),
        column_groups=groups,
        n_clusters=1,
    )


def _probit_score_info(x: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """Gradient and observed information of the probit log-likelihood."""
    eta = x @ beta
    # inverse Mills ratios, computed in log space for tail stability
    log_phi = -0.5 * eta**2 - 0.5 * np.log(2 * np.pi)
    r_pos = np.exp(log_phi - log_ndtr(eta))  # phi/Phi(eta)
    r_neg = np.exp(log_phi - log_ndtr(-eta))  # phi/Phi(-eta)
    score_per_obs = np.where(y == 1, r_pos, -r_neg)
    weights = np.where(y == 1, r_pos * (eta + r_pos), r_neg * (r_neg - eta))
    grad = x.T @ score_per_obs
    info = x.T @ (x * weights[:, None])
    return grad, info


def ml_probit_fit(design, tol: float = 1e-8, max_iter: int = 100) -> np.ndarray:
    """Newton-Raphson maximum-likelihood probit without random effects.

    Converges when the gradient max-norm drops below ``tol``; raises
    ``NonConvergenceError`` carrying the last iterate if the iteration
    cap is reached (e.g. under separation).
    """
    x = np.asarray(design.x, dtype=float)
    y = np.asarray(design.outcome)
    rate = min(max(float(y.mean()), 1e-6), 1 - 1e-6)
    beta = np.zeros(x.shape[1])
    beta[0] = float(ndtri(rate))
    for _ in range(max_iter):
        grad, info = _probit_score_info(x, y, beta)
        if np.max(np.abs(grad)) < tol:
            return beta
        beta = beta + np.linalg.solve(info, grad)
        if np.max(np.abs(beta)) > 50.0:
            # the linear predictor has saturated the normal CDF; the
            # likelihood is increasing without bound (separation)
            raise NonConvergenceError(
                "probit Newton-Raphson is diverging (separated data?)", last_iterate=beta
            )
    raise NonConvergenceError(
        f"probit Newton-Raphson did not converge in {max_iter} iterations", last_iterate=beta
    )


def linear_triangle_deviation(rng: np.random.Generator, n_fixtures: int) -> float:
    """Worst gap between the identity-link decomposition and ``linear_oracle``
    over ``n_fixtures`` pairs of 20-row random designs."""
    worst = 0.0
    for _ in range(n_fixtures):
        d1 = random_design(rng, 20, [1, 1])
        d2 = random_design(rng, 20, [1, 1])
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        got = decompose_draws(d1, d2, b1, b2, link="identity")
        want = linear_oracle(d1.x.mean(axis=0), d2.x.mean(axis=0), b1, b2)
        worst = max(worst, abs(got.x_effect[0] - want[0]), abs(got.beta_effect[0] - want[1]))
    return worst


def marginalization_grid_deviation(n_draws: int, seed: int) -> float:
    """Worst gap, in Monte-Carlo standard errors, between ``marginalize`` and
    ``mc_marginalization_oracle`` over x'beta in -2..2 and sigma2 in {0, 0.25, 1, 4}.

    Point k of the grid draws from ``SeedSequence((seed, k))``, so no two
    points, of one seed or of two, share a stream.  A gap at an exact
    sigma2 = 0 point is infinite.
    """
    worst = 0.0
    grid = [(eta, sigma2) for eta in (-2.0, -1.0, 0.0, 1.0, 2.0) for sigma2 in (0.0, 0.25, 1.0, 4.0)]
    for k, (eta, sigma2) in enumerate(grid):
        estimate, se = mc_marginalization_oracle([eta], sigma2, [1.0], n_draws, seed=(seed, k))
        prob = marginal_prob([1.0], marginalize([eta], sigma2))
        if se == 0.0:
            worst = max(worst, 0.0 if prob == estimate else np.inf)
        else:
            worst = max(worst, abs(prob - estimate) / se)
    return worst


def prior_limit_deviation(births_per_cluster: int, data_seed: int, chain_seed: int) -> float:
    """Worst gap, in Monte-Carlo standard errors (posterior sd over root ESS),
    between a flat-prior posterior mean and ``ml_probit_fit``.

    The survey has no cluster variance: fifty clusters of
    ``births_per_cluster`` births, intercept and binary ``sex`` with
    coefficients (-1.0, 0.4).  The chain pins sigma2 near 1e-5.
    """
    schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
    spec = SyntheticSurveySpec(
        beta=(-1.0, 0.4),
        sigma2=0.0,
        n_clusters=50,
        births_per_cluster=births_per_cluster,
        survey_year=2000,
        covariates={"sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.5, 0.5]}},
    )
    sample, _ = synthesize(SyntheticConfig(schema, spec, replace(spec, survey_year=2014)), seed=data_seed)
    design = build_design(sample, schema, compute_centering(sample, schema), sample.columns)
    flat = PriorSpec(beta_sd=1e6, sigma2_shape=1e6, sigma2_scale=10.0)
    mcmc = McmcConfig(total=1000 + 1500 * 2, burnin=1000, thin=2, target_retained=1500, seed=chain_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ChainQualityWarning)
        draws = fit(design, flat, mcmc)
    ess = diagnostics(draws).ess
    mc_se = draws.beta.std(axis=0, ddof=1) / np.sqrt([ess[f"beta_{j}"] for j in range(draws.n_coefficients)])
    return float(np.max(np.abs(draws.beta.mean(axis=0) - ml_probit_fit(design)) / mc_se))


def additivity_deviation(rng: np.random.Generator, n_instances: int) -> tuple[float, float]:
    """Worst ``|x_effect + beta_effect - overall_diff|`` and ``|sum(group_effects) - beta_effect|``
    over random designs, coefficients and orders."""
    worst_overall = 0.0
    worst_groups = 0.0
    for _ in range(n_instances):
        n_groups = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_groups)]
        d1 = random_design(rng, int(rng.integers(10, 40)), sizes)
        d2 = random_design(rng, int(rng.integers(10, 40)), sizes)
        p = d1.n_cols
        b1 = rng.normal(scale=0.8, size=p)
        b2 = rng.normal(scale=0.8, size=p)
        order = list(rng.permutation(["intercept"] + [f"g{k}" for k in range(n_groups)]))
        d = decompose_draws(d1, d2, b1, b2, order)
        worst_overall = max(worst_overall, abs(d.x_effect[0] + d.beta_effect[0] - d.overall_diff[0]))
        worst_groups = max(worst_groups, abs(sum(d.group_effects[0]) - d.beta_effect[0]))
    return worst_overall, worst_groups


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def validate_suite(seed: int = 0) -> list[CheckResult]:
    """The ``mortdecomp validate`` checks, seeded from ``seed`` (a ``ConfigError`` unless ``require_seed`` takes it)."""
    seed = require_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    linear = linear_triangle_deviation(rng, 100)
    grid = marginalization_grid_deviation(200_000, seed + 12345)
    prior = prior_limit_deviation(100, seed + 1, seed + 2)
    overall, groups = additivity_deviation(rng, 200)
    return [
        CheckResult("linear_triangle", linear < 1e-12, f"max deviation {linear:.2e} (tol 1e-12)"),
        CheckResult("mc_marginalization_grid", bool(grid <= 3.0),
                    f"max deviation {grid:.2f} MC standard errors (tol 3)"),
        CheckResult("ml_prior_limit", bool(prior <= 2.0), f"max deviation {prior:.2f} MC standard errors (tol 2)"),
        CheckResult("collapsing_sum_fuzz", overall < 1e-12 and groups < 1e-12,
                    f"max |sum(groups)-beta| {groups:.2e}, max |x+beta-overall| {overall:.2e} (tol 1e-12)"),
    ]


@dataclass(frozen=True)
class VarianceCollapseProfile:
    """Posterior variance of partial sums of the ordered group effects.

    Entry ``m`` is the variance of the sum of the first ``m + 1`` group
    effects; the final entry equals the variance of the coefficient
    effect because the full sum *is* the coefficient effect.
    """

    order: tuple[str, ...]
    partial_sum_variance: np.ndarray  # length K
    beta_effect_variance: float
    correlation: np.ndarray  # (K, K) pairwise correlation of group effects

    def __post_init__(self):
        if abs(self.partial_sum_variance[-1] - self.beta_effect_variance) > 1e-12 * max(
            1.0, abs(self.beta_effect_variance)
        ):
            raise ValueError("final partial-sum variance must equal the beta-effect variance")

    @classmethod
    def from_draws(cls, draws) -> "VarianceCollapseProfile":
        """Profile of the per-draw group effects of a decomposition.

        ``draws`` is a :class:`~mortdecomp.decompose.DecompositionDraws`,
        such as ``DecompositionSummary.draws``; the profile follows its
        order.
        """
        effects = draws.group_effects
        if draws.n_draws < 2 or np.allclose(effects.std(axis=0), 0.0):
            corr = np.eye(len(draws.order))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = np.corrcoef(effects.T)
        return cls(
            order=draws.order,
            partial_sum_variance=np.cumsum(effects, axis=1).var(axis=0, ddof=1),
            beta_effect_variance=float(draws.beta_effect.var(ddof=1)),
            correlation=np.atleast_2d(corr),
        )


def variance_collapse(design2, draws1, draws2, order=None) -> VarianceCollapseProfile:
    """Profile of posterior variances as group effects accumulate.

    For every paired draw the per-group effects are computed in
    ``order`` over survey 2's sample; the profile reports the posterior
    variance of each partial sum together with the pairwise correlation
    matrix of the individual effects.  For draws already decomposed,
    ``VarianceCollapseProfile.from_draws`` gives it without a second walk.
    """
    tilde1 = marginalize(draws1.beta, draws1.sigma2)
    tilde2 = marginalize(draws2.beta, draws2.sigma2)
    return VarianceCollapseProfile.from_draws(decompose_draws(design2, design2, tilde1, tilde2, order))
