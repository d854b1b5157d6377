"""Independent reference implementations used to cross-check the core math,
and the variance profile of the per-covariate effects.

Each oracle deliberately re-derives a quantity along a different route
than the main modules: the closed-form linear decomposition, direct
Monte-Carlo integration over the cluster effect, and a Newton-Raphson
maximum-likelihood probit.  The variance profile of partial sums is not
an oracle: it is read off the decomposition's per-draw group effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .decompose import _decompose_draws
from .errors import NonConvergenceError
from .marginal import marginalize_all

__all__ = [
    "linear_oracle",
    "mc_marginalization_oracle",
    "ml_probit_fit",
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


def mc_marginalization_oracle(beta, sigma2: float, x, n_draws: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the cluster-effect-integrated probability.

    Averages ``Phi(x' beta + g)`` over ``g ~ N(0, sigma2)`` and returns
    the estimate with its Monte-Carlo standard error.  With ``sigma2``
    zero the integral is degenerate and the exact value is returned with
    a zero standard error.
    """
    if n_draws < 10_000:
        raise ValueError(f"need at least 1e4 draws for a usable oracle, got {n_draws}")
    eta = float(np.asarray(x, dtype=float) @ np.asarray(beta, dtype=float))
    if sigma2 == 0.0:
        return float(ndtr(eta)), 0.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = ndtr(eta + rng.normal(0.0, np.sqrt(sigma2), size=n_draws))
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n_draws))


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


def variance_collapse(design2, draws1, draws2, order=None, convention: str = "appendix_divide") -> VarianceCollapseProfile:
    """Profile of posterior variances as group effects accumulate.

    For every paired draw the per-group effects are computed in
    ``order`` over survey 2's sample; the profile reports the posterior
    variance of each partial sum together with the pairwise correlation
    matrix of the individual effects.  For draws already decomposed,
    ``VarianceCollapseProfile.from_draws`` gives it without a second walk.
    """
    tilde1 = marginalize_all(draws1.beta, draws1.sigma2, convention)
    tilde2 = marginalize_all(draws2.beta, draws2.sigma2, convention)
    return VarianceCollapseProfile.from_draws(_decompose_draws(design2, design2, tilde1, tilde2, order))
