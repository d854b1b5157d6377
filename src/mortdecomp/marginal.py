"""Marginal (cluster-effect-integrated) probabilities and mortality rates.

Integrating a normal random intercept with variance ``sigma2`` out of a
probit model leaves another probit model whose coefficients are scaled
by ``1 / sqrt(1 + sigma2)``.  That rescaling is the default here; the
``maintext_multiply`` convention (scaling by ``sqrt(1 + sigma2)``) is
exposed only so its effect can be examined, and fails the Monte-Carlo
cross-check in :mod:`mortdecomp.validation` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError

__all__ = [
    "CONVENTIONS",
    "MarginalDraw",
    "MortalitySummary",
    "marginalize",
    "marginalize_all",
    "marginal_prob",
    "mean_mortality",
]

CONVENTIONS = ("appendix_divide", "maintext_multiply")


@dataclass(frozen=True)
class MarginalDraw:
    """Coefficients of the marginal probit for one posterior draw."""

    coefficients: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("marginal coefficients must be finite")


def _scale(sigma2, convention: str):
    """Coefficient scale factor for a scalar or an array of ``sigma2`` draws."""
    if convention not in CONVENTIONS:
        raise ConfigError(f"unknown marginalization convention {convention!r}")
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 < 0):
        raise ValueError(f"sigma2 must be >= 0, got {sigma2.min()}")
    root = np.sqrt(1.0 + sigma2)
    return 1.0 / root if convention == "appendix_divide" else root


def marginalize(beta, sigma2: float, convention: str = "appendix_divide") -> MarginalDraw:
    """Rescale conditional coefficients into marginal-model coefficients."""
    beta = np.asarray(beta, dtype=float)
    return MarginalDraw(beta * _scale(float(sigma2), convention))


def marginalize_all(beta: np.ndarray, sigma2: np.ndarray, convention: str = "appendix_divide") -> np.ndarray:
    """Vectorised marginalization of an ``(L, p)`` draw matrix."""
    beta = np.asarray(beta, dtype=float)
    return beta * _scale(np.atleast_1d(sigma2), convention)[:, None]


def marginal_prob(x, coefficients) -> float | np.ndarray:
    """Probability ``Phi(x' beta)`` for a design row (or matrix of rows)."""
    coeff = getattr(coefficients, "coefficients", coefficients)
    eta = np.asarray(x, dtype=float) @ np.asarray(coeff, dtype=float)
    out = ndtr(eta)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class MortalitySummary:
    """Posterior of the sample-average marginal mortality rate, per 1000 births."""

    per_draw: np.ndarray  # probability units, one entry per retained draw
    mean: float
    lower: float
    upper: float

    @classmethod
    def from_draws(cls, rates: np.ndarray) -> "MortalitySummary":
        lo, hi = np.percentile(rates, [2.5, 97.5])
        return cls(per_draw=rates, mean=float(rates.mean() * 1000), lower=float(lo * 1000), upper=float(hi * 1000))


def mean_mortality(design, draws, convention: str = "appendix_divide", chunk: int = 128) -> MortalitySummary:
    """Posterior summary of ``mean_i Phi(x_i' beta_tilde)`` scaled to per-1000.

    Each retained draw is marginalized and averaged over the design's
    rows; the summary reports the posterior mean and the 95%
    equal-tailed interval of that average.
    """
    beta = np.asarray(draws.beta, dtype=float)
    if beta.ndim != 2 or beta.shape[1] != design.x.shape[1]:
        raise ValueError(
            f"draws have {beta.shape[1] if beta.ndim == 2 else 'bad'} coefficients per draw "
            f"but the design has {design.x.shape[1]} columns"
        )
    tilde = marginalize_all(beta, draws.sigma2, convention)
    n_draws = tilde.shape[0]
    rates = np.empty(n_draws)
    for start in range(0, n_draws, chunk):
        block = tilde[start : start + chunk]
        rates[start : start + chunk] = ndtr(design.x @ block.T).mean(axis=0)
    return MortalitySummary.from_draws(rates)
