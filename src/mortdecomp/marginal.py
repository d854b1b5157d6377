"""Marginal (cluster-effect-integrated) probabilities and mortality rates.

Integrating a normal random intercept with variance ``sigma2`` out of a
probit model leaves another probit model whose coefficients are scaled
by ``1 / sqrt(1 + sigma2)``; :mod:`mortdecomp.validation` checks that
closed form against direct Monte-Carlo integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._phi import ndtr
from .splines import quantiles

# The ends of a 95% posterior interval, where ``np.percentile(v, [2.5, 97.5])`` places them.
INTERVAL_PROBS = np.array([2.5, 97.5]) / 100

__all__ = [
    "MortalitySummary",
    "marginalize",
    "marginal_prob",
    "mean_mortality",
]


def marginalize(beta, sigma2) -> np.ndarray:
    """Rescale conditional coefficients into marginal-model coefficients.

    ``beta`` is one coefficient vector with a scalar ``sigma2``, or an
    ``(L, p)`` draw matrix with one ``sigma2`` per row.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 < 0):
        raise ValueError(f"sigma2 must be >= 0, got {sigma2.min()}")
    tilde = np.asarray(beta, dtype=float) * (1.0 / np.sqrt(1.0 + sigma2))[..., None]
    if not np.all(np.isfinite(tilde)):
        raise ValueError("marginal coefficients must be finite")
    return tilde


def marginal_prob(x, coefficients) -> float | np.ndarray:
    """Probability ``Phi(x' beta)`` for a design row (or matrix of rows)."""
    eta = np.asarray(x, dtype=float) @ np.asarray(coefficients, dtype=float)
    out = ndtr(eta)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class MortalitySummary:
    """Posterior of the sample-average marginal mortality rate, per 1000 births."""

    mean: float
    lower: float
    upper: float

    @classmethod
    def from_draws(cls, rates: np.ndarray) -> "MortalitySummary":
        lo, hi = quantiles(rates.copy(), INTERVAL_PROBS)
        return cls(mean=float(rates.mean() * 1000), lower=float(lo * 1000), upper=float(hi * 1000))


def mean_mortality(design, draws) -> MortalitySummary:
    """Posterior summary of ``mean_i Phi(x_i' beta_tilde)`` scaled to per-1000.

    Each retained draw is marginalized and averaged over the design's
    rows by ``decompose_draws``, given one design and equal coefficients
    on both sides, whose ``rate1`` it keeps; the summary reports the
    posterior mean and the 95% equal-tailed interval of that average.
    """
    from .decompose import decompose_draws  # decompose imports this module

    tilde = marginalize(draws.beta, draws.sigma2)
    return MortalitySummary.from_draws(decompose_draws(design, design, tilde, tilde).rate1)
