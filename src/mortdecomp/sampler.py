"""Gibbs sampler for the hierarchical probit model with cluster intercepts.

The model for a binary outcome ``y`` with design row ``x`` in cluster
``j`` is ``P(y = 1) = Phi(x' beta + gamma_j)`` with
``gamma_j ~ N(0, sigma2)``.  Sampling uses the classic latent-variable
augmentation: a latent normal ``z`` whose sign matches ``y`` makes every
full conditional closed form, so the chain is a pure Gibbs sweep
(``z``, then ``beta``, then each ``gamma_j``, then ``sigma2``) with no
accept/reject step.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .dataset import DesignMatrix
from .errors import ConfigError, SingularDesignError

__all__ = [
    "ChainQualityWarning",
    "PriorSpec",
    "McmcConfig",
    "PosteriorDraws",
    "FitDiagnostics",
    "sample_truncated_normal",
    "fit",
    "diagnostics",
    "save_draws",
    "load_draws",
]

# Operational reading of "approximately independent" retained draws:
# at least this effective sample size for every monitored parameter.
MIN_ESS_TARGET = 1000.0

# Below this half-line probability the inverse-CDF map is replaced by a
# tail-robust exponential rejection sampler.
_TAIL_SWITCH = 1e-10

_ACF_MAX_LAG = 50


class ChainQualityWarning(UserWarning):
    """Retained draws fall short of the independence target."""


def _from_dict(cls, d: dict, section: str):
    """``cls(**d)``, raising ``ConfigError`` rather than ``TypeError`` on unknown keys."""
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    return cls(**d)


@dataclass(frozen=True)
class PriorSpec:
    """Independent N(0, beta_sd^2) coefficients and inverse-gamma variance."""

    beta_sd: float = 10.0
    sigma2_shape: float = 1.0
    sigma2_scale: float = 0.1

    def __post_init__(self):
        if self.beta_sd <= 0:
            raise ConfigError(f"beta_sd must be > 0, got {self.beta_sd}")
        if self.sigma2_shape <= 0 or self.sigma2_scale <= 0:
            raise ConfigError("inverse-gamma shape and scale must be > 0")

    @classmethod
    def from_dict(cls, d: dict) -> "PriorSpec":
        return _from_dict(cls, d, "prior")

    def to_dict(self) -> dict:
        return {
            "beta_sd": self.beta_sd,
            "sigma2_shape": self.sigma2_shape,
            "sigma2_scale": self.sigma2_scale,
        }


@dataclass(frozen=True)
class McmcConfig:
    """Chain length bookkeeping.

    ``thin=None`` derives the largest thinning interval that still
    retains ``target_retained`` draws.  Configurations that would retain
    fewer than the target are rejected unless ``allow_short`` is set.
    """

    total: int = 15000
    burnin: int = 5000
    thin: int | None = None
    target_retained: int = 1250
    seed: int = 0
    allow_short: bool = False

    def __post_init__(self):
        if self.burnin < 0 or self.total <= self.burnin:
            raise ConfigError(f"need 0 <= burnin < total, got burnin={self.burnin} total={self.total}")
        if self.thin is not None and self.thin < 1:
            raise ConfigError(f"thin must be >= 1, got {self.thin}")
        if self.target_retained < 1:
            raise ConfigError("target_retained must be >= 1")
        if self.retained < self.target_retained and not self.allow_short:
            raise ConfigError(
                f"configuration retains {self.retained} draws "
                f"(< target {self.target_retained}); lengthen the chain or set allow_short"
            )

    @property
    def effective_thin(self) -> int:
        if self.thin is not None:
            return self.thin
        return max(1, (self.total - self.burnin) // self.target_retained)

    @property
    def retained(self) -> int:
        return (self.total - self.burnin) // self.effective_thin

    def extended(self) -> "McmcConfig":
        """Same chain with the post-burn-in phase doubled (for one retry)."""
        return McmcConfig(
            total=self.burnin + 2 * (self.total - self.burnin),
            burnin=self.burnin,
            thin=None,
            target_retained=self.target_retained,
            seed=self.seed,
            allow_short=self.allow_short,
        )

    @classmethod
    def from_dict(cls, d: dict) -> "McmcConfig":
        return _from_dict(cls, d, "mcmc")

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "burnin": self.burnin,
            "thin": self.thin,
            "target_retained": self.target_retained,
            "seed": self.seed,
            "allow_short": self.allow_short,
        }


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained (beta, sigma2) draws for one survey."""

    survey_id: str
    beta: np.ndarray  # (L, p)
    sigma2: np.ndarray  # (L,)
    column_groups: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        self.beta.setflags(write=False)
        self.sigma2.setflags(write=False)
        if self.beta.ndim != 2 or self.sigma2.shape != (self.beta.shape[0],):
            raise ValueError("beta must be (L, p) with one sigma2 entry per draw")
        if not (np.all(np.isfinite(self.beta)) and np.all(np.isfinite(self.sigma2))):
            raise ValueError("posterior draws must be finite")
        if np.any(self.sigma2 < 0):
            raise ValueError("sigma2 draws must be >= 0")

    @property
    def n_draws(self) -> int:
        return self.beta.shape[0]

    @property
    def n_coefficients(self) -> int:
        return self.beta.shape[1]

    def parameter_names(self) -> list[str]:
        return [f"beta_{j}" for j in range(self.n_coefficients)] + ["sigma2"]


def _truncated_std_normal_above(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw standard normals conditioned on X > a, elementwise."""
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    tail = ndtr(-a)
    extreme = tail < _TAIL_SWITCH

    moderate = ~extreme
    if np.any(moderate):
        am = a[moderate]
        u = rng.random(am.size)
        low = am <= 0.0
        x = np.empty(am.size)
        if np.any(low):
            # work from the lower CDF where it is well conditioned
            fa = ndtr(am[low])
            x[low] = ndtri(fa + u[low] * (1.0 - fa))
        high = ~low
        if np.any(high):
            # map uniforms onto the upper tail probability directly
            x[high] = -ndtri((1.0 - u[high]) * tail[moderate][high])
        out[moderate] = x

    if np.any(extreme):
        # exponential rejection for far tails; acceptance stays near one
        idx = np.flatnonzero(extreme)
        ae = a[idx]
        lam = 0.5 * (ae + np.sqrt(ae * ae + 4.0))
        pending = np.arange(idx.size)
        draws = np.empty(idx.size)
        while pending.size:
            prop = ae[pending] + rng.exponential(1.0, size=pending.size) / lam[pending]
            accept = rng.random(pending.size) < np.exp(-0.5 * (prop - lam[pending]) ** 2)
            draws[pending[accept]] = prop[accept]
            pending = pending[~accept]
        out[idx] = draws
    return out


def sample_truncated_normal(mean, sd, side: str, rng: np.random.Generator):
    """Draw from N(mean, sd^2) restricted to one open half-line.

    ``side`` names the half-line that is cut away: ``"left_of_zero"``
    leaves support (0, inf), ``"right_of_zero"`` leaves (-inf, 0).
    Inverse-CDF sampling is used while the retained half-line has
    probability at least 1e-10; beyond that an exponential rejection
    sampler keeps the draw finite without looping forever.
    """
    scalar = np.isscalar(mean) and np.isscalar(sd)
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    sd = np.broadcast_to(np.asarray(sd, dtype=float), mean.shape)
    if np.any(sd <= 0):
        raise ValueError("sd must be > 0")
    if side == "left_of_zero":
        x = _truncated_std_normal_above(-mean / sd, rng)
        w = mean + sd * x
        w = np.where(w <= 0.0, np.nextafter(0.0, 1.0), w)
    elif side == "right_of_zero":
        x = _truncated_std_normal_above(mean / sd, rng)
        w = mean - sd * x
        w = np.where(w >= 0.0, np.nextafter(0.0, -1.0), w)
    else:
        raise ValueError(f"side must be 'left_of_zero' or 'right_of_zero', got {side!r}")
    return float(w[0]) if scalar else w


def fit(design: DesignMatrix, prior: PriorSpec, config: McmcConfig) -> PosteriorDraws:
    """Fit the hierarchical probit by Gibbs sampling.

    One sweep draws the latent normals truncated to the side implied by
    each outcome, then the coefficient vector from its conjugate
    multivariate-normal full conditional, then every cluster effect from
    its normal full conditional, then the cluster variance from its
    inverse-gamma full conditional.  Burn-in is discarded and the rest
    thinned.  The chain is fully determined by ``config.seed``.
    """
    x = np.asarray(design.x, dtype=float)
    y = np.asarray(design.outcome)
    cl = np.asarray(design.cluster_index)
    n, p = x.shape
    n_clusters = design.n_clusters
    if n_clusters < 2:
        raise ConfigError("need at least 2 clusters to identify the cluster variance")

    xtx = x.T @ x
    eigs = np.linalg.eigvalsh(xtx)
    if eigs[0] <= eigs[-1] * 1e-12:
        raise SingularDesignError(float(eigs[0]))

    precision = xtx + np.eye(p) / prior.beta_sd**2
    cov = np.linalg.inv(precision)
    cov_chol = np.linalg.cholesky(cov)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    idx1 = y == 1
    idx0 = ~idx1
    counts = np.bincount(cl, minlength=n_clusters).astype(float)

    beta = np.zeros(p)
    gamma = np.zeros(n_clusters)
    sigma2 = prior.sigma2_scale / (prior.sigma2_shape + 1.0)  # prior mode
    z = np.zeros(n)

    thin = config.effective_thin
    n_keep = config.retained
    kept_beta = np.empty((n_keep, p))
    kept_sigma2 = np.empty(n_keep)
    k = 0
    ig_shape = prior.sigma2_shape + 0.5 * n_clusters

    for it in range(1, config.total + 1):
        eta = x @ beta + gamma[cl]
        z[idx1] = sample_truncated_normal(eta[idx1], 1.0, "left_of_zero", rng)
        z[idx0] = sample_truncated_normal(eta[idx0], 1.0, "right_of_zero", rng)

        resid = z - gamma[cl]
        beta = cov @ (x.T @ resid) + cov_chol @ rng.standard_normal(p)

        resid = z - x @ beta
        prec = counts + 1.0 / sigma2
        gamma = np.bincount(cl, weights=resid, minlength=n_clusters) / prec
        gamma += rng.standard_normal(n_clusters) / np.sqrt(prec)

        sigma2 = 1.0 / rng.gamma(ig_shape, 1.0 / (prior.sigma2_scale + 0.5 * (gamma @ gamma)))

        if it > config.burnin and (it - config.burnin) % thin == 0 and k < n_keep:
            kept_beta[k] = beta
            kept_sigma2[k] = sigma2
            k += 1

    draws = PosteriorDraws(
        survey_id=design.survey_id,
        beta=kept_beta,
        sigma2=kept_sigma2,
        column_groups=dict(design.column_groups),
    )
    _warn_if_underpowered(draws, config)
    return draws


def _warn_if_underpowered(draws: PosteriorDraws, config: McmcConfig) -> None:
    if draws.n_draws < config.target_retained:
        warnings.warn(
            f"retained {draws.n_draws} draws, below the target of {config.target_retained}",
            ChainQualityWarning,
            stacklevel=3,
        )
        return
    if draws.n_draws >= 100:
        diag = diagnostics(draws)
        if diag.min_ess < MIN_ESS_TARGET:
            warnings.warn(
                f"minimum effective sample size {diag.min_ess:.0f} is below {MIN_ESS_TARGET:.0f}; "
                "consider a longer chain or larger thinning interval",
                ChainQualityWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class FitDiagnostics:
    """Per-parameter mixing summaries for a set of retained draws."""

    ess: dict[str, float]
    autocorrelations: dict[str, np.ndarray]  # lags 1..50
    traces: dict[str, np.ndarray]
    degenerate: frozenset[str]
    acceptance_rate: float = 1.0  # Gibbs sweeps always accept

    @property
    def min_ess(self) -> float:
        return min(self.ess.values())


def _autocovariance(xc: np.ndarray, lag: int) -> float:
    n = xc.size
    return float(xc[: n - lag] @ xc[lag:]) / n


def _ess_initial_positive(xc: np.ndarray, g0: float) -> float:
    """Effective sample size via Geyer's initial positive sequence."""
    n = xc.size
    tau = 0.0
    m = 0
    while 2 * m + 1 < n:
        rho_even = 1.0 if m == 0 else _autocovariance(xc, 2 * m) / g0
        rho_odd = _autocovariance(xc, 2 * m + 1) / g0
        pair = rho_even + rho_odd
        if m > 0 and pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 1
    tau -= 1.0
    tau = max(tau, 1e-12)
    return float(min(n / tau, n))


def diagnostics(draws: PosteriorDraws) -> FitDiagnostics:
    """ESS and short-lag autocorrelations for every monitored parameter.

    ESS uses the initial-positive-sequence truncation of the summed
    autocorrelations; a constant trace is flagged degenerate and
    reported at the full draw count.
    """
    n = draws.n_draws
    if n < 100:
        raise ValueError(f"diagnostics need at least 100 retained draws, got {n}")
    series = {name: trace for name, trace in zip(draws.parameter_names(), list(draws.beta.T) + [draws.sigma2])}
    max_lag = min(_ACF_MAX_LAG, n - 2)

    ess: dict[str, float] = {}
    acf: dict[str, np.ndarray] = {}
    degenerate: set[str] = set()
    for name, trace in series.items():
        xc = trace - trace.mean()
        g0 = float(xc @ xc) / n
        if g0 == 0.0:
            degenerate.add(name)
            ess[name] = float(n)
            acf[name] = np.zeros(max_lag)
            continue
        acf[name] = np.array([_autocovariance(xc, lag) / g0 for lag in range(1, max_lag + 1)])
        ess[name] = _ess_initial_positive(xc, g0)
    return FitDiagnostics(
        ess=ess,
        autocorrelations=acf,
        traces=series,
        degenerate=frozenset(degenerate),
    )


def save_draws(draws: PosteriorDraws, csv_path, sidecar_path=None, config_echo: dict | None = None) -> None:
    """Write draws as CSV (one row per draw) plus a JSON sidecar.

    The CSV carries full round-trip precision; the sidecar records the
    survey id, column groups and whatever configuration echo is passed.
    """
    csv_path = Path(csv_path)
    header = [f"beta_{j}" for j in range(draws.n_coefficients)] + ["sigma2"]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for b, s2 in zip(draws.beta, draws.sigma2):
            writer.writerow([repr(float(v)) for v in b] + [repr(float(s2))])
    if sidecar_path is not None:
        sidecar = {
            "survey_id": draws.survey_id,
            "column_groups": {k: [lo, hi] for k, (lo, hi) in draws.column_groups.items()},
            "n_draws": draws.n_draws,
            "n_coefficients": draws.n_coefficients,
            "config": config_echo or {},
        }
        Path(sidecar_path).write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def load_draws(csv_path, sidecar_path=None) -> PosteriorDraws:
    """Read draws written by :func:`save_draws`."""
    csv_path = Path(csv_path)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "sigma2" or not header[0].startswith("beta_"):
            raise ConfigError(f"{csv_path}: not a draws file (header {header[:3]}...)")
        rows = [[float(v) for v in row] for row in reader]
    arr = np.asarray(rows, dtype=float)
    survey_id = ""
    column_groups: dict[str, tuple[int, int]] = {}
    if sidecar_path is not None:
        meta = json.loads(Path(sidecar_path).read_text(encoding="utf-8"))
        n_coefficients = arr.shape[1] - 1
        if meta.get("n_coefficients", n_coefficients) != n_coefficients:
            raise ConfigError(
                f"{sidecar_path}: sidecar records {meta['n_coefficients']} coefficients "
                f"but {csv_path} has {n_coefficients}"
            )
        survey_id = meta.get("survey_id", "")
        column_groups = {k: (int(lo), int(hi)) for k, (lo, hi) in meta.get("column_groups", {}).items()}
    return PosteriorDraws(
        survey_id=survey_id,
        beta=arr[:, :-1],
        sigma2=arr[:, -1],
        column_groups=column_groups,
    )
