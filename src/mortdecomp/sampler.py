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
from .errors import ConfigError, SingularDesignError, require_bool, require_number, require_object, require_str

__all__ = [
    "ChainQualityWarning",
    "PriorSpec",
    "McmcConfig",
    "PosteriorDraws",
    "FitDiagnostics",
    "GibbsChain",
    "sample_truncated_normal",
    "fit",
    "target_shortfall",
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


def _from_dict(cls, d: dict, section: str, kinds: dict):
    """``cls(**d)``; ``ConfigError`` on unknown keys or when a field named in ``kinds`` is not a value of its kind.

    A kind is ``int`` or ``float`` (see ``require_number``) or ``bool``.
    """
    unknown = set(require_object(d, section)) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    values = dict(d)
    for key, kind in kinds.items():
        if key in values:
            where = f"{section}.{key}"
            values[key] = require_bool(values[key], where) if kind is bool else require_number(values[key], where, kind)
    return cls(**values)


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
        return _from_dict(cls, d, "prior", dict.fromkeys(("beta_sd", "sigma2_shape", "sigma2_scale"), float))

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
        ints = ["total", "burnin", "target_retained", "seed"]
        if require_object(d, "mcmc").get("thin") is not None:  # null derives thin from the target
            ints.append("thin")
        return _from_dict(cls, d, "mcmc", {**dict.fromkeys(ints, int), "allow_short": bool})

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


def _far_tail(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Robert's exponential rejection draws of X > a; acceptance stays near one in the far tail."""
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    pending = np.arange(a.size)
    draws = np.empty(a.size)
    while pending.size:
        prop = a[pending] + rng.exponential(1.0, size=pending.size) / lam[pending]
        accept = rng.random(pending.size) < np.exp(-0.5 * (prop - lam[pending]) ** 2)
        draws[pending[accept]] = prop[accept]
        pending = pending[~accept]
    return draws


def _truncated_std_normal_above(a: np.ndarray, rng: np.random.Generator, groups=None) -> np.ndarray:
    """Draw standard normals conditioned on X > a, elementwise.

    ``groups`` lists index arrays that together cover ``a`` once (default:
    one group of every element).  The random stream is taken group by
    group, in order: the group's uniforms for its inverse-CDF draws, then
    its far-tail rejection draws.  Drawing several groups in one call
    therefore gives exactly the draws, and leaves ``rng`` in exactly the
    state, of one call per group.
    """
    a = np.asarray(a, dtype=float)
    # ndtr(a) where a <= 0 (the lower CDF, well conditioned there) and the
    # upper tail ndtr(-a) where a > 0; a <= 0 leaves an upper tail >= 1/2
    t = ndtr(-np.abs(a))
    low = a <= 0.0
    extreme = (t < _TAIL_SWITCH) & ~low
    if groups is None:
        groups = (np.arange(a.size),)
    u = np.empty_like(a)
    u[extreme] = 0.5  # placeholder; the rejection draws replace these elements
    far = []
    for g in groups:
        in_far = extreme[g]
        moderate = g[~in_far]
        u[moderate] = rng.random(moderate.size)
        idx = g[in_far]
        far.append((idx, _far_tail(a[idx], rng)))
    x = ndtri(np.where(low, t + u * (1.0 - t), (1.0 - u) * t))
    np.negative(x, out=x, where=~low)
    for idx, draws in far:
        x[idx] = draws
    return x


def _latent_draw(eta: np.ndarray, sign: np.ndarray, groups, rng: np.random.Generator) -> np.ndarray:
    """Latent normals ``z ~ N(eta, 1)`` with ``z > 0`` where ``sign`` is 1 and ``z < 0`` where it is -1.

    One pass draws ``w = sign * z ~ N(sign * eta, 1)`` on (0, inf).  With
    ``groups`` the indices of the 1s and then of the -1s, the draws and
    the random stream equal those of a ``sample_truncated_normal`` call
    for the 1s followed by one for the -1s.
    """
    sw = sign * eta
    w = sw + _truncated_std_normal_above(-sw, rng, groups)
    return sign * np.maximum(w, np.nextafter(0.0, 1.0))


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


class GibbsChain:
    """One Gibbs chain's fixed quantities, state and post-burn-in draws.

    Every post-burn-in (beta, sigma2) draw is kept, one row per sweep, so
    a chain that has run ``total`` sweeps can be thinned for any shorter
    configuration with the same seed and burn-in, and can run on to a
    longer one.  Continuing to ``config.extended().total`` therefore gives
    the same draws as a fresh chain of that length.
    """

    def __init__(self, design: DesignMatrix, prior: PriorSpec, config: McmcConfig):
        x = np.asarray(design.x, dtype=float)
        p = x.shape[1]
        if design.n_clusters < 2:
            raise ConfigError("need at least 2 clusters to identify the cluster variance")

        xtx = x.T @ x
        eigs = np.linalg.eigvalsh(xtx)
        if eigs[0] <= eigs[-1] * 1e-12:
            raise SingularDesignError(float(eigs[0]))

        precision = xtx + np.eye(p) / prior.beta_sd**2
        self.design = design
        self.prior = prior
        self.seed = config.seed
        self.burnin = config.burnin
        self._cov = np.linalg.inv(precision)
        self._cov_chol = np.linalg.cholesky(self._cov)

        self._rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        self._beta = np.zeros(p)
        self._gamma = np.zeros(design.n_clusters)
        self._sigma2 = prior.sigma2_scale / (prior.sigma2_shape + 1.0)  # prior mode
        # latent draws: +1 for deaths, -1 for survivors; deaths' uniforms come first
        death = np.asarray(design.outcome) == 1
        self._sign = np.where(death, 1.0, -1.0)
        self._groups = (np.flatnonzero(death), np.flatnonzero(~death))
        self.sweeps = 0
        # row i holds sweep burnin + 1 + i: its beta, then its sigma2
        self._post = np.empty((config.total - config.burnin, p + 1))
        # set by fit: the diagnostics of the draws it last took from this chain
        self.diagnostics: FitDiagnostics | None = None

    def advance(self, total: int) -> None:
        """Run sweeps until ``total`` have been run in all."""
        if total <= self.sweeps:
            return
        n_post = total - self.burnin
        if n_post > self._post.shape[0]:
            grown = np.empty((n_post, self._post.shape[1]))
            grown[: self._post.shape[0]] = self._post
            self._post = grown
        post = self._post
        p = post.shape[1] - 1

        x = np.asarray(self.design.x, dtype=float)
        cl = np.asarray(self.design.cluster_index)
        n_clusters = self.design.n_clusters
        prior = self.prior
        cov, cov_chol, rng = self._cov, self._cov_chol, self._rng
        beta, gamma, sigma2 = self._beta, self._gamma, self._sigma2
        sign, groups = self._sign, self._groups
        counts = np.bincount(cl, minlength=n_clusters).astype(float)
        ig_shape = prior.sigma2_shape + 0.5 * n_clusters
        xb = x @ beta

        for it in range(self.sweeps + 1, total + 1):
            gc = gamma[cl]
            z = _latent_draw(xb + gc, sign, groups, rng)

            beta = cov @ (x.T @ (z - gc)) + cov_chol @ rng.standard_normal(p)

            xb = x @ beta
            prec = counts + 1.0 / sigma2
            gamma = np.bincount(cl, weights=z - xb, minlength=n_clusters) / prec
            gamma += rng.standard_normal(n_clusters) / np.sqrt(prec)

            sigma2 = 1.0 / rng.gamma(ig_shape, 1.0 / (prior.sigma2_scale + 0.5 * (gamma @ gamma)))

            if it > self.burnin:
                post[it - self.burnin - 1, :p] = beta
                post[it - self.burnin - 1, p] = sigma2

        self._beta, self._gamma, self._sigma2 = beta, gamma, sigma2
        self.sweeps = total

    def draws(self, config: McmcConfig) -> PosteriorDraws:
        """The draws ``config`` retains: every ``thin``-th post-burn-in sweep."""
        if config.total > self.sweeps:
            raise ValueError(f"chain has run {self.sweeps} sweeps, fewer than total={config.total}")
        thin = config.effective_thin
        kept = self._post[thin - 1 : config.total - self.burnin : thin]
        return PosteriorDraws(
            survey_id=self.design.survey_id,
            beta=kept[:, :-1].copy(),
            sigma2=kept[:, -1].copy(),
            column_groups=dict(self.design.column_groups),
        )


def fit(
    design: DesignMatrix, prior: PriorSpec, config: McmcConfig, chain: GibbsChain | None = None
) -> PosteriorDraws:
    """Fit the hierarchical probit by Gibbs sampling.

    One sweep draws the latent normals truncated to the side implied by
    each outcome, then the coefficient vector from its conjugate
    multivariate-normal full conditional, then every cluster effect from
    its normal full conditional, then the cluster variance from its
    inverse-gamma full conditional.  Burn-in is discarded and the rest
    thinned.  The chain is fully determined by ``config.seed``.

    Passing ``chain`` continues that chain (started for the same design,
    prior, seed and burn-in) instead of starting a new one, so only the
    sweeps past ``chain.sweeps`` are run.  The draws equal those of a
    fresh ``fit(design, prior, config)``.  Their diagnostics are left in
    ``chain.diagnostics``.

    Warns with ``ChainQualityWarning`` when fewer than
    ``config.target_retained`` draws are retained or, from 100 retained
    draws on, when the minimum effective sample size is below the target.
    """
    if chain is None:
        chain = GibbsChain(design, prior, config)
    elif chain.design is not design or (chain.prior, chain.seed, chain.burnin) != (prior, config.seed, config.burnin):
        raise ValueError("chain was started for a different design, prior, seed or burn-in")
    chain.advance(config.total)
    draws = chain.draws(config)
    chain.diagnostics = diagnostics(draws) if draws.n_draws >= 100 else None
    shortfall = target_shortfall(draws, chain.diagnostics, config)
    if shortfall is not None:
        warnings.warn(shortfall, ChainQualityWarning, stacklevel=2)
    return draws


def target_shortfall(draws: PosteriorDraws, diag: FitDiagnostics | None, config: McmcConfig) -> str | None:
    """Why ``draws`` fall short of the retained-draw or ESS target; None when no shortfall is seen.

    ``diag`` is ``diagnostics(draws)``, or None below 100 draws, where ESS is not measured.
    """
    if draws.n_draws < config.target_retained:
        return f"retained {draws.n_draws} draws, below the target of {config.target_retained}"
    if diag is not None and diag.min_ess < MIN_ESS_TARGET:
        return (
            f"minimum effective sample size {diag.min_ess:.0f} is below {MIN_ESS_TARGET:.0f}; "
            "consider a longer chain or larger thinning interval"
        )
    return None


@dataclass(frozen=True)
class FitDiagnostics:
    """Per-parameter mixing summaries for a set of retained draws."""

    ess: dict[str, float]
    autocorrelations: dict[str, np.ndarray]  # lags 1..50
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
    return FitDiagnostics(ess=ess, autocorrelations=acf, degenerate=frozenset(degenerate))


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
        try:
            header = next(reader, [])
            if not header or header[-1] != "sigma2" or not header[0].startswith("beta_"):
                raise ConfigError(f"{csv_path}: not a draws file (header {header[:3]}...)")
            rows = []
            for line, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ConfigError(f"{csv_path}, line {line}: {len(row)} cells under a {len(header)}-column header")
                try:
                    rows.append([float(v) for v in row])
                except ValueError:
                    raise ConfigError(f"{csv_path}, line {line}: non-numeric cell in {row}") from None
        except csv.Error as exc:
            raise ConfigError(f"{csv_path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise ConfigError(f"{csv_path}: no draws below the header")
    arr = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        row, col = bad[0]
        raise ConfigError(f"{csv_path}, line {row + 2}: non-finite value {header[col]}={float(arr[row, col])}")
    negative = np.flatnonzero(arr[:, -1] < 0.0)
    if negative.size:
        row = negative[0]
        raise ConfigError(f"{csv_path}, line {row + 2}: negative variance sigma2={float(arr[row, -1])}")
    survey_id = ""
    column_groups: dict[str, tuple[int, int]] = {}
    if sidecar_path is not None:
        try:
            meta = require_object(json.loads(Path(sidecar_path).read_text(encoding="utf-8")), str(sidecar_path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{sidecar_path}: invalid JSON ({exc})") from None
        n_coefficients = arr.shape[1] - 1
        if meta.get("n_coefficients", n_coefficients) != n_coefficients:
            raise ConfigError(
                f"{sidecar_path}: sidecar records {meta['n_coefficients']} coefficients "
                f"but {csv_path} has {n_coefficients}"
            )
        survey_id = require_str(meta.get("survey_id", ""), f"{sidecar_path}: survey_id")
        groups = require_object(meta.get("column_groups", {}), f"{sidecar_path}: column_groups")
        for name, span in groups.items():
            where = f"{sidecar_path}: column_groups.{name}"
            if not (isinstance(span, list) and len(span) == 2):
                raise ConfigError(f"{where} must be a [lo, hi] pair, got {span!r}")
            lo, hi = (require_number(v, where, int) for v in span)
            if not 0 <= lo < hi <= n_coefficients:
                raise ConfigError(f"{where} must satisfy 0 <= lo < hi <= {n_coefficients}, got {span}")
            column_groups[name] = (lo, hi)
    return PosteriorDraws(
        survey_id=survey_id,
        beta=arr[:, :-1],
        sigma2=arr[:, -1],
        column_groups=column_groups,
    )
