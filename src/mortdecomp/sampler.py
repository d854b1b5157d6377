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

import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._phi import ndtr, ndtri
from .dataset import _WRITE_CELLS, DesignMatrix, FrozenArrays
from .errors import ConfigError, SingularDesignError, csv_line, read_csv, read_json, write_csv, write_json
from .errors import read_fields, require_number, require_object, require_str

__all__ = [
    "ChainQualityWarning",
    "PriorSpec",
    "McmcConfig",
    "PosteriorDraws",
    "FitDiagnostics",
    "GibbsChain",
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
        return read_fields(cls, d, "prior", dict.fromkeys(("beta_sd", "sigma2_shape", "sigma2_scale"), float))


@dataclass(frozen=True)
class McmcConfig:
    """Chain length bookkeeping.

    ``thin=None`` derives the largest thinning interval that still
    retains ``target_retained`` draws.  Configurations that would retain
    fewer than the target are rejected.
    """

    total: int = 15000
    burnin: int = 5000
    thin: int | None = None
    target_retained: int = 1250
    seed: int = 0

    def __post_init__(self):
        if self.burnin < 0 or self.total <= self.burnin:
            raise ConfigError(f"need 0 <= burnin < total, got burnin={self.burnin} total={self.total}")
        if self.thin is not None and self.thin < 1:
            raise ConfigError(f"thin must be >= 1, got {self.thin}")
        if self.target_retained < 1:
            raise ConfigError("target_retained must be >= 1")
        if self.retained < self.target_retained:
            raise ConfigError(
                f"configuration retains {self.retained} draws "
                f"(< target {self.target_retained}); lengthen the chain or lower target_retained"
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
        return replace(self, total=self.burnin + 2 * (self.total - self.burnin), thin=None)

    @classmethod
    def from_dict(cls, d: dict) -> "McmcConfig":
        return read_fields(cls, d, "mcmc", dict.fromkeys(("total", "burnin", "thin", "target_retained", "seed"), int))


@dataclass(frozen=True)
class PosteriorDraws(FrozenArrays):
    """Retained (beta, sigma2) draws for one survey; the arrays are frozen read-only."""

    survey_id: str
    beta: np.ndarray  # (L, p)
    sigma2: np.ndarray  # (L,)
    column_groups: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        self._freeze()
        if self.beta.ndim != 2 or self.sigma2.shape != (self.beta.shape[0],):
            raise ValueError("beta must be (L, p) with one sigma2 entry per draw")
        if not (np.all(np.isfinite(self.beta)) and np.all(np.isfinite(self.sigma2))):
            raise ValueError("posterior draws must be finite")
        if np.any(self.sigma2 < 0):
            raise ValueError("sigma2 draws must be >= 0")

    def _arrays(self):
        return (self.beta, self.sigma2)

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


class _LatentLayout:
    """The latent step's fixed layout for one set of outcomes, with reused work buffers.

    ``sign`` is 1 for deaths and -1 for survivors.  The random stream
    serves the deaths first, then the survivors: ``groups`` holds the two
    index arrays and ``position`` each birth's place in the stream.  Built
    once per chain; a draw writes into the buffers, so each result it
    returns holds only until the next draw.
    """

    def __init__(self, outcome):
        death = np.asarray(outcome) == 1
        self.sign = np.where(death, 1.0, -1.0)
        self.neg_sign = -self.sign
        self.groups = (np.flatnonzero(death), np.flatnonzero(~death))
        self.position = np.empty(death.size, dtype=np.intp)
        self.position[np.concatenate(self.groups)] = np.arange(death.size)
        self.a, self.t, self.r, self.u, self.z = (np.empty(death.size) for _ in range(5))
        self.high, self.far = (np.empty(death.size, dtype=bool) for _ in range(2))


def _truncated_std_normal_above(a: np.ndarray, rng: np.random.Generator, layout: _LatentLayout | None = None):
    """Draw standard normals conditioned on X > a, elementwise.

    The random stream is taken group by group in ``layout.groups``
    (default: one group of every element): the group's uniforms for its
    inverse-CDF draws, then its far-tail rejection draws.  Drawing several
    groups in one call therefore gives exactly the draws, and leaves
    ``rng`` in exactly the state, of one call per group.  When no element
    reaches the far tail, one ``random`` call draws every uniform, each
    element taking the one at its ``layout.position``; it yields the
    doubles of the per-group calls.  Returns a buffer of ``layout``.
    """
    a = np.asarray(a, dtype=float)
    if layout is None:
        layout = _LatentLayout(np.ones(a.size))  # every element a death: one group
    t, u, high, far = layout.t, layout.u, layout.high, layout.far
    # ndtr(a) where a <= 0 (the lower CDF, well conditioned there) and the
    # upper tail ndtr(-a) where a > 0; a <= 0 leaves an upper tail >= 1/2
    ndtr(np.copysign(a, -1.0, out=t), out=t)
    np.greater(a, 0.0, out=high)
    np.logical_and(np.less(t, _TAIL_SWITCH, out=far), high, out=far)
    tails = []
    if far.any():
        u[far] = 0.5  # placeholder; the rejection draws replace these elements
        for g in layout.groups:
            in_far = far[g]
            moderate = g[~in_far]
            u[moderate] = rng.random(moderate.size)
            idx = g[in_far]
            if idx.size:  # an empty call would draw nothing
                tails.append((idx, _far_tail(a[idx], rng)))
    else:
        # positions are in range: "clip" skips take's buffered bounds check
        np.take(rng.random(out=layout.r), layout.position, out=u, mode="clip")
    # x = ndtri(t + u (1 - t)) where a <= 0 and -ndtri((1 - u) t) where a > 0;
    # the second case runs on its own elements only, since in a chain they
    # are the births whose mean lies on the wrong side, chiefly deaths
    upper = np.flatnonzero(high)
    q = layout.r
    np.add(np.multiply(np.subtract(1.0, t, out=q), u, out=q), t, out=q)
    q[upper] = (1.0 - u[upper]) * t[upper]
    x = ndtri(q, out=q)
    x[upper] = -x[upper]
    for idx, draws in tails:
        x[idx] = draws
    return x


def _latent_draw(eta: np.ndarray, layout: _LatentLayout, rng: np.random.Generator) -> np.ndarray:
    """Latent normals ``z ~ N(eta, 1)`` with ``z > 0`` where ``layout.sign`` is 1 and ``z < 0`` where it is -1.

    One pass draws ``w = sign * z ~ N(sign * eta, 1)`` on (0, inf), that
    is ``sign * eta`` plus a standard normal above ``a = -sign * eta``.
    The draws and the random stream equal those of a
    ``sample_truncated_normal`` call for the deaths followed by one for
    the survivors.  Returns a buffer of ``layout``.
    """
    a = np.multiply(eta, layout.neg_sign, out=layout.a)
    w = _truncated_std_normal_above(a, rng, layout)
    np.maximum(np.subtract(w, a, out=w), np.nextafter(0.0, 1.0), out=w)
    return np.multiply(w, layout.sign, out=layout.z)


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
        self._layout = _LatentLayout(design.outcome)
        self.sweeps = 0
        # row i holds sweep burnin + 1 + i: its beta, then its sigma2
        self._post = np.empty((config.total - config.burnin, p + 1))
        # set by fit for the draws it last took from this chain: their
        # diagnostics, and why they fall short of the target (None if they do not)
        self.diagnostics: FitDiagnostics | None = None
        self.shortfall: str | None = None

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
        layout = self._layout
        counts = np.bincount(cl, minlength=n_clusters).astype(float)
        ig_shape = prior.sigma2_shape + 0.5 * n_clusters
        xb = x @ beta
        gc, eta, resid = (np.empty(x.shape[0]) for _ in range(3))

        for it in range(self.sweeps + 1, total + 1):
            np.take(gamma, cl, out=gc, mode="clip")  # codes are in range, as in the latent step
            z = _latent_draw(np.add(xb, gc, out=eta), layout, rng)

            beta = cov @ (x.T @ np.subtract(z, gc, out=resid)) + cov_chol @ rng.standard_normal(p)

            xb = x @ beta
            prec = counts + 1.0 / sigma2
            gamma = np.bincount(cl, weights=np.subtract(z, xb, out=resid), minlength=n_clusters) / prec
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
    ``chain.diagnostics``, and the shortfall warned about (or None) in
    ``chain.shortfall``.

    Warns with ``ChainQualityWarning`` when, from 100 retained draws on,
    the minimum effective sample size is below the target.
    """
    if chain is None:
        chain = GibbsChain(design, prior, config)
    elif chain.design is not design or (chain.prior, chain.seed, chain.burnin) != (prior, config.seed, config.burnin):
        raise ValueError("chain was started for a different design, prior, seed or burn-in")
    chain.advance(config.total)
    draws = chain.draws(config)
    chain.diagnostics = diag = diagnostics(draws) if draws.n_draws >= 100 else None
    chain.shortfall = None
    if diag is not None and diag.min_ess < MIN_ESS_TARGET:
        chain.shortfall = (
            f"minimum effective sample size {diag.min_ess:.0f} is below {MIN_ESS_TARGET:.0f}; "
            "consider a longer chain or larger thinning interval"
        )
        warnings.warn(chain.shortfall, ChainQualityWarning, stacklevel=2)
    return draws


@dataclass(frozen=True)
class FitDiagnostics:
    """Per-parameter mixing summaries for a set of retained draws."""

    ess: dict[str, float]
    autocorrelations: dict[str, np.ndarray]  # lags 1..50
    degenerate: frozenset[str]

    @property
    def min_ess(self) -> float:
        return min(self.ess.values())


def diagnostics(draws: PosteriorDraws) -> FitDiagnostics:
    """ESS and short-lag autocorrelations for every monitored parameter.

    One real FFT of the zero-padded (draws x parameters) trace matrix
    gives every parameter's autocovariances at lags 0..n-1.  ESS is
    ``n / tau`` with ``tau = -1 + 2 * sum_m (rho(2m) + rho(2m+1))``, the
    sum stopped before the first non-positive pair past the first
    (Geyer's initial positive sequence).  A constant trace is flagged
    degenerate; its autocorrelations are zero, so its ESS is the full
    draw count.
    """
    n = draws.n_draws
    if n < 100:
        raise ValueError(f"diagnostics need at least 100 retained draws, got {n}")
    xc = np.column_stack((draws.beta, draws.sigma2))
    xc -= xc.mean(axis=0)
    g0 = np.einsum("ij,ij->j", xc, xc) / n
    degenerate = g0 == 0.0
    size = 1 << (2 * n - 1).bit_length()  # a power of two >= 2n - 1: no circular wrap below lag n
    spectrum = np.fft.rfft(xc, size, axis=0)
    acov = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size, axis=0)[:n] / n
    rho = acov / np.where(degenerate, 1.0, g0)

    m = n // 2  # the pairs rho(2m) + rho(2m+1) with 2m + 1 < n
    pairs = rho[0 : 2 * m : 2] + rho[1 : 2 * m : 2]
    pairs[0] = 1.0 + rho[1]  # > 0: a lag-1 autocorrelation of -1 needs a zero trace
    tau = 2.0 * np.sum(pairs, axis=0, where=np.logical_and.accumulate(pairs > 0.0, axis=0)) - 1.0
    ess = np.minimum(n / np.maximum(tau, 1e-12), n)

    names = draws.parameter_names()
    acf = np.ascontiguousarray(rho[1 : min(_ACF_MAX_LAG, n - 2) + 1].T)
    return FitDiagnostics(
        ess=dict(zip(names, ess.tolist())),
        autocorrelations=dict(zip(names, acf)),
        degenerate=frozenset(name for name, flat in zip(names, degenerate) if flat),
    )


def save_draws(draws: PosteriorDraws, csv_path, sidecar_path=None, config_echo: dict | None = None) -> None:
    """Write draws as CSV (one row per draw) plus a JSON sidecar.

    The CSV carries full round-trip precision, ``repr(float)`` of each
    value; draws are formatted as many at a time as hold ``_WRITE_CELLS``
    cells, each parameter column through one ``map(repr, ...)``.  The
    sidecar records the survey id, column groups and whatever
    configuration echo is passed.
    """
    table = np.column_stack([draws.beta, draws.sigma2]).astype(float, copy=False)
    size = max(1, _WRITE_CELLS // table.shape[1])
    blocks = (
        [list(map(repr, column)) for column in table[a : a + size].T.tolist()]
        for a in range(0, draws.n_draws, size)
    )
    write_csv(csv_path, draws.parameter_names(), blocks)
    if sidecar_path is not None:
        sidecar = {
            "survey_id": draws.survey_id,
            "column_groups": {k: [lo, hi] for k, (lo, hi) in draws.column_groups.items()},
            "n_draws": draws.n_draws,
            "n_coefficients": draws.n_coefficients,
            "config": config_echo or {},
        }
        write_json(sidecar, sidecar_path)


def load_draws(csv_path, sidecar_path=None) -> PosteriorDraws:
    """Read draws written by :func:`save_draws`.

    The header must be ``beta_0, ..., beta_{p-1}, sigma2`` in that order;
    blank lines below it are skipped, as ``ingest_csv`` skips them.  A
    sidecar that records ``n_draws`` or ``n_coefficients`` must agree with
    the CSV; each mismatch raises ``ConfigError`` naming the file.
    """
    csv_path = Path(csv_path)
    header, *lines = read_csv(csv_path) or [[]]
    names = [f"beta_{j}" for j in range(max(len(header) - 1, 1))] + ["sigma2"]
    if header != names:
        col, got = next((j, h) for j, (h, want) in enumerate(zip(header + [""], names)) if h != want)
        raise ConfigError(
            f"{csv_path}: not a draws file: header column {col + 1} is {got!r}, expected {names[col]!r}"
        )

    def at(i: int) -> str:  # the file and line of the i-th draw
        return f"{csv_path}, line {csv_line(csv_path, i)}"

    rows = []
    for i, row in enumerate(filter(None, lines)):  # blank lines are skipped; the first bad draw is named
        if len(row) != len(header):
            raise ConfigError(f"{at(i)}: {len(row)} cells under a {len(header)}-column header")
        try:
            values = [float(v) for v in row]
        except ValueError:
            raise ConfigError(f"{at(i)}: non-numeric cell in {row}") from None
        col = next((j for j, v in enumerate(values) if not math.isfinite(v)), None)
        if col is not None:
            raise ConfigError(f"{at(i)}: non-finite value {header[col]}={values[col]}")
        if values[-1] < 0.0:
            raise ConfigError(f"{at(i)}: negative variance sigma2={values[-1]}")
        rows.append(values)
    if not rows:
        raise ConfigError(f"{csv_path}: no draws below the header")
    arr = np.asarray(rows, dtype=float)
    survey_id = ""
    column_groups: dict[str, tuple[int, int]] = {}
    if sidecar_path is not None:
        meta = require_object(read_json(sidecar_path), str(sidecar_path))
        n_coefficients = arr.shape[1] - 1
        for noun, count in (("coefficients", n_coefficients), ("draws", arr.shape[0])):
            key = f"n_{noun}"
            if key in meta and require_number(meta[key], f"{sidecar_path}: {key}", int) != count:
                raise ConfigError(f"{sidecar_path}: sidecar records {meta[key]} {noun} but {csv_path} has {count}")
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
