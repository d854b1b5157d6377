"""Decomposition of the between-survey change in average mortality risk.

The survey-1 minus survey-2 difference in fitted average risk splits
exactly into a covariate-distribution part (swap the sample while
holding survey 1's coefficients) and a coefficient part (hold survey
2's sample while swapping coefficients).  The coefficient part further
telescopes into per-covariate contributions by swapping one coefficient
block at a time, in a caller-chosen order; spline columns of a
covariate always swap together.  Running the decomposition on every
retained posterior draw turns those point identities into posterior
distributions for every component.

Every entry point here runs one kernel that walks each draw once; its
per-draw matrix (``DecompositionSummary.draws``) also yields the
variance profile in :mod:`mortdecomp.validation`.  The kernel splits the
draws into contiguous chunks, one per available core, and walks each on
its own thread (``ndtr`` releases the GIL).  While those threads run
it holds numpy's OpenBLAS to one thread, so the matrix-vector products
do not spin the cores the chunks need, and then restores the previous
count; no environment variable is read or written.  Every draw's
arithmetic is the same as on one thread, so the outputs are identical
bytes.  Where numpy's BLAS exports no thread control, the kernel walks
all draws on the calling thread.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError
from .marginal import MortalitySummary, marginalize_all

__all__ = [
    "DecompositionDraw",
    "DecompositionDraws",
    "ComponentSummary",
    "DecompositionSummary",
    "overall_decompose",
    "coefficient_decompose",
    "decompose_draw",
    "posterior_decompose",
    "annualize",
    "percent_of",
]

_ADDITIVITY_TOL = 1e-12


def _link_fn(link):
    if callable(link):
        return link
    if link == "probit":
        return ndtr
    if link == "identity":
        return lambda v: v
    raise ConfigError(f"unknown link {link!r}")


@functools.cache
def _openblas_threads():
    """numpy's own OpenBLAS ``(get, set)`` thread-count functions, or ``None``.

    Resolved through numpy's extension module, so they act on the BLAS
    that numpy's matrix products call; ``None`` on a numpy built against
    another BLAS.
    """
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _OneBlasThread:
    """Holds OpenBLAS at one thread while any holder runs in this process.

    Holders are the decomposition kernel and ``cli.run_pipeline``, which
    holds from its fits through its decomposition.  The thread count is
    process-wide, so concurrent and nested holders share one hold: the
    first to enter saves the count and sets 1, the last to leave
    restores it.
    """

    def __init__(self, controls):
        self._get, self._set = controls
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                self._saved = self._get()
                self._set(1)
            self._holders += 1

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                self._set(self._saved)


@functools.cache
def _one_blas_thread() -> _OneBlasThread | None:
    controls = _openblas_threads()
    return None if controls is None else _OneBlasThread(controls)


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def validate_order(order, column_groups) -> list[str]:
    wanted = ["intercept"] + list(column_groups)
    if order is None:
        return wanted
    order = list(order)
    if sorted(order) != sorted(wanted):
        raise ConfigError(
            f"order must be a permutation of {sorted(wanted)}, got {order}"
        )
    return order


@dataclass(frozen=True)
class DecompositionDraws:
    """Per-draw component arrays, one entry per retained posterior draw."""

    rate1: np.ndarray
    rate2: np.ndarray
    x_effect: np.ndarray
    beta_effect: np.ndarray
    group_effects: np.ndarray  # (L, K) in order
    order: tuple[str, ...]

    @property
    def overall_diff(self) -> np.ndarray:
        return self.rate1 - self.rate2

    @property
    def n_draws(self) -> int:
        return self.rate1.size


def _decompose_draws(design1, design2, tilde1, tilde2, order=None, link="probit") -> DecompositionDraws:
    """Decompose every marginal coefficient pair ``(tilde1[l], tilde2[l])``.

    Per pair, K + 3 link passes for K groups: ``rate1``; the crossed mean
    that starts the swap walk; one per swapped group (skipped when its
    coefficients are equal); and ``rate2`` straight from ``x2 @ b2``, so
    the group-sum identity compares two routes.  Draws are walked one at
    a time (no ``(n, L)`` block), in contiguous chunks on one thread per
    core; both identities are checked to 1e-12 on the full arrays.
    """
    if design1.n_cols != design2.n_cols or design1.column_groups != design2.column_groups:
        raise ConfigError(
            "designs do not share a column layout; both surveys must be built "
            "against the same schema and knot source"
        )
    order = validate_order(order, design2.column_groups)
    if tilde1.shape[0] != tilde2.shape[0]:
        raise ConfigError(
            f"surveys have unequal retained draw counts ({tilde1.shape[0]} vs {tilde2.shape[0]})"
        )
    for tilde in (tilde1, tilde2):
        if tilde.shape[1] != design1.n_cols:
            raise ConfigError(
                f"draws have {tilde.shape[1]} coefficients per draw "
                f"but the design has {design1.n_cols} columns"
            )
    f = _link_fn(link)
    x1, x2 = design1.x, design2.x
    blocks = [design2.group_columns(name) for name in order]
    n_draws = tilde1.shape[0]
    rate1 = np.empty(n_draws)
    rate2 = np.empty(n_draws)
    walk = np.empty((n_draws, len(order) + 1))  # column 0: crossed mean; column j: after swap j

    def walk_draws(lo, hi):  # fills rows lo..hi-1 of rate1, rate2 and walk
        for i in range(lo, hi):
            b1, b2 = tilde1[i], tilde2[i]
            rate1[i] = np.mean(f(x1 @ b1))
            eta = x2 @ b1
            walk[i, 0] = np.mean(f(eta))
            for j, cols in enumerate(blocks, start=1):
                delta = b2[cols] - b1[cols]
                if np.any(delta != 0.0):
                    eta += x2[:, cols] @ delta
                    walk[i, j] = np.mean(f(eta))
                else:
                    walk[i, j] = walk[i, j - 1]
            rate2[i] = np.mean(f(x2 @ b2))

    hold = _one_blas_thread()
    n_chunks = 1 if hold is None else min(n_draws, _available_cores())
    if n_chunks <= 1:
        walk_draws(0, n_draws)
    else:
        bounds = [n_draws * c // n_chunks for c in range(n_chunks + 1)]
        with hold, ThreadPoolExecutor(n_chunks) as pool:
            list(pool.map(walk_draws, bounds[:-1], bounds[1:]))

    crossed = walk[:, 0]
    x_effect = rate1 - crossed
    beta_effect = crossed - rate2
    group_effects = walk[:, :-1] - walk[:, 1:]
    if np.any(np.abs(x_effect + beta_effect - (rate1 - rate2)) > _ADDITIVITY_TOL):
        raise ValueError("x_effect + beta_effect must equal the overall difference")
    if np.any(np.abs(group_effects.sum(axis=1) - beta_effect) > _ADDITIVITY_TOL):
        raise ValueError("group effects must sum to the beta effect")
    return DecompositionDraws(rate1, rate2, x_effect, beta_effect, group_effects, tuple(order))


@dataclass(frozen=True)
class DecompositionDraw:
    """All components of the decomposition for one coefficient pair.

    Built by :func:`decompose_draw`, whose kernel enforces the two
    additivity identities: the covariate and coefficient effects sum to
    the overall difference, and the group effects sum to the coefficient
    effect, both to 1e-12.
    """

    rate1: float
    rate2: float
    x_effect: float
    beta_effect: float
    group_effects: dict[str, float]
    order: tuple[str, ...]

    @property
    def overall_diff(self) -> float:
        return self.rate1 - self.rate2


def decompose_draw(design1, design2, b1, b2, order=None, link="probit") -> DecompositionDraw:
    """Overall and per-group decomposition for one coefficient pair."""
    b1, b2 = (np.asarray(b, dtype=float).reshape(1, -1) for b in (b1, b2))
    d = _decompose_draws(design1, design2, b1, b2, order, link)
    return DecompositionDraw(
        rate1=float(d.rate1[0]),
        rate2=float(d.rate2[0]),
        x_effect=float(d.x_effect[0]),
        beta_effect=float(d.beta_effect[0]),
        group_effects={name: float(v) for name, v in zip(d.order, d.group_effects[0])},
        order=d.order,
    )


def overall_decompose(design1, design2, b1, b2, link="probit") -> tuple[float, float]:
    """Two-part split of the survey-1 minus survey-2 fitted mean.

    Returns ``(x_effect, beta_effect)`` where the first term is the
    change from swapping the covariate sample under survey 1's
    coefficients and the second is the change from swapping the
    coefficients over survey 2's sample.  The two terms add up to the
    overall difference exactly.
    """
    d = decompose_draw(design1, design2, b1, b2, link=link)
    return d.x_effect, d.beta_effect


def coefficient_decompose(design2, b1, b2, order=None, link="probit") -> dict[str, float]:
    """Sequential per-covariate split of the coefficient effect.

    Walks from survey 1's coefficients to survey 2's over survey 2's
    sample, swapping one whole column group at a time in ``order`` (a
    permutation of the intercept plus every covariate group); each entry
    is the drop in the fitted mean caused by that swap.  The entries sum
    to the overall coefficient effect; the split, but not the sum,
    depends on the order.
    """
    return decompose_draw(design2, design2, b1, b2, order, link).group_effects


@dataclass(frozen=True)
class ComponentSummary:
    """Posterior summary of one decomposition component.

    Values are in probability units; ``annualized`` entries are per
    1000 births per year between the surveys.  ``percent`` is the ratio
    of posterior means against the overall difference, and the percent
    interval comes from the per-draw ratios.
    """

    name: str
    mean: float
    lower: float
    upper: float
    annualized: float
    annualized_lower: float
    annualized_upper: float
    percent: float
    percent_lower: float
    percent_upper: float
    significant: bool


@dataclass(frozen=True)
class DecompositionSummary:
    """Posterior summaries for the overall and per-covariate decomposition."""

    years_between: float
    order: tuple[str, ...]
    components: dict[str, ComponentSummary]
    rate_s1: MortalitySummary
    rate_s2: MortalitySummary
    convention: str = "appendix_divide"
    draws: DecompositionDraws | None = field(default=None, repr=False, compare=False)

    def component_names(self) -> list[str]:
        return list(self.components)


def annualize(total_per_1000: float, years_between: float) -> float:
    """Spread a total per-1000 change over the years between surveys."""
    if years_between <= 0:
        raise ConfigError(f"years_between must be > 0, got {years_between}")
    return total_per_1000 / years_between


def percent_of(component: float, overall: float) -> float:
    """Share of the overall change attributed to one component, in percent."""
    if overall == 0:
        return float("nan")
    return 100.0 * component / overall


def _summarize(
    name: str, values: np.ndarray, overall: np.ndarray, years_between: float
) -> ComponentSummary:
    lo, hi = np.percentile(values, [2.5, 97.5])
    scale = 1000.0 / years_between
    overall_mean = float(overall.mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(overall != 0.0, 100.0 * values / overall, np.nan)
    if np.any(np.isnan(ratios)):
        p_lo, p_hi = float("nan"), float("nan")
    else:
        p_lo, p_hi = np.percentile(ratios, [2.5, 97.5])
    return ComponentSummary(
        name=name,
        mean=float(values.mean()),
        lower=float(lo),
        upper=float(hi),
        annualized=float(values.mean() * scale),
        annualized_lower=float(lo * scale),
        annualized_upper=float(hi * scale),
        percent=percent_of(float(values.mean()), overall_mean),
        percent_lower=float(p_lo),
        percent_upper=float(p_hi),
        significant=bool(lo > 0.0 or hi < 0.0),
    )


def posterior_decompose(
    design1,
    design2,
    draws1,
    draws2,
    years_between: float,
    order=None,
    convention: str = "appendix_divide",
    link="probit",
) -> DecompositionSummary:
    """Run the full decomposition on every paired posterior draw.

    Draw ``l`` of survey 1 is paired with draw ``l`` of survey 2; each
    pair is marginalized (cluster effects integrated out) and
    decomposed, and every component is summarized by its posterior
    mean, 95% equal-tailed interval, annualized per-1000 value, percent
    of the overall change, and a significance flag (interval excludes
    zero).
    """
    if years_between <= 0:
        raise ConfigError(f"years_between must be > 0, got {years_between}")
    tilde1 = marginalize_all(draws1.beta, draws1.sigma2, convention)
    tilde2 = marginalize_all(draws2.beta, draws2.sigma2, convention)
    per_draw = _decompose_draws(design1, design2, tilde1, tilde2, order, link)
    overall = per_draw.overall_diff
    components = {
        "overall_diff": _summarize("overall_diff", overall, overall, years_between),
        "x_effect": _summarize("x_effect", per_draw.x_effect, overall, years_between),
        "beta_effect": _summarize("beta_effect", per_draw.beta_effect, overall, years_between),
    }
    for j, name in enumerate(per_draw.order):
        components[name] = _summarize(name, per_draw.group_effects[:, j], overall, years_between)

    return DecompositionSummary(
        years_between=float(years_between),
        order=per_draw.order,
        components=components,
        rate_s1=MortalitySummary.from_draws(per_draw.rate1),
        rate_s2=MortalitySummary.from_draws(per_draw.rate2),
        convention=convention,
        draws=per_draw,
    )
