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

:func:`decompose_draws` is the one kernel: it decomposes a matrix of
coefficient pairs, or a single pair, with K + 3 link passes per pair
for K swapped groups, whatever the inputs share: every block of draws
runs every pass on every tile.  Equal inputs still give exact zeros,
because a zero coefficient difference adds only ``+-0.0`` to a linear
predictor, so its pass repeats the previous one bit for bit.  Every
mean is one weighted sum over a design's rows: over its distinct rows,
each weighted by its count, when at most half of the rows are distinct
(categorical covariates repeat rows); otherwise over every row, each
weighted ``1 / n``.  Both designs' rows are walked in one order: sorted
by which swap groups are zero on the row, then by a reference linear
predictor, so a swap moves the linear predictor on contiguous runs of
rows, and within a run the link meets its arguments in rising order,
which ``ndtr``'s branches favour.
Every pass writes the link into the worker's buffer over the rows it
moves (a whole tile, or a swap's runs) and takes the mean of the whole
buffer.  The kernel takes the draws in blocks of 16 and walks each block
over tiles of 1024 design rows with matrix products, running all of the
block's link passes on a tile while the tile and the block's linear
predictor stay in cache (the cache blocking of Goto & van de Geijn,
2008, ACM TOMS 34(3)).
:func:`posterior_decompose` marginalizes two surveys' draws, runs the
kernel and summarizes each component; its per-draw matrix
(``DecompositionSummary.draws``) also yields the variance profile in
:mod:`mortdecomp.validation`.  The kernel splits the blocks into
contiguous runs, one per available core, and walks each on its own
thread (``ndtr`` releases the GIL).  While it walks, on one thread or
several, it holds numpy's OpenBLAS to one thread, so the matrix
products do not spin the cores the runs need and split no product
across threads, and then restores the previous count; the kernel reads
and writes no environment variable.  Only a command started from the
shell sets one: ``OPENBLAS_NUM_THREADS=1`` before numpy loads, unless
the user set it (see :mod:`mortdecomp.cli`).  Blocks are counted from
draw 0 whatever the core count, so every draw's arithmetic is the same
as on one thread and the outputs are identical bytes.  Where numpy's BLAS exports no
thread control, the kernel walks all blocks on the calling thread.
``_workers`` owns that rule, and the CLI asks it before it forks.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._phi import ndtr
from .errors import ConfigError
from .marginal import INTERVAL_PROBS, MortalitySummary, marginalize
from .splines import quantiles

__all__ = [
    "DecompositionDraws",
    "ComponentSummary",
    "DecompositionSummary",
    "decompose_draws",
    "posterior_decompose",
    "annualize",
    "percent_of",
]

_ADDITIVITY_TOL = 1e-12


def _link_fn(link):
    if link == "probit":
        return ndtr
    if link == "identity":
        return np.positive
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

    Holders are the decomposition kernel and ``cli.main``, which holds
    around every command.  The thread count is process-wide, so concurrent
    and nested holders share one hold: the first to enter saves the count
    and sets 1, the last to leave restores it.  A command started from the
    shell has already started OpenBLAS at one thread through
    ``OPENBLAS_NUM_THREADS`` (unless the user set it), so there the hold
    changes nothing; library callers and an in-process ``cli.main`` need it.
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
def _one_blas_thread() -> _OneBlasThread:
    """The process's one hold; where numpy's BLAS exports no thread control it holds nothing."""
    return _OneBlasThread(_openblas_threads() or (lambda: 1, lambda count: None))


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _workers(n: int) -> int:
    """How many workers share ``n`` jobs: one per available core, at most ``n``, when numpy's
    OpenBLAS exports its thread control, so each worker can be held at one BLAS thread; else 1."""
    return 1 if _openblas_threads() is None else min(n, _available_cores())


_FOLD = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier for the row-key fold

# The walk takes draws in blocks of _DRAW_BLOCK, counted from draw 0, and
# each design in tiles of _ROW_TILE rows: a block's linear predictor on one
# tile is _DRAW_BLOCK * _ROW_TILE = 16384 elements, so the tile, the
# predictor and its link values stay in a core's L2 cache (about 1 MB in
# all) while every link pass of the block runs on the tile.  A worker
# gathers each tile's rows once, in the walk's row order, into a buffer of
# its own and walks all of its blocks over it, with its own predictor, link
# and swap-step buffers.
_DRAW_BLOCK = 16
_ROW_TILE = 1024


def _distinct_rows(x: np.ndarray):
    """``(rows, weights)``: the rows of ``x`` to evaluate, and each one's weight in the mean.

    When at most half of the rows of ``x`` are distinct, ``rows`` holds
    the distinct rows and ``weights`` each one's count over the row
    total; otherwise ``rows`` is ``x`` and every weight is ``1 / n``.  A
    mean over ``x`` is then ``weights @ values`` either way.  Rows are
    compared by their bytes.  Equal rows fold their bit patterns into
    equal keys, so more than ``n / 2`` distinct keys means more than
    ``n / 2`` distinct rows; that check costs the key vector and its
    sort, never a copy of the design, and sends a design of distinct rows
    to the per-row path ungrouped.
    """
    x = np.ascontiguousarray(x, dtype=float)
    n, p = x.shape
    key = np.zeros(n, dtype=np.uint64)
    for col in x.view(np.uint64).T:
        key *= _FOLD
        key += col
    key.sort()  # equal keys now lie together; np.unique would count them too, but it loads numpy.ma
    if 2 * (n - np.count_nonzero(key[1:] == key[:-1])) > n:
        return x, np.full(n, 1.0 / n)
    view = x.view(np.dtype((np.void, x.itemsize * p))).ravel()
    _, first, counts = np.unique(view, return_index=True, return_counts=True)
    if 2 * first.size > n:  # keys collided, as rows two sign flips apart always do: a flip adds 2**63
        return x, np.full(n, 1.0 / n)
    return x[first], counts / n


def _tiles(x: np.ndarray, group_cols, ref: np.ndarray):
    """``(rows, tiles)``: the rows of ``x`` that the kernel evaluates, and its walk over them.

    ``rows`` and their weights come from :func:`_distinct_rows`.  The walk
    sorts them, stably, by their zero pattern, and ties by the linear
    predictor ``rows @ ref``.  The pattern flags each swap group whose
    columns are all zero on the row (``-0.0`` counts as zero); patterns
    compare flag by flag in swap order, a row on which the group is
    nonzero first.
    Rows that a swap leaves unmoved then lie together, and within a
    pattern the link meets its arguments in rising order, so its branches
    run in streaks.  Both designs follow this one rule, so equal designs
    are walked alike.  ``tiles`` is ``[(index, weights, runs), ...]``, one
    entry per tile of ``_ROW_TILE`` rows in that order: ``index`` picks
    the tile's rows, ``weights`` holds their weights, and ``runs[j]``
    lists the ``(start, stop)`` runs of the tile where group ``j`` is
    nonzero.
    """
    rows, weights = _distinct_rows(x)
    zero = np.column_stack([~np.any(rows[:, cols], axis=1) for cols in group_cols])
    order = np.lexsort([rows @ ref, *zero.T[::-1]])  # the last key sorts first: the first group's flag
    tiles = []
    for r in range(0, order.size, _ROW_TILE):
        index = order[r : r + _ROW_TILE]
        tiles.append((index, weights[index], [_nonzero_runs(~z) for z in zero[index].T]))
    return rows, tiles


def _nonzero_runs(nonzero: np.ndarray):
    """The ``(start, stop)`` runs of true entries of ``nonzero``: none, one over every entry, or several."""
    edges = np.flatnonzero(np.diff(nonzero, prepend=False, append=False)).tolist()
    return list(zip(edges[::2], edges[1::2]))


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


def decompose_draws(design1, design2, tilde1, tilde2, order=None, link="probit") -> DecompositionDraws:
    """Decompose every marginal coefficient pair ``(tilde1[l], tilde2[l])``.

    ``tilde1`` and ``tilde2`` are ``(L, p)`` matrices of draws; a 1-D
    coefficient vector counts as one draw.  Per pair, ``x_effect`` is
    the change from swapping the covariate sample under survey 1's
    coefficients, and ``beta_effect`` the change from swapping the
    coefficients over survey 2's sample; the two add up to
    ``rate1 - rate2``.  The swap walk goes from survey 1's coefficients
    to survey 2's over survey 2's sample, one whole column group at a
    time in ``order`` (a permutation of the intercept plus every group;
    default: the intercept, then the design's groups), so the spline
    columns of a covariate swap together.  Each entry of
    ``group_effects`` is the drop in the fitted mean caused by one swap;
    the entries sum to ``beta_effect``, and the order changes the split
    but not the sum.

    Per pair, K + 3 link passes for K groups: ``rate1``; the crossed
    mean that starts the swap walk; one per swapped group; and ``rate2``
    straight from ``x2 @ b2``, so the group-sum identity compares two
    routes.  Every block of draws runs all of them, on equal designs and
    equal coefficients too: a draw whose coefficients are equal in a
    group adds ``+-0.0`` to its linear predictor, so the link, the mean
    and the walk entry repeat bit for bit and its group effect is
    exactly ``0.0``; equal coefficients in every group make ``rate2``
    the crossed mean, and so ``beta_effect`` exactly ``0.0``.  Each
    design's distinct rows are found once per call: when at most half of
    its rows are distinct, its passes evaluate only those rows and each
    mean weights them by count over the row total; otherwise its passes
    evaluate every row, each weighted ``1 / n``.

    Both designs' rows are walked in one order, sorted by which groups
    are all zero on the row and then by the linear predictor under the
    mean over all draws of ``(tilde1 + tilde2) / 2``; equal designs are
    therefore walked alike, and their ``x_effect`` is exactly ``0.0``.
    Every pass writes the link into one buffer over the rows it moves: a
    swap's pass only over the runs of rows where its group is nonzero,
    the others keeping their values, so it costs the rows its group
    moves.  The order, and with it the last bits of every output,
    depends on the set of draws in the call: a draw decomposed alone and
    in a matrix can differ in its last bits.  Draws are walked in blocks
    of 16 counted from draw 0, each block over tiles of 1024 design rows
    with matrix products (no ``(n, L)`` array); runs of whole blocks go
    to one thread per core, each gathering a tile's rows once for all of
    its blocks, so a draw's arithmetic does not depend on the core
    count.  Both identities are checked to 1e-12 on the full arrays, and
    a NaN fails them.  A non-finite draw raises ``ConfigError``.
    ``link`` is ``"probit"`` (``ndtr``) or ``"identity"``.
    """
    tilde1, tilde2 = np.atleast_2d(tilde1, tilde2)
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
    for k, tilde in ((1, tilde1), (2, tilde2)):
        if tilde.shape[1] != design1.n_cols:
            raise ConfigError(
                f"draws have {tilde.shape[1]} coefficients per draw "
                f"but the design has {design1.n_cols} columns"
            )
        bad = np.flatnonzero(~np.isfinite(tilde).all(axis=1))
        if bad.size:
            raise ConfigError(f"survey {k}: draw {bad[0]} has a non-finite coefficient: {tilde[bad[0]].tolist()}")
    f = _link_fn(link)
    group_cols = [design2.group_columns(name) for name in order]
    n_draws, p = tilde1.shape
    rate1 = np.zeros(n_draws)
    rate2 = np.zeros(n_draws)
    walk = np.zeros((n_draws, len(order) + 1))  # column 0: crossed mean; column j: after swap j

    def walk_blocks(first, last, xbuf, work):  # blocks first..last-1, over every tile
        blocks = []
        for lo in range(first * _DRAW_BLOCK, min(last * _DRAW_BLOCK, n_draws), _DRAW_BLOCK):
            hi = min(lo + _DRAW_BLOCK, n_draws)
            b1, b2 = tilde1[lo:hi], tilde2[lo:hi]
            blocks.append((lo, hi, b1, b2, [b2[:, cols] - b1[:, cols] for cols in group_cols]))

        def gather(x, index):  # the tile's rows of x in this worker's buffer, as a (p, m) view
            return np.take(x, index, axis=0, out=xbuf[: index.size]).T

        def link(eta, phi, runs):  # the link of eta into phi on the runs; phi keeps its other columns
            for a, b in runs:
                f(eta[:, a:b], out=phi[:, a:b])
            return phi

        for index, w, _ in tiles1:
            xt, m = gather(x1, index), index.size
            for lo, hi, b1, *_ in blocks:
                eta, phi, _ = work[:, : (hi - lo) * m].reshape(3, hi - lo, m)  # contiguous views
                rate1[lo:hi] += link(np.matmul(b1, xt, out=eta), phi, [(0, m)]) @ w
        for index, w, runs in tiles2:
            xt, m = gather(x2, index), index.size
            for lo, hi, b1, b2, deltas in blocks:
                eta, phi, _ = work[:, : (hi - lo) * m].reshape(3, hi - lo, m)
                walk[lo:hi, 0] += link(np.matmul(b1, xt, out=eta), phi, [(0, m)]) @ w
                for j, (cols, delta, moved) in enumerate(zip(group_cols, deltas, runs), start=1):
                    for a, b in moved:  # the rows the group moves; the others keep eta and phi
                        step = work[2, : (hi - lo) * (b - a)].reshape(hi - lo, b - a)
                        eta[:, a:b] += np.matmul(delta, xt[cols, a:b], out=step)
                    walk[lo:hi, j] += link(eta, phi, moved) @ w
                rate2[lo:hi] += link(np.matmul(b2, xt, out=eta), phi, [(0, m)]) @ w

    n_blocks = -(-n_draws // _DRAW_BLOCK)
    n_chunks = max(_workers(n_blocks), 1)
    bounds = [n_blocks * c // n_chunks for c in range(n_chunks + 1)]
    buffers = [(np.empty((_ROW_TILE, p)), np.empty((3, _DRAW_BLOCK * _ROW_TILE))) for _ in range(n_chunks)]
    with _one_blas_thread():
        ref = (tilde1 + tilde2).mean(axis=0) / 2 if n_draws else np.zeros(p)
        x1, tiles1 = _tiles(design1.x, group_cols, ref)
        x2, tiles2 = _tiles(design2.x, group_cols, ref)
        if n_chunks == 1:
            walk_blocks(0, n_blocks, *buffers[0])
        else:
            with ThreadPoolExecutor(n_chunks) as pool:
                list(pool.map(walk_blocks, bounds[:-1], bounds[1:], *zip(*buffers)))

    crossed = walk[:, 0]
    x_effect = rate1 - crossed
    beta_effect = crossed - rate2
    group_effects = walk[:, :-1] - walk[:, 1:]
    if not np.all(np.abs(x_effect + beta_effect - (rate1 - rate2)) <= _ADDITIVITY_TOL):
        raise ValueError("x_effect + beta_effect must equal the overall difference")
    if not np.all(np.abs(group_effects.sum(axis=1) - beta_effect) <= _ADDITIVITY_TOL):
        raise ValueError("group effects must sum to the beta effect")
    return DecompositionDraws(rate1, rate2, x_effect, beta_effect, group_effects, tuple(order))


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
    draws: DecompositionDraws = field(repr=False, compare=False)


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
    lo, hi = quantiles(values.copy(), INTERVAL_PROBS)
    overall_mean = float(overall.mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(overall != 0.0, 100.0 * values / overall, np.nan)
    p_lo, p_hi = quantiles(ratios, INTERVAL_PROBS)  # NaN when a draw's overall change is zero
    return ComponentSummary(
        name=name,
        mean=float(values.mean()),
        lower=float(lo),
        upper=float(hi),
        annualized=annualize(float(values.mean()) * 1000.0, years_between),
        annualized_lower=annualize(float(lo) * 1000.0, years_between),
        annualized_upper=annualize(float(hi) * 1000.0, years_between),
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
) -> DecompositionSummary:
    """Run the full decomposition on every paired posterior draw.

    Draw ``l`` of survey 1 is paired with draw ``l`` of survey 2; each
    pair is marginalized (cluster effects integrated out) and
    decomposed, and every component is summarized by its posterior
    mean, 95% equal-tailed interval, annualized per-1000 value, percent
    of the overall change, and a significance flag (interval excludes
    zero).  Each survey's draws must carry its design's column groups;
    ``ConfigError`` otherwise.
    """
    if years_between <= 0:
        raise ConfigError(f"years_between must be > 0, got {years_between}")
    for k, design, draws in ((1, design1, draws1), (2, design2, draws2)):
        if draws.column_groups != design.column_groups:
            raise ConfigError(
                f"survey {k}: draws were fitted under column groups {draws.column_groups}, "
                f"but the design has {design.column_groups}"
            )
    tilde1 = marginalize(draws1.beta, draws1.sigma2)
    tilde2 = marginalize(draws2.beta, draws2.sigma2)
    per_draw = decompose_draws(design1, design2, tilde1, tilde2, order)
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
        draws=per_draw,
    )
