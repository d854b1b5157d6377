"""B-spline basis evaluation and knot construction for regression designs.

The basis is evaluated with the Cox-de Boor recursion in its triangular
(de Boor) form, vectorised over evaluation points.  A knot vector of
length ``m`` with degree ``d`` yields ``m - d - 1`` basis functions; for
a clamped vector (boundary knots repeated ``d + 1`` times) the functions
form a partition of unity over the whole boundary interval.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError

__all__ = ["bspline_basis", "quantile_knots"]


def bspline_basis(x, knots, degree: int) -> np.ndarray:
    """Evaluate all B-spline basis functions at ``x``.

    Parameters
    ----------
    x : array_like
        One-dimensional evaluation points.  Values are clamped to the
        interval spanned by the first and last knot, and the final
        interval is treated as closed so the basis sums to one at the
        right boundary.
    knots : array_like
        Full non-decreasing knot vector, boundary multiplicities
        included.
    degree : int
        Polynomial degree, ``>= 0``.

    Returns
    -------
    ndarray
        Shape ``(len(x), n_basis)``, where ``n_basis = len(knots) -
        degree - 1``.  Values are non-negative and, on a clamped vector,
        sum to one.
    """
    if degree < 0:
        raise SchemaError(f"spline degree must be >= 0, got {degree}")
    t = np.asarray(knots, dtype=float)
    if t.ndim != 1:
        raise SchemaError("knot vector must be one-dimensional")
    if np.any(np.diff(t) < 0):
        raise SchemaError("knot vector must be non-decreasing")
    n_basis = t.size - degree - 1
    if n_basis < 1:
        raise SchemaError(
            f"need at least degree + 2 = {degree + 2} knots, got {t.size}"
        )

    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1:
        raise SchemaError(f"evaluation points must be one-dimensional, got shape {xv.shape}")
    xv = np.clip(xv, t[0], t[-1])

    # Knot span: rightmost index i with t[i] <= x, restricted to spans
    # that carry basis functions.  x == t[-1] falls into the last span,
    # which closes the final interval on the right.
    span = np.searchsorted(t, xv, side="right") - 1
    span = np.clip(span, degree, n_basis - 1)

    # Triangular recurrence for the degree+1 functions active on each span.
    npts = xv.size
    active = np.zeros((npts, degree + 1))
    active[:, 0] = 1.0
    left = np.empty((npts, degree + 1))
    right = np.empty((npts, degree + 1))
    for j in range(1, degree + 1):
        left[:, j] = xv - t[span + 1 - j]
        right[:, j] = t[span + j] - xv
        saved = np.zeros(npts)
        for r in range(j):
            denom = right[:, r + 1] + left[:, j - r]
            # Zero-width spans (repeated knots) contribute nothing.
            safe = denom > 0
            temp = np.where(safe, active[:, r] / np.where(safe, denom, 1.0), 0.0)
            active[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        active[:, j] = saved

    basis = np.zeros((npts, n_basis))
    cols = span[:, None] - degree + np.arange(degree + 1)[None, :]
    basis[np.arange(npts)[:, None], cols] = active
    return basis


def quantile_knots(values, degree: int, df: int, *, overwrite_input: bool = False) -> np.ndarray:
    """Build a clamped knot vector with interior knots at equally spaced
    quantiles of ``values``.

    ``df`` is the number of design columns the covariate contributes
    after the first basis function is dropped for identifiability with
    an intercept, so the full basis has ``df + 1`` functions and
    ``df - degree`` interior knots.  With ``overwrite_input`` a float
    array ``values`` is reordered in place instead of copied; the knots
    are the same.
    """
    if df < max(degree, 1):
        raise SchemaError(f"df must be >= max(degree, 1); got df={df}, degree={degree}")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise SchemaError("cannot place knots on an empty sample")
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        raise SchemaError("knot source values are constant; spline basis would be degenerate")
    n_interior = df - degree
    interior = quantiles(v if overwrite_input else v.copy(), np.arange(1, n_interior + 1) / (n_interior + 1))
    return np.concatenate([np.full(degree + 1, lo), interior, np.full(degree + 1, hi)])


def quantiles(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``np.quantile(values, probs)`` of a 1-D float array, bit for bit, reordering ``values`` in place:
    ``np.quantile`` gathers its indexes with ``np.unique``, which loads ``numpy.ma`` on numpy 2."""
    virtual = (values.size - 1) * probs
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= values.size - 1  # as numpy does: both neighbours are the maximum
    below[top] = above[top] = -1
    gamma = virtual - below
    below, above = below.astype(np.intp), above.astype(np.intp)
    values.partition(np.concatenate((below, above, [-1])))  # a NaN sorts last
    if np.isnan(values[-1]):
        return np.full(probs.shape, np.nan)
    a, b = values[below], values[above]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out
