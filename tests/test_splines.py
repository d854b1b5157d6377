import re

import numpy as np
import pytest

from mortdecomp.errors import SchemaError
from mortdecomp.marginal import INTERVAL_PROBS
from mortdecomp.splines import bspline_basis, quantile_knots, quantiles


def naive_cox_de_boor(i, degree, x, t):
    """Scalar recursive Cox-de Boor evaluation, independent of the library path.

    The last interval is closed on the right so the basis still sums to
    one at the final boundary knot.
    """
    if degree == 0:
        if t[i] <= x < t[i + 1]:
            return 1.0
        if x == t[-1] and t[i] < t[i + 1] and t[i + 1] == t[-1]:
            return 1.0
        return 0.0
    left = 0.0
    if t[i + degree] > t[i]:
        left = (x - t[i]) / (t[i + degree] - t[i]) * naive_cox_de_boor(i, degree - 1, x, t)
    right = 0.0
    if t[i + degree + 1] > t[i + 1]:
        right = (t[i + degree + 1] - x) / (t[i + degree + 1] - t[i + 1]) * naive_cox_de_boor(
            i + 1, degree - 1, x, t
        )
    return left + right


def test_degree0_indicator_basis():
    out = bspline_basis([0.5], [0.0, 1.0, 2.0], degree=0)
    assert out.shape == (1, 2)
    np.testing.assert_allclose(out, [[1.0, 0.0]])
    np.testing.assert_allclose(bspline_basis([1.5], [0.0, 1.0, 2.0], 0), [[0.0, 1.0]])
    # right boundary belongs to the last interval
    np.testing.assert_allclose(bspline_basis([2.0], [0.0, 1.0, 2.0], 0), [[0.0, 1.0]])


def test_degree3_matches_independent_recursion_at_midpoint():
    # clamped cubic with one interior knot: 5 basis functions
    t = np.array([0.0, 0.0, 0.0, 0.0, 0.4, 1.0, 1.0, 1.0, 1.0])
    x = 0.5
    got = bspline_basis([x], t, degree=3)
    assert got.shape == (1, 5)
    want = [[naive_cox_de_boor(i, 3, x, t) for i in range(5)]]
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_matches_independent_recursion_on_grid(degree):
    rng = np.random.default_rng(17)
    interior = np.sort(rng.uniform(0.1, 0.9, size=3))
    t = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
    xs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=40)])
    got = bspline_basis(xs, t, degree)
    for k, x in enumerate(xs):
        want = [naive_cox_de_boor(i, degree, x, t) for i in range(t.size - degree - 1)]
        np.testing.assert_allclose(got[k], want, atol=1e-12)


def test_partition_of_unity_fuzz():
    rng = np.random.default_rng(101)
    for _ in range(50):
        degree = int(rng.integers(0, 5))
        n_interior = int(rng.integers(0, 5))
        interior = np.sort(rng.uniform(-1.0, 1.0, size=n_interior))
        t = np.concatenate([np.full(degree + 1, -2.0), interior, np.full(degree + 1, 2.0)])
        xs = rng.uniform(-2.0, 2.0, size=200)
        basis = bspline_basis(xs, t, degree)
        assert np.all(basis >= 0)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)


def test_values_clamped_to_boundary_interval():
    t = np.array([0.0, 0.0, 1.0, 1.0])
    np.testing.assert_allclose(bspline_basis([-3.0], t, 1), bspline_basis([0.0], t, 1))
    np.testing.assert_allclose(bspline_basis([7.0], t, 1), bspline_basis([1.0], t, 1))


def test_non_ascending_knots_rejected():
    with pytest.raises(SchemaError):
        bspline_basis([0.5], [0.0, 1.0, 0.5, 2.0], degree=1)


@pytest.mark.parametrize("x, shape", [(0.5, "()"), ([[0.5, 0.7]], "(1, 2)")], ids=["scalar", "2d"])
def test_points_that_are_not_1d_rejected(x, shape):
    with pytest.raises(SchemaError, match=re.escape(f"got shape {shape}")):
        bspline_basis(x, [0.0, 0.0, 1.0, 1.0], degree=1)


def test_repeated_interior_knot_is_handled():
    t = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0])
    xs = np.linspace(0, 1, 101)
    basis = bspline_basis(xs, t, 2)
    np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)
    for k in (7, 50, 93):
        want = [naive_cox_de_boor(i, 2, xs[k], t) for i in range(5)]
        np.testing.assert_allclose(basis[k], want, atol=1e-12)


def test_quantile_knots_layout():
    rng = np.random.default_rng(3)
    v = rng.normal(size=500)
    t = quantile_knots(v, degree=3, df=5)
    # df+1 = 6 basis functions, so df - degree = 2 interior knots
    assert t.size == 6 + 3 + 1
    assert np.all(np.diff(t) >= 0)
    np.testing.assert_allclose(t[:4], v.min())
    np.testing.assert_allclose(t[-4:], v.max())
    np.testing.assert_allclose(t[4], np.quantile(v, 1 / 3))
    np.testing.assert_allclose(t[5], np.quantile(v, 2 / 3))


def test_quantile_knots_df_equal_degree_has_no_interior():
    t = quantile_knots([0.0, 0.5, 1.0], degree=3, df=3)
    assert t.size == 8
    assert np.all((t == 0.0) | (t == 1.0))


def test_quantile_knots_rejects_bad_input():
    with pytest.raises(SchemaError):
        quantile_knots([1.0, 1.0, 1.0], degree=3, df=4)
    with pytest.raises(SchemaError):
        quantile_knots([0.0, 1.0], degree=3, df=2)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 1001])
def test_quantiles_match_numpy_bit_for_bit(n):
    # INTERVAL_PROBS stands for np.percentile's [2.5, 97.5] in every 95% interval
    rng = np.random.default_rng(n)
    for v in (rng.standard_normal(n), rng.integers(0, 4, n).astype(float), rng.exponential(1e300, n)):
        for probs in (INTERVAL_PROBS, np.arange(1, 4) / 4, np.array([0.0, 0.5, 1.0]), np.empty(0)):
            want = np.percentile(v, [2.5, 97.5]) if probs is INTERVAL_PROBS else np.quantile(v, probs)
            assert quantiles(v.copy(), probs).tobytes() == want.tobytes()
    v = rng.standard_normal(n)
    v[n // 2] = np.nan
    assert np.isnan(quantiles(v, INTERVAL_PROBS)).all()
