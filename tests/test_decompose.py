import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import mortdecomp.decompose as decompose_module
from mortdecomp.dataset import DesignMatrix
from mortdecomp.decompose import (
    annualize,
    decompose_draws,
    percent_of,
    posterior_decompose,
)
from mortdecomp.errors import ConfigError
from mortdecomp.marginal import marginalize
from mortdecomp.sampler import PosteriorDraws
from mortdecomp.validation import linear_oracle, random_design


def design_from(x, groups=None):
    x = np.asarray(x, dtype=float)
    if groups is None:
        groups = {f"g{j}": (j, j + 1) for j in range(1, x.shape[1])}
    return DesignMatrix(
        x=x.copy(),
        outcome=np.zeros(x.shape[0], dtype=np.int64),
        cluster_index=np.zeros(x.shape[0], dtype=np.int64),
        column_groups=groups,
        n_clusters=1,
    )


class TestOverallDecompose:
    def test_equal_coefficients_zero_beta_effect(self):
        rng = np.random.default_rng(0)
        d1 = random_design(rng, 15, [1, 2])
        d2 = random_design(rng, 20, [1, 2])
        b = rng.normal(size=4)
        d = decompose_draws(d1, d2, b, b.copy())
        assert d.beta_effect[0] == 0.0
        assert d.x_effect[0] != 0.0

    def test_equal_designs_zero_x_effect(self):
        rng = np.random.default_rng(1)
        d = random_design(rng, 15, [2])
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        out = decompose_draws(d, d, b1, b2)
        assert out.x_effect[0] == 0.0
        assert out.beta_effect[0] != 0.0

    def test_identity_link_matches_linear_oracle(self):
        rng = np.random.default_rng(2)
        d1 = random_design(rng, 20, [1, 1])
        d2 = random_design(rng, 20, [1, 1])
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        d = decompose_draws(d1, d2, b1, b2, link="identity")
        want = linear_oracle(d1.x.mean(axis=0), d2.x.mean(axis=0), b1, b2)
        np.testing.assert_allclose((d.x_effect[0], d.beta_effect[0]), want, atol=1e-12)

    def test_mismatched_layouts_rejected(self):
        rng = np.random.default_rng(3)
        d1 = random_design(rng, 10, [1])
        d2 = random_design(rng, 10, [1, 1])
        with pytest.raises(ConfigError):
            decompose_draws(d1, d2, np.zeros(2), np.zeros(2))

    def test_swap_symmetry_negates_overall(self):
        rng = np.random.default_rng(4)
        d1 = random_design(rng, 12, [2])
        d2 = random_design(rng, 18, [2])
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        a = decompose_draws(d1, d2, b1, b2)
        b = decompose_draws(d2, d1, b2, b1)
        np.testing.assert_allclose(a.x_effect + a.beta_effect, -(b.x_effect + b.beta_effect), atol=1e-15)


class TestCoefficientDecompose:
    def test_equal_coefficients_all_zero(self):
        rng = np.random.default_rng(5)
        d2 = random_design(rng, 10, [1, 2])
        b = rng.normal(size=4)
        d = decompose_draws(d2, d2, b, b.copy())
        assert all(v == 0.0 for v in d.group_effects[0])

    def test_equal_draw_matrices_on_one_design_all_zero(self):
        # a zero delta adds +-0.0 to the linear predictor, so every pass repeats the crossed mean bit for bit
        rng = np.random.default_rng(5)
        d2 = random_design(rng, 40, [1, 2])
        b = rng.normal(size=(2 * decompose_module._DRAW_BLOCK + 3, 4))
        d = decompose_draws(d2, d2, b, b.copy())
        assert np.all(d.x_effect == 0.0) and np.all(d.beta_effect == 0.0)
        assert np.all(d.group_effects == 0.0)
        assert np.array_equal(d.rate1, d.rate2)

    def test_intercept_only_difference_collapses(self):
        rng = np.random.default_rng(6)
        d2 = random_design(rng, 25, [1, 2])
        b1 = rng.normal(size=4)
        b2 = b1.copy()
        b2[0] += 0.8
        d = decompose_draws(d2, d2, b1, b2)
        effects = dict(zip(d.order, d.group_effects[0]))
        assert effects["g0"] == 0.0 and effects["g1"] == 0.0
        np.testing.assert_allclose(effects["intercept"], d.beta_effect[0], atol=1e-15)

    def test_collapsing_sum_identity_fuzz(self):
        rng = np.random.default_rng(7)
        d2 = random_design(rng, 30, [2, 1, 3])
        names = ["intercept", "g0", "g1", "g2"]
        for _ in range(1000):
            b1 = rng.normal(scale=0.8, size=7)
            b2 = rng.normal(scale=0.8, size=7)
            order = list(rng.permutation(names))
            d = decompose_draws(d2, d2, b1, b2, order)
            assert abs(sum(d.group_effects[0]) - d.beta_effect[0]) < 1e-12

    def test_spline_columns_swap_together(self):
        rng = np.random.default_rng(8)
        d2 = random_design(rng, 40, [3])
        b1 = rng.normal(size=4)
        b2 = b1.copy()
        b2[1:4] = rng.normal(size=3)  # entire group changes at once
        d = decompose_draws(d2, d2, b1, b2)
        effects = dict(zip(d.order, d.group_effects[0]))
        assert effects["intercept"] == 0.0
        np.testing.assert_allclose(effects["g0"], d.beta_effect[0], atol=1e-15)

    def test_group_effect_may_exceed_total_when_others_offset(self):
        # Mirrors the published pattern where the intercept swap alone
        # contributes more than the whole coefficient effect (e.g. an
        # intercept effect of 6.2 against an overall 4.6 per 1000/year).
        d2 = design_from(np.column_stack([np.ones(50), np.linspace(0, 1, 50)]))
        b1 = np.array([-1.0, -0.5])
        b2 = np.array([-1.4, 0.1])  # intercept falls, slope effect offsets
        d = decompose_draws(d2, d2, b1, b2, ["intercept", "g1"])
        effects = dict(zip(d.order, d.group_effects[0]))
        beta_eff = d.beta_effect[0]
        assert effects["intercept"] > beta_eff > 0
        assert effects["g1"] < 0

    def test_bad_order_rejected(self):
        rng = np.random.default_rng(9)
        d2 = random_design(rng, 10, [1])
        with pytest.raises(ConfigError):
            decompose_draws(d2, d2, np.zeros(2), np.ones(2), ["g1"])
        with pytest.raises(ConfigError):
            decompose_draws(d2, d2, np.zeros(2), np.ones(2), ["intercept", "g1", "g1"])

    def test_order_invariance_of_total(self):
        rng = np.random.default_rng(10)
        d2 = random_design(rng, 20, [2, 1])
        b1, b2 = rng.normal(size=4), rng.normal(size=4)
        totals = []
        for order in (
            ["intercept", "g0", "g1"],
            ["g1", "g0", "intercept"],
            ["g0", "intercept", "g1"],
        ):
            d = decompose_draws(d2, d2, b1, b2, order)
            totals.append(sum(d.group_effects[0]))
        assert max(totals) - min(totals) < 1e-13


class TestDecomposeDraw:
    def test_additivity_identities_hold(self):
        rng = np.random.default_rng(11)
        d1 = random_design(rng, 35, [1, 2])
        d2 = random_design(rng, 25, [1, 2])
        b1, b2 = rng.normal(size=4), rng.normal(size=4)
        d = decompose_draws(d1, d2, b1, b2)
        assert abs(d.x_effect[0] + d.beta_effect[0] - d.overall_diff[0]) < 1e-12
        assert abs(sum(d.group_effects[0]) - d.beta_effect[0]) < 1e-12

    def test_marginalization_with_zero_variance_reproduces_conditional(self):
        rng = np.random.default_rng(12)
        d1 = random_design(rng, 15, [2])
        d2 = random_design(rng, 15, [2])
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        plain = decompose_draws(d1, d2, b1, b2)
        scaled = decompose_draws(
            d1, d2, marginalize(b1, 0.0), marginalize(b2, 0.0)
        )
        for name in ("rate1", "rate2", "x_effect", "beta_effect", "group_effects"):
            assert np.array_equal(getattr(plain, name), getattr(scaled, name)), name
        assert plain.order == scaled.order

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("survey", [1, 2])
    def test_non_finite_draw_is_refused(self, survey, value):
        # a NaN draw would otherwise come back as a NaN beta_effect with no error
        rng = np.random.default_rng(14)
        d1, d2 = random_design(rng, 15, [1, 2]), random_design(rng, 15, [1, 2])
        tilde = [rng.normal(size=(6, 4)), rng.normal(size=(6, 4))]
        tilde[survey - 1][3, 2] = value
        with pytest.raises(ConfigError, match=f"survey {survey}: draw 3 has a non-finite coefficient"):
            decompose_draws(d1, d2, *tilde)

    def test_nan_link_values_fail_the_identity_checks(self, monkeypatch):
        rng = np.random.default_rng(15)
        d1, d2 = random_design(rng, 15, [1, 2]), random_design(rng, 15, [1, 2])
        b1, b2 = rng.normal(size=4), rng.normal(size=4)
        monkeypatch.setattr(decompose_module, "ndtr", lambda v, out=None: np.multiply(ndtr(v), np.nan, out=out))
        with pytest.raises(ValueError, match="must equal the overall difference"):
            decompose_draws(d1, d2, b1, b2)
        calls = itertools.count()

        def nan_on_the_first_swap(v, out=None):  # calls: rate1, the crossed mean, then the intercept's swap
            return np.multiply(ndtr(v), np.nan if next(calls) == 2 else 1.0, out=out)

        monkeypatch.setattr(decompose_module, "ndtr", nan_on_the_first_swap)
        with pytest.raises(ValueError, match="group effects must sum"):
            decompose_draws(d1, d2, b1, b2)


def constant_draws(beta_row, sigma2, n, groups):
    beta = np.tile(np.asarray(beta_row, dtype=float), (n, 1))
    return PosteriorDraws(survey_id="S", beta=beta, sigma2=np.full(n, float(sigma2)), column_groups=dict(groups))


class TestPosteriorDecompose:
    def test_degenerate_draws_have_zero_width_intervals(self):
        rng = np.random.default_rng(13)
        d1 = random_design(rng, 30, [1, 1])
        d2 = random_design(rng, 30, [1, 1])
        b1 = np.array([-1.0, 0.3, -0.2])
        b2 = np.array([-1.3, 0.2, -0.1])
        draws1 = constant_draws(b1, 0.5, 150, d1.column_groups)
        draws2 = constant_draws(b2, 0.25, 150, d1.column_groups)
        out = posterior_decompose(d1, d2, draws1, draws2, years_between=10.0)
        point = decompose_draws(
            d1, d2, marginalize(b1, 0.5), marginalize(b2, 0.25)
        )
        for name, comp in out.components.items():
            assert comp.upper - comp.lower == 0.0
            np.testing.assert_allclose(comp.mean, comp.lower, rtol=1e-14)
        np.testing.assert_allclose(out.components["x_effect"].mean, point.x_effect[0], atol=1e-14)
        np.testing.assert_allclose(out.components["beta_effect"].mean, point.beta_effect[0], atol=1e-14)
        np.testing.assert_allclose(
            out.components["overall_diff"].mean, point.overall_diff[0], atol=1e-14
        )

    def test_percent_point_is_ratio_of_means(self):
        rng = np.random.default_rng(14)
        d1 = random_design(rng, 40, [1])
        d2 = random_design(rng, 40, [1])
        beta1 = rng.normal(size=(120, 2), scale=0.3) - np.array([1.0, 0.0])
        beta2 = rng.normal(size=(120, 2), scale=0.3) - np.array([1.4, 0.0])
        draws1 = PosteriorDraws(survey_id="S1", beta=beta1, sigma2=np.zeros(120), column_groups=d1.column_groups)
        draws2 = PosteriorDraws(survey_id="S2", beta=beta2, sigma2=np.zeros(120), column_groups=d1.column_groups)
        out = posterior_decompose(d1, d2, draws1, draws2, years_between=14.0)
        x = out.components["x_effect"]
        b = out.components["beta_effect"]
        assert abs(x.percent + b.percent - 100.0) < 1e-9
        assert out.components["overall_diff"].percent == 100.0
        # the tables' per-year figures are annualize's, the arithmetic the paper fixtures check
        for comp in out.components.values():
            pairs = ((comp.annualized, comp.mean), (comp.annualized_lower, comp.lower), (comp.annualized_upper, comp.upper))
            for per_year, value in pairs:
                assert per_year == annualize(value * 1000.0, 14.0), comp.name

    def test_offsetting_effects_can_exceed_100_percent(self):
        # Colombia-style row: positive covariate effect, negative
        # coefficient effect, percents beyond [0, 100].
        d = design_from(np.column_stack([np.ones(60), np.linspace(-1, 1, 60)]))
        d_shift = design_from(np.column_stack([np.ones(60), np.linspace(-0.2, 1.8, 60)]))
        b1 = np.array([-1.1, -0.4])
        b2 = np.array([-1.05, -0.4])
        draws1 = constant_draws(b1, 0.0, 100, d.column_groups)
        draws2 = constant_draws(b2, 0.0, 100, d.column_groups)
        out = posterior_decompose(d, d_shift, draws1, draws2, years_between=15.0)
        assert out.components["x_effect"].percent > 100.0
        assert out.components["beta_effect"].percent < 0.0

    def test_unequal_draw_counts_rejected(self):
        rng = np.random.default_rng(15)
        d = random_design(rng, 10, [1])
        with pytest.raises(ConfigError):
            posterior_decompose(
                d, d, constant_draws([0.0, 0.0], 0.0, 100, d.column_groups),
                constant_draws([0.0, 0.0], 0.0, 101, d.column_groups), 10.0
            )

    def test_bad_years_between_rejected(self):
        rng = np.random.default_rng(16)
        d = random_design(rng, 10, [1])
        with pytest.raises(ConfigError):
            posterior_decompose(
                d, d, constant_draws([0.0, 0.0], 0.0, 100, d.column_groups),
                constant_draws([0.0, 0.0], 0.0, 100, d.column_groups), 0.0
            )

    def test_significance_flag_matches_interval(self):
        rng = np.random.default_rng(17)
        d1 = random_design(rng, 30, [1])
        d2 = random_design(rng, 30, [1])
        beta1 = np.column_stack([rng.normal(-1.0, 0.02, 200), rng.normal(0.5, 0.02, 200)])
        beta2 = np.column_stack([rng.normal(-1.6, 0.02, 200), rng.normal(0.5, 0.3, 200)])
        draws1 = PosteriorDraws(survey_id="S1", beta=beta1, sigma2=np.zeros(200), column_groups=d1.column_groups)
        draws2 = PosteriorDraws(survey_id="S2", beta=beta2, sigma2=np.zeros(200), column_groups=d1.column_groups)
        out = posterior_decompose(d1, d2, draws1, draws2, years_between=12.0)
        for comp in out.components.values():
            assert comp.significant == (comp.lower > 0 or comp.upper < 0)
        assert out.components["intercept"].significant
        assert not out.components["g0"].significant


def random_draws(rng, center, spread, n, groups):
    beta = center + rng.normal(scale=spread, size=(n, len(center)))
    return PosteriorDraws(survey_id="S", beta=beta, sigma2=rng.gamma(4.0, 0.05, size=n), column_groups=dict(groups))


class TestKernel:
    """posterior_decompose walks every draw once through the shared kernel."""

    def setup_method(self):
        rng = np.random.default_rng(40)
        self.d1 = random_design(rng, 17, [1, 2, 3])
        self.d2 = random_design(rng, 23, [1, 2, 3])
        center = np.array([-1.1, 0.3, -0.2, 0.1, 0.2, -0.1, 0.05])
        self.draws1 = random_draws(rng, center, 0.1, 30, self.d1.column_groups)
        self.draws2 = random_draws(rng, center - 0.2, 0.1, 30, self.d1.column_groups)
        self.order = ["g2", "intercept", "g0", "g1"]

    def test_matches_decompose_draw_pair_by_pair(self):
        out = posterior_decompose(
            self.d1, self.d2, self.draws1, self.draws2, years_between=10.0, order=self.order
        )
        per_draw = out.draws
        tilde1 = marginalize(self.draws1.beta, self.draws1.sigma2)
        tilde2 = marginalize(self.draws2.beta, self.draws2.sigma2)
        for ell in range(per_draw.n_draws):
            d = decompose_draws(self.d1, self.d2, tilde1[ell], tilde2[ell], self.order)
            np.testing.assert_allclose(per_draw.rate1[ell], d.rate1[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(per_draw.rate2[ell], d.rate2[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(per_draw.x_effect[ell], d.x_effect[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(per_draw.beta_effect[ell], d.beta_effect[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(per_draw.group_effects[ell], d.group_effects[0], rtol=0, atol=1e-14)

    def test_link_passes_per_draw(self, monkeypatch):
        # n1 + (K + 2) n2 normal-CDF evaluations per draw: rate1 over
        # survey 1, then the crossed mean, one per swapped group and the
        # direct rate2 over survey 2
        evaluated = []
        real_ndtr = decompose_module.ndtr

        def counting_ndtr(v, out=None):
            evaluated.append(np.size(v))
            return real_ndtr(v, out=out)

        monkeypatch.setattr(decompose_module, "ndtr", counting_ndtr)
        posterior_decompose(self.d1, self.d2, self.draws1, self.draws2, years_between=10.0)
        n1, n2, k = self.d1.n_rows, self.d2.n_rows, len(self.order)
        assert sum(evaluated) == self.draws1.n_draws * (n1 + (k + 2) * n2)

    def test_identity_link_matches_linear_oracle_per_draw(self, monkeypatch):
        monkeypatch.setattr(decompose_module, "ndtr", np.positive)  # the identity link in place of Phi
        out = posterior_decompose(self.d1, self.d2, self.draws1, self.draws2, years_between=10.0)
        tilde1 = marginalize(self.draws1.beta, self.draws1.sigma2)
        tilde2 = marginalize(self.draws2.beta, self.draws2.sigma2)
        xbar1, xbar2 = self.d1.x.mean(axis=0), self.d2.x.mean(axis=0)
        for ell in range(out.draws.n_draws):
            want = linear_oracle(xbar1, xbar2, tilde1[ell], tilde2[ell])
            assert abs(out.draws.x_effect[ell] - want[0]) < 1e-12
            assert abs(out.draws.beta_effect[ell] - want[1]) < 1e-12

    def test_draw_width_must_match_design(self):
        narrow = constant_draws([-1.0, 0.2], 0.1, 5, self.d1.column_groups)  # the layout agrees, the width does not
        with pytest.raises(ConfigError, match="coefficients per draw"):
            posterior_decompose(self.d1, self.d2, narrow, narrow, years_between=10.0)
        with pytest.raises(ConfigError, match="coefficients per draw"):
            decompose_draws(self.d1, self.d2, np.zeros(3), np.zeros(3))


def test_decompose_rejects_draws_fitted_under_another_layout():
    # same width, groups swapped: only the recorded layout tells them apart
    rng = np.random.default_rng(41)
    d1 = random_design(rng, 20, [1, 1])
    d2 = random_design(rng, 20, [1, 1])
    assert d2.column_groups == {"g0": (1, 2), "g1": (2, 3)}
    center = np.array([-1.0, 0.2, -0.1])
    fitted = random_draws(rng, center, 0.1, 10, d2.column_groups)
    swapped = replace(fitted, column_groups={"g1": (1, 2), "g0": (2, 3)})
    with pytest.raises(ConfigError, match="survey 2: draws were fitted under column groups"):
        posterior_decompose(d1, d2, fitted, swapped, years_between=10.0)
    bare = replace(fitted, column_groups={})  # draws that record no layout are not decomposed unchecked
    with pytest.raises(ConfigError, match=r"survey 1: draws were fitted under column groups \{\}"):
        posterior_decompose(d1, d2, bare, fitted, years_between=10.0)
    posterior_decompose(d1, d2, fitted, fitted, years_between=10.0)


blas_threads = decompose_module._openblas_threads()
needs_blas_control = pytest.mark.skipif(blas_threads is None, reason="numpy's BLAS exports no thread control")


@pytest.fixture
def blas_at_three():
    """OpenBLAS at 3 threads, so a restored count differs from the kernel's 1; the old count after."""
    get, set_ = blas_threads
    before = get()
    set_(3)
    try:
        yield get()
    finally:
        set_(before)


class TestThreadedKernel:
    """Chunks on threads give the one-chunk kernel's bytes and leave BLAS as found."""

    def setup_method(self):
        rng = np.random.default_rng(41)
        self.d1 = random_design(rng, 31, [1, 2, 3])
        self.d2 = random_design(rng, 37, [1, 2, 3])
        center = np.array([-1.1, 0.3, -0.2, 0.1, 0.2, -0.1, 0.05])
        self.draws1 = random_draws(rng, center, 0.1, 25, self.d1.column_groups)
        beta2 = self.draws1.beta + rng.normal(scale=0.1, size=self.draws1.beta.shape)
        beta2[:, 2:4] = self.draws1.beta[:, 2:4]  # g1 keeps survey 1's coefficients: a zero delta
        beta2[::3, 0] = self.draws1.beta[::3, 0]  # and the intercept on every third draw
        self.draws2 = replace(self.draws1, survey_id="S2", beta=beta2)
        self.order = ["g1", "g2", "intercept", "g0"]

    def decompose(self, n_draws=None):
        take = slice(None, n_draws)
        draws1, draws2 = (
            replace(d, beta=d.beta[take].copy(), sigma2=d.sigma2[take].copy())
            for d in (self.draws1, self.draws2)
        )
        return posterior_decompose(self.d1, self.d2, draws1, draws2, years_between=10.0, order=self.order).draws

    def draws_on(self, monkeypatch, cores, n_draws=None, link=None):
        """The draws decomposed on ``cores`` cores; ``link``, when given, stands in for Phi."""
        monkeypatch.setattr(decompose_module, "_available_cores", lambda: cores)
        if link is not None:
            monkeypatch.setattr(decompose_module, "ndtr", link)
        return self.decompose(n_draws)

    @pytest.mark.parametrize("cores, n_draws", [(2, None), (3, None), (7, None), (8, 3), (4, 1)])
    def test_threads_give_the_one_chunk_bytes(self, monkeypatch, cores, n_draws):
        serial = self.draws_on(monkeypatch, 1, n_draws)
        threaded = self.draws_on(monkeypatch, cores, n_draws)
        assert np.any(serial.group_effects[:, 0] == 0.0)  # a zero delta swapped nothing
        for name in ("rate1", "rate2", "x_effect", "beta_effect", "group_effects"):
            assert np.array_equal(getattr(threaded, name), getattr(serial, name)), name

    @needs_blas_control
    def test_chunks_run_on_threads_with_blas_at_one(self, monkeypatch):
        # each thread's first link pass waits for the other's: one thread
        # walking both chunks would break the barrier
        both_running = threading.Barrier(2, timeout=30)
        seen = []

        def recording_ndtr(v, out=None):
            ident = threading.get_ident()
            first = ident not in {i for i, _ in seen}
            seen.append((ident, blas_threads[0]()))
            if first:
                both_running.wait()
            return ndtr(v, out=out)

        self.draws_on(monkeypatch, 2, link=recording_ndtr)
        assert len({ident for ident, _ in seen}) == 2
        assert {count for _, count in seen} == {1}

    @needs_blas_control
    def test_one_chunk_also_walks_with_blas_at_one(self, monkeypatch, blas_at_three):
        # a product split across BLAS threads could round differently from
        # the threaded walk's, so the one-chunk walk holds BLAS at one too
        seen = []

        def recording_ndtr(v, out=None):
            seen.append((threading.get_ident(), blas_threads[0]()))
            return ndtr(v, out=out)

        self.draws_on(monkeypatch, 1, link=recording_ndtr)
        assert {ident for ident, _ in seen} == {threading.get_ident()}
        assert {count for _, count in seen} == {1}
        assert blas_threads[0]() == blas_at_three

    def test_without_blas_control_one_chunk_on_the_calling_thread(self, monkeypatch):
        serial = self.draws_on(monkeypatch, 1)
        monkeypatch.setattr(decompose_module, "_openblas_threads", lambda: None)
        threads = set()

        def recording_ndtr(v, out=None):
            threads.add(threading.get_ident())
            return ndtr(v, out=out)

        out = self.draws_on(monkeypatch, 4, link=recording_ndtr)
        assert threads == {threading.get_ident()}
        assert np.array_equal(out.group_effects, serial.group_effects)

    @needs_blas_control
    def test_blas_count_restored_after_decompose(self, monkeypatch, blas_at_three):
        self.draws_on(monkeypatch, 2)
        assert blas_threads[0]() == blas_at_three

    @needs_blas_control
    def test_blas_count_restored_when_the_kernel_raises(self, monkeypatch, blas_at_three):
        narrow = constant_draws([-1.0, 0.2], 0.1, 5, self.d1.column_groups)  # the layout agrees, the width does not
        with pytest.raises(ConfigError, match="coefficients per draw"):
            posterior_decompose(self.d1, self.d2, narrow, narrow, years_between=10.0)
        assert blas_threads[0]() == blas_at_three

        calls = itertools.count()
        with pytest.raises(ValueError, match="group effects must sum"):
            self.draws_on(monkeypatch, 2, link=lambda v, out=None: np.add(ndtr(v), 1e-6 * next(calls), out=out))
        assert blas_threads[0]() == blas_at_three

        # two blocks of six passes each: call 9 is in the second block's walk
        failing_calls = itertools.count()
        raised_on = []

        def failing_ndtr(v, out=None):
            if next(failing_calls) == 9:
                raised_on.append(threading.get_ident())
                raise FloatingPointError("link failed on a worker thread")
            return ndtr(v, out=out)

        with pytest.raises(FloatingPointError, match="worker thread"):
            self.draws_on(monkeypatch, 2, link=failing_ndtr)
        assert raised_on and raised_on[0] != threading.get_ident()
        assert blas_threads[0]() == blas_at_three

    def test_concurrent_decompositions_agree_and_restore_blas(self, monkeypatch):
        # more callers than cores, each running chunks on threads, with
        # frequent switches: outputs stay the one-chunk bytes and the
        # shared BLAS hold ends at the count it started from
        serial = self.draws_on(monkeypatch, 1)
        monkeypatch.setattr(decompose_module, "_available_cores", lambda: 3)
        before = blas_threads[0]() if blas_threads else None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as pool:
                futures = [pool.submit(self.decompose) for _ in range(12)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for out in results:
            assert np.array_equal(out.group_effects, serial.group_effects)
            assert np.array_equal(out.rate1, serial.rate1) and np.array_equal(out.rate2, serial.rate2)
        if blas_threads:
            assert blas_threads[0]() == before


@settings(max_examples=40, deadline=None)
@given(
    group_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    n_rows=st.tuples(st.integers(2, 30), st.integers(2, 30)),
    n_draws=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_additivity_identities_hold_through_threaded_decompose(group_sizes, n_rows, n_draws, seed):
    rng = np.random.default_rng(seed)
    d1 = random_design(rng, n_rows[0], group_sizes)
    d2 = random_design(rng, n_rows[1], group_sizes)
    p = d1.n_cols
    draws1, draws2 = (random_draws(rng, rng.normal(scale=0.8, size=p), 0.3, n_draws, d1.column_groups) for _ in range(2))
    order = list(rng.permutation(["intercept"] + list(d2.column_groups)))
    out = posterior_decompose(d1, d2, draws1, draws2, years_between=10.0, order=order).draws
    assert out.order == tuple(order)
    assert np.all(np.abs(out.x_effect + out.beta_effect - out.overall_diff) <= 1e-12)
    assert np.all(np.abs(out.group_effects.sum(axis=1) - out.beta_effect) <= 1e-12)


def per_row_reference(d1, d2, tilde1, tilde2, order):
    """The decomposition walked by hand: every mean over every row with ``np.mean``."""
    blocks = [d2.group_columns(name) for name in order]
    fields = {name: [] for name in ("rate1", "rate2", "x_effect", "beta_effect", "group_effects")}
    for b1, b2 in zip(tilde1, tilde2):
        rate1 = np.mean(ndtr(d1.x @ b1))
        eta = d2.x @ b1
        walk = [np.mean(ndtr(eta))]
        for cols in blocks:
            delta = b2[cols] - b1[cols]
            if np.any(delta != 0.0):
                eta += d2.x[:, cols] @ delta
                walk.append(np.mean(ndtr(eta)))
            else:
                walk.append(walk[-1])
        rate2 = np.mean(ndtr(d2.x @ b2))
        walk = np.array(walk)
        for name, value in zip(fields, (rate1, rate2, rate1 - walk[0], walk[0] - rate2, walk[:-1] - walk[1:])):
            fields[name].append(value)
    return {name: np.array(values) for name, values in fields.items()}


def binary_design(rng, n_rows, n_binary):
    """Intercept plus ``n_binary`` 0/1 columns: at most ``2 ** n_binary`` distinct rows."""
    return design_from(np.column_stack([np.ones(n_rows), rng.integers(0, 2, size=(n_rows, n_binary))]))


def design_with_distinct(rng, n_rows, n_distinct):
    """Intercept plus two normal columns, with exactly ``n_distinct`` distinct rows."""
    rows = np.column_stack([np.ones(n_distinct), rng.normal(size=(n_distinct, 2))])
    return design_from(rows[np.concatenate([np.arange(n_distinct), rng.integers(0, n_distinct, n_rows - n_distinct)])])


def ndtr_evals_per_draw(monkeypatch, d1, d2, tilde1, tilde2, order=None):
    evaluated = []

    def counting_ndtr(v, out=None):
        evaluated.append(np.size(v))
        return ndtr(v, out=out)

    monkeypatch.setattr(decompose_module, "ndtr", counting_ndtr)
    decompose_draws(d1, d2, tilde1, tilde2, order)
    return sum(evaluated) / tilde1.shape[0]


def nonzero_rows(x, design, order):
    """The rows of ``x`` on which each swap group in ``order`` has a nonzero column, summed over the groups."""
    return sum(int(np.any(x[:, design.group_columns(name)] != 0.0, axis=1).sum()) for name in order)


class TestDistinctRows:
    """A design with at most half its rows distinct is walked over those rows, weighted by count."""

    def setup_method(self):
        rng = np.random.default_rng(60)
        self.d1 = binary_design(rng, 240, 3)
        self.d2 = binary_design(rng, 300, 3)
        self.tilde1 = rng.normal(-1.0, 0.4, size=(25, 4))
        self.tilde2 = self.tilde1 + rng.normal(0.0, 0.2, size=(25, 4))
        self.order = ["g2", "intercept", "g3", "g1"]

    def test_repeated_rows_match_the_per_row_reference(self):
        self.tilde2[::4, 2] = self.tilde1[::4, 2]  # zero deltas too
        out = decompose_draws(self.d1, self.d2, self.tilde1, self.tilde2, self.order)
        want = per_row_reference(self.d1, self.d2, self.tilde1, self.tilde2, self.order)
        for name, value in want.items():
            np.testing.assert_allclose(getattr(out, name), value, rtol=0, atol=1e-15, err_msg=name)

    def test_link_passes_run_over_the_distinct_rows(self, monkeypatch):
        u1, u2 = (np.unique(d.x, axis=0).shape[0] for d in (self.d1, self.d2))
        assert u1 == u2 == 8
        per_draw = ndtr_evals_per_draw(monkeypatch, self.d1, self.d2, self.tilde1, self.tilde2)
        # rate1, the crossed mean and rate2, then each swap over the distinct rows its group moves:
        # the intercept on all 8, each binary column on the 4 where it is 1
        assert per_draw == u1 + 2 * u2 + nonzero_rows(np.unique(self.d2.x, axis=0), self.d2, self.order)

    @pytest.mark.parametrize("extra, collapsed", [(0, True), (1, False)], ids=["half", "half_plus_one"])
    def test_collapse_only_when_at_most_half_the_rows_are_distinct(self, monkeypatch, extra, collapsed):
        rng = np.random.default_rng(61)
        n = 200
        d1 = design_with_distinct(rng, n, n // 2 + extra)
        d2 = design_with_distinct(rng, n, n // 2 + extra)
        tilde1, tilde2 = rng.normal(-1.0, 0.3, size=(2, 6, 3))
        rows = n // 2 + extra if collapsed else n
        k = len(d2.column_groups) + 1
        assert ndtr_evals_per_draw(monkeypatch, d1, d2, tilde1, tilde2) == rows + (k + 2) * rows

    def test_distinct_rows_match_the_per_row_reference(self):
        rng = np.random.default_rng(62)
        d1, d2 = random_design(rng, 90, [1, 2]), random_design(rng, 110, [1, 2])
        tilde1 = rng.normal(-1.0, 0.4, size=(20, 4))
        tilde2 = tilde1 + rng.normal(0.0, 0.2, size=(20, 4))
        order = ["g1", "intercept", "g0"]
        tilde2[::4, 0] = tilde1[::4, 0]
        out = decompose_draws(d1, d2, tilde1, tilde2, order)
        for name, value in per_row_reference(d1, d2, tilde1, tilde2, order).items():
            np.testing.assert_allclose(getattr(out, name), value, rtol=0, atol=1e-15, err_msg=name)

    @staticmethod
    def colliding_design(pairs):
        """Rows ``[1, a, b]`` and ``[1, -a, -b]`` for each ``(a, b)``: each pair's row keys collide."""
        return design_from([[1.0, sign * a, sign * b] for a, b in pairs for sign in (1.0, -1.0)])

    def test_colliding_keys_keep_every_row(self):
        # 2 keys for 4 distinct rows: the byte comparison finds the rows mostly distinct
        x = self.colliding_design([(1.5, 0.1), (2.5, 0.3)]).x
        rows, weights = decompose_module._distinct_rows(x)
        assert np.array_equal(rows, x)
        assert np.array_equal(weights, np.full(4, 0.25))

    def test_colliding_keys_match_the_per_row_reference(self):
        rng = np.random.default_rng(63)
        d1 = self.colliding_design([(1.5, 0.1), (2.5, 0.3)])
        d2 = self.colliding_design([(0.5, -0.7), (1.2, 0.4), (-0.8, 0.9)])
        tilde1 = rng.normal(-1.0, 0.4, size=(20, 3))
        tilde2 = tilde1 + rng.normal(0.0, 0.2, size=(20, 3))
        order = ["g2", "intercept", "g1"]
        out = decompose_draws(d1, d2, tilde1, tilde2, order)
        for name, value in per_row_reference(d1, d2, tilde1, tilde2, order).items():
            np.testing.assert_allclose(getattr(out, name), value, rtol=0, atol=1e-15, err_msg=name)


class TestTiledWalk:
    """Blocks of draws walk tiles of design rows: more than one of each, neither a whole multiple."""

    n_draws = 3 * decompose_module._DRAW_BLOCK + 5
    order = ["g1", "intercept", "g2", "g0"]

    def designs(self, rng, n_distinct=None):
        """Two designs walked over more than one row tile, neither row count a multiple of the tile."""
        tile = decompose_module._ROW_TILE
        n1, n2 = 2 * tile + 331, 2 * tile + 517
        if n_distinct is None:
            designs = random_design(rng, n1, [1, 2, 1]), random_design(rng, n2, [1, 2, 1])
        else:
            designs = design_with_distinct(rng, n1, n_distinct), design_with_distinct(rng, n2, n_distinct)
        walked = [decompose_module._distinct_rows(d.x)[0].shape[0] for d in designs]
        assert min(walked) > tile and all(w % tile for w in walked)
        assert (walked == [n1, n2]) == (n_distinct is None)
        return designs

    def coefficients(self, rng, p):
        tilde1 = rng.normal(-1.0, 0.4, size=(self.n_draws, p))
        return tilde1, tilde1 + rng.normal(0.0, 0.2, size=(self.n_draws, p))

    @pytest.mark.parametrize("n_distinct", [None, 1200], ids=["per_row", "collapsed"])
    def test_many_tiles_and_blocks_match_the_per_row_reference(self, n_distinct):
        rng = np.random.default_rng(70)
        d1, d2 = self.designs(rng, n_distinct)
        tilde1, tilde2 = self.coefficients(rng, d1.n_cols)
        order = ["intercept"] + list(d2.column_groups) if n_distinct else self.order
        tilde2[::5, 1] = tilde1[::5, 1]  # zero deltas too
        out = decompose_draws(d1, d2, tilde1, tilde2, order)
        for name, value in per_row_reference(d1, d2, tilde1, tilde2, order).items():
            np.testing.assert_allclose(getattr(out, name), value, rtol=0, atol=1e-15, err_msg=name)

    @pytest.mark.parametrize("cores", [2, 3, 7])
    def test_core_count_leaves_the_bytes(self, monkeypatch, cores):
        rng = np.random.default_rng(71)
        d1, d2 = self.designs(rng)
        tilde1, tilde2 = self.coefficients(rng, d1.n_cols)
        tilde1, tilde2 = np.tile(tilde1, (3, 1)), np.tile(tilde2, (3, 1))  # ten blocks, the last short
        runs = {}
        for n in (1, cores):
            monkeypatch.setattr(decompose_module, "_available_cores", lambda n=n: n)
            runs[n] = decompose_draws(d1, d2, tilde1, tilde2, self.order)
        for name in ("rate1", "rate2", "x_effect", "beta_effect", "group_effects"):
            assert np.array_equal(getattr(runs[cores], name), getattr(runs[1], name)), name

    @pytest.mark.parametrize("inputs", ["two_designs", "equal_designs_and_draws", "one_group_equal"])
    def test_link_passes_per_draw_over_tiles(self, monkeypatch, inputs):
        # every block runs every pass on every tile, whatever the inputs share
        rng = np.random.default_rng(72)
        d1, d2 = self.designs(rng)
        tilde1, tilde2 = self.coefficients(rng, d1.n_cols)
        if inputs == "equal_designs_and_draws":
            d1, tilde2 = d2, tilde1
        elif inputs == "one_group_equal":
            g0 = d2.group_columns("g0")
            tilde2[:, g0] = tilde1[:, g0]
        per_draw = ndtr_evals_per_draw(monkeypatch, d1, d2, tilde1, tilde2)
        assert per_draw == d1.n_rows + (len(self.order) + 2) * d2.n_rows

    def test_zero_delta_in_a_whole_block_and_in_part_of_one(self, monkeypatch):
        rng = np.random.default_rng(73)
        d1, d2 = self.designs(rng)
        tilde1, tilde2 = self.coefficients(rng, d1.n_cols)
        block = decompose_module._DRAW_BLOCK
        g0 = d2.group_columns("g0")
        tilde2[:block, g0] = tilde1[:block, g0]  # every draw of block 0
        some = np.arange(block, 2 * block, 3)
        tilde2[some, g0] = tilde1[some, g0]  # a third of block 1
        j = self.order.index("g0")

        per_draw = ndtr_evals_per_draw(monkeypatch, d1, d2, tilde1, tilde2)
        assert per_draw == d1.n_rows + (len(self.order) + 2) * d2.n_rows

        out = decompose_draws(d1, d2, tilde1, tilde2, self.order)
        zero = np.zeros(self.n_draws, dtype=bool)
        zero[:block] = zero[some] = True
        assert np.all(out.group_effects[zero, j] == 0.0)
        assert np.all(out.group_effects[~zero, j] != 0.0)
        for name, value in per_row_reference(d1, d2, tilde1, tilde2, self.order).items():
            np.testing.assert_allclose(getattr(out, name), value, rtol=0, atol=1e-15, err_msg=name)


def zero_heavy_design(rng, n_rows):
    """Intercept, a normal column, two binary groups and a spline-like pair that is zero at its minimum.

    ``sex`` is zero (as ``-0.0``) on about 40% of rows, ``urban`` on 70%
    and ``spline`` on half, so most swaps move only part of the sample;
    the normal column keeps every row distinct.
    """
    u = np.maximum(rng.normal(size=n_rows), 0.0)
    x = np.column_stack([
        np.ones(n_rows),
        rng.normal(size=n_rows),
        np.where(rng.random(n_rows) < 0.6, 1.0, -0.0),
        (rng.random(n_rows) < 0.3).astype(float),
        u,
        np.maximum(u - 0.5, 0.0) ** 2,
    ])
    return design_from(x, {"age": (1, 2), "sex": (2, 3), "urban": (3, 4), "spline": (4, 6)})


class TestSparseSwaps:
    """A swap evaluates the link only on the rows its group moves, in one row order for both designs."""

    n_draws = 3 * decompose_module._DRAW_BLOCK + 5
    order = ["spline", "intercept", "sex", "age", "urban"]

    def setup_method(self):
        rng = np.random.default_rng(80)
        tile = decompose_module._ROW_TILE
        self.d1, self.d2 = zero_heavy_design(rng, 2 * tile + 331), zero_heavy_design(rng, 2 * tile + 517)
        self.tilde1 = rng.normal(-1.0, 0.4, size=(self.n_draws, self.d1.n_cols))
        self.tilde2 = self.tilde1 + rng.normal(0.0, 0.2, size=self.tilde1.shape)
        block = decompose_module._DRAW_BLOCK
        sex, spline = self.d2.group_columns("sex"), self.d2.group_columns("spline")
        self.tilde2[:block, sex] = self.tilde1[:block, sex]  # sex swaps nothing in block 0
        third = slice(block, 2 * block, 3)
        self.tilde2[third, spline] = self.tilde1[third, spline]  # nor spline on a third of block 1
        self.tilde2[2 * block : 3 * block] = self.tilde1[2 * block : 3 * block]  # block 2 swaps nothing at all

    def decompose(self, d1=None, d2=None, **kwargs):
        return decompose_draws(d1 or self.d1, d2 or self.d2, self.tilde1, self.tilde2, self.order, **kwargs)

    def test_link_evaluations_per_draw(self, monkeypatch):
        tilde2 = self.tilde1 + np.random.default_rng(81).normal(0.0, 0.2, size=self.tilde1.shape)
        n1, n2 = self.d1.n_rows, self.d2.n_rows
        assert decompose_module._distinct_rows(self.d2.x)[0].shape[0] == n2  # walked row by row
        moved = nonzero_rows(self.d2.x, self.d2, self.order)
        assert moved < len(self.order) * n2
        per_draw = ndtr_evals_per_draw(monkeypatch, self.d1, self.d2, self.tilde1, tilde2, self.order)
        assert per_draw == n1 + 2 * n2 + moved

    def test_matches_the_per_row_reference(self):
        out = self.decompose()
        block = decompose_module._DRAW_BLOCK
        assert np.all(out.group_effects[2 * block : 3 * block] == 0.0)
        assert np.all(out.beta_effect[2 * block : 3 * block] == 0.0)
        for name, value in per_row_reference(self.d1, self.d2, self.tilde1, self.tilde2, self.order).items():
            np.testing.assert_allclose(getattr(out, name), value, rtol=0, atol=1e-15, err_msg=name)

    def test_identity_link_matches_the_linear_oracle(self):
        out = self.decompose(link="identity")
        xbar1, xbar2 = self.d1.x.mean(axis=0), self.d2.x.mean(axis=0)
        for ell in range(self.n_draws):
            want = linear_oracle(xbar1, xbar2, self.tilde1[ell], self.tilde2[ell])
            np.testing.assert_allclose((out.x_effect[ell], out.beta_effect[ell]), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shuffled", ["d1", "d2"])
    def test_row_order_of_either_design_moves_no_output(self, shuffled):
        design = getattr(self, shuffled)
        rows = np.random.default_rng(82).permutation(design.n_rows)
        out = self.decompose(**{shuffled: design_from(design.x[rows], design.column_groups)})
        want = self.decompose()
        for name in ("rate1", "rate2", "x_effect", "beta_effect", "group_effects"):
            np.testing.assert_allclose(getattr(out, name), getattr(want, name), rtol=0, atol=1e-15, err_msg=name)

    def test_equal_designs_give_exactly_zero_x_effect(self):
        copy = design_from(self.d2.x, self.d2.column_groups)
        assert copy is not self.d2
        out = self.decompose(d1=copy)
        assert np.all(out.x_effect == 0.0)
        assert np.array_equal(out.rate1, self.decompose(d1=self.d2).rate1)

    @pytest.mark.parametrize("cores", [2, 3])
    def test_core_count_leaves_the_bytes(self, monkeypatch, cores):
        runs = {}
        for n in (1, cores):
            monkeypatch.setattr(decompose_module, "_available_cores", lambda n=n: n)
            runs[n] = self.decompose()
        for name in ("rate1", "rate2", "x_effect", "beta_effect", "group_effects"):
            assert np.array_equal(getattr(runs[cores], name), getattr(runs[1], name)), name


def zeroed(design, shares, rng):
    """``design`` with each group's columns set to ``0.0`` or ``-0.0`` on a ``shares[k]`` fraction of rows."""
    x = design.x.copy()
    for (lo, hi), share in zip(design.column_groups.values(), shares):
        rows = rng.random(design.n_rows) < share
        x[rows, lo:hi] = rng.choice([0.0, -0.0])
    return design_from(x, design.column_groups)


@settings(max_examples=40, deadline=None)
@given(
    group_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    shares=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    n_rows=st.tuples(st.integers(2, 2600), st.integers(2, 2600)),
    n_draws=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_swaps_keep_the_identities_and_the_per_row_reference(group_sizes, shares, n_rows, n_draws, seed):
    rng = np.random.default_rng(seed)
    d1, d2 = (zeroed(random_design(rng, n, group_sizes), shares, rng) for n in n_rows)
    p = d1.n_cols
    draws1, draws2 = (random_draws(rng, rng.normal(scale=0.8, size=p), 0.3, n_draws, d1.column_groups) for _ in range(2))
    order = list(rng.permutation(["intercept"] + list(d2.column_groups)))
    out = posterior_decompose(d1, d2, draws1, draws2, years_between=10.0, order=order).draws
    assert np.all(np.abs(out.x_effect + out.beta_effect - out.overall_diff) <= 1e-12)
    assert np.all(np.abs(out.group_effects.sum(axis=1) - out.beta_effect) <= 1e-12)
    # the reference sums each mean in another order; over up to 2600 rows that moves the last
    # bits by a few 1e-15 (seen up to 7e-15), while one row evaluated wrongly moves a mean by 1e-5
    tilde1, tilde2 = (marginalize(d.beta, d.sigma2) for d in (draws1, draws2))
    for name, value in per_row_reference(d1, d2, tilde1, tilde2, order).items():
        np.testing.assert_allclose(getattr(out, name), value, rtol=0, atol=1e-13, err_msg=name)


class TestAnnualize:
    def test_paper_fixture_values(self):
        assert abs(annualize(75.0, 14.0) - 5.3571428571) < 1e-9
        assert f"{annualize(75.0, 14.0):.1f}" == "5.4"
        assert abs(annualize(77.0, 16.0) - 4.8125) < 1e-12
        assert f"{annualize(77.0, 16.0):.1f}" == "4.8"

    def test_zero_total(self):
        assert annualize(0.0, 7.0) == 0.0

    def test_nonpositive_years_rejected(self):
        with pytest.raises(ConfigError):
            annualize(10.0, 0.0)
        with pytest.raises(ConfigError):
            annualize(10.0, -3.0)


def test_percent_of_zero_denominator_is_nan():
    assert np.isnan(percent_of(1.0, 0.0))
