import numpy as np
import pytest

import mortdecomp.decompose as decompose_module
from mortdecomp.dataset import DesignMatrix
from mortdecomp.decompose import (
    annualize,
    coefficient_decompose,
    decompose_draw,
    overall_decompose,
    percent_of,
    posterior_decompose,
)
from mortdecomp.errors import ConfigError
from mortdecomp.marginal import marginalize, marginalize_all
from mortdecomp.sampler import PosteriorDraws
from mortdecomp.validation import linear_oracle


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


def random_design(rng, n_rows, group_sizes):
    cols = [np.ones((n_rows, 1))]
    groups = {}
    at = 1
    for k, size in enumerate(group_sizes):
        cols.append(rng.normal(size=(n_rows, size)))
        groups[f"g{k}"] = (at, at + size)
        at += size
    return design_from(np.hstack(cols), groups)


class TestOverallDecompose:
    def test_equal_coefficients_zero_beta_effect(self):
        rng = np.random.default_rng(0)
        d1 = random_design(rng, 15, [1, 2])
        d2 = random_design(rng, 20, [1, 2])
        b = rng.normal(size=4)
        x_eff, beta_eff = overall_decompose(d1, d2, b, b.copy())
        assert beta_eff == 0.0
        assert x_eff != 0.0

    def test_equal_designs_zero_x_effect(self):
        rng = np.random.default_rng(1)
        d = random_design(rng, 15, [2])
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        x_eff, beta_eff = overall_decompose(d, d, b1, b2)
        assert x_eff == 0.0
        assert beta_eff != 0.0

    def test_identity_link_matches_linear_oracle(self):
        rng = np.random.default_rng(2)
        d1 = random_design(rng, 20, [1, 1])
        d2 = random_design(rng, 20, [1, 1])
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        got = overall_decompose(d1, d2, b1, b2, link="identity")
        want = linear_oracle(d1.x.mean(axis=0), d2.x.mean(axis=0), b1, b2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_mismatched_layouts_rejected(self):
        rng = np.random.default_rng(3)
        d1 = random_design(rng, 10, [1])
        d2 = random_design(rng, 10, [1, 1])
        with pytest.raises(ConfigError):
            overall_decompose(d1, d2, np.zeros(2), np.zeros(2))

    def test_swap_symmetry_negates_overall(self):
        rng = np.random.default_rng(4)
        d1 = random_design(rng, 12, [2])
        d2 = random_design(rng, 18, [2])
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        x_a, beta_a = overall_decompose(d1, d2, b1, b2)
        x_b, beta_b = overall_decompose(d2, d1, b2, b1)
        np.testing.assert_allclose(x_a + beta_a, -(x_b + beta_b), atol=1e-15)


class TestCoefficientDecompose:
    def test_equal_coefficients_all_zero(self):
        rng = np.random.default_rng(5)
        d2 = random_design(rng, 10, [1, 2])
        b = rng.normal(size=4)
        effects = coefficient_decompose(d2, b, b.copy())
        assert all(v == 0.0 for v in effects.values())

    def test_intercept_only_difference_collapses(self):
        rng = np.random.default_rng(6)
        d2 = random_design(rng, 25, [1, 2])
        b1 = rng.normal(size=4)
        b2 = b1.copy()
        b2[0] += 0.8
        effects = coefficient_decompose(d2, b1, b2)
        _, beta_eff = overall_decompose(d2, d2, b1, b2)
        assert effects["g0"] == 0.0 and effects["g1"] == 0.0
        np.testing.assert_allclose(effects["intercept"], beta_eff, atol=1e-15)

    def test_collapsing_sum_identity_fuzz(self):
        rng = np.random.default_rng(7)
        d2 = random_design(rng, 30, [2, 1, 3])
        names = ["intercept", "g0", "g1", "g2"]
        for _ in range(1000):
            b1 = rng.normal(scale=0.8, size=7)
            b2 = rng.normal(scale=0.8, size=7)
            order = list(rng.permutation(names))
            effects = coefficient_decompose(d2, b1, b2, order)
            _, beta_eff = overall_decompose(d2, d2, b1, b2)
            assert abs(sum(effects.values()) - beta_eff) < 1e-12

    def test_spline_columns_swap_together(self):
        rng = np.random.default_rng(8)
        d2 = random_design(rng, 40, [3])
        b1 = rng.normal(size=4)
        b2 = b1.copy()
        b2[1:4] = rng.normal(size=3)  # entire group changes at once
        effects = coefficient_decompose(d2, b1, b2)
        _, beta_eff = overall_decompose(d2, d2, b1, b2)
        assert effects["intercept"] == 0.0
        np.testing.assert_allclose(effects["g0"], beta_eff, atol=1e-15)

    def test_group_effect_may_exceed_total_when_others_offset(self):
        # Mirrors the published pattern where the intercept swap alone
        # contributes more than the whole coefficient effect (e.g. an
        # intercept effect of 6.2 against an overall 4.6 per 1000/year).
        d2 = design_from(np.column_stack([np.ones(50), np.linspace(0, 1, 50)]))
        b1 = np.array([-1.0, -0.5])
        b2 = np.array([-1.4, 0.1])  # intercept falls, slope effect offsets
        effects = coefficient_decompose(d2, b1, b2, ["intercept", "g1"])
        _, beta_eff = overall_decompose(d2, d2, b1, b2)
        assert effects["intercept"] > beta_eff > 0
        assert effects["g1"] < 0

    def test_bad_order_rejected(self):
        rng = np.random.default_rng(9)
        d2 = random_design(rng, 10, [1])
        with pytest.raises(ConfigError):
            coefficient_decompose(d2, np.zeros(2), np.ones(2), ["g1"])
        with pytest.raises(ConfigError):
            coefficient_decompose(d2, np.zeros(2), np.ones(2), ["intercept", "g1", "g1"])

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
            effects = coefficient_decompose(d2, b1, b2, order)
            totals.append(sum(effects.values()))
        assert max(totals) - min(totals) < 1e-13


class TestDecomposeDraw:
    def test_additivity_identities_hold(self):
        rng = np.random.default_rng(11)
        d1 = random_design(rng, 35, [1, 2])
        d2 = random_design(rng, 25, [1, 2])
        b1, b2 = rng.normal(size=4), rng.normal(size=4)
        d = decompose_draw(d1, d2, b1, b2)
        assert abs(d.x_effect + d.beta_effect - d.overall_diff) < 1e-12
        assert abs(sum(d.group_effects.values()) - d.beta_effect) < 1e-12

    def test_marginalization_with_zero_variance_reproduces_conditional(self):
        rng = np.random.default_rng(12)
        d1 = random_design(rng, 15, [2])
        d2 = random_design(rng, 15, [2])
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        plain = decompose_draw(d1, d2, b1, b2)
        scaled = decompose_draw(
            d1, d2, marginalize(b1, 0.0).coefficients, marginalize(b2, 0.0).coefficients
        )
        assert plain == scaled


def constant_draws(beta_row, sigma2, n):
    beta = np.tile(np.asarray(beta_row, dtype=float), (n, 1))
    return PosteriorDraws(survey_id="S", beta=beta, sigma2=np.full(n, float(sigma2)), column_groups={})


class TestPosteriorDecompose:
    def test_degenerate_draws_have_zero_width_intervals(self):
        rng = np.random.default_rng(13)
        d1 = random_design(rng, 30, [1, 1])
        d2 = random_design(rng, 30, [1, 1])
        b1 = np.array([-1.0, 0.3, -0.2])
        b2 = np.array([-1.3, 0.2, -0.1])
        draws1 = constant_draws(b1, 0.5, 150)
        draws2 = constant_draws(b2, 0.25, 150)
        out = posterior_decompose(d1, d2, draws1, draws2, years_between=10.0)
        point = decompose_draw(
            d1, d2, marginalize(b1, 0.5).coefficients, marginalize(b2, 0.25).coefficients
        )
        for name, comp in out.components.items():
            assert comp.upper - comp.lower == 0.0
            np.testing.assert_allclose(comp.mean, comp.lower, rtol=1e-14)
        np.testing.assert_allclose(out.components["x_effect"].mean, point.x_effect, atol=1e-14)
        np.testing.assert_allclose(out.components["beta_effect"].mean, point.beta_effect, atol=1e-14)
        np.testing.assert_allclose(
            out.components["overall_diff"].mean, point.overall_diff, atol=1e-14
        )

    def test_percent_point_is_ratio_of_means(self):
        rng = np.random.default_rng(14)
        d1 = random_design(rng, 40, [1])
        d2 = random_design(rng, 40, [1])
        beta1 = rng.normal(size=(120, 2), scale=0.3) - np.array([1.0, 0.0])
        beta2 = rng.normal(size=(120, 2), scale=0.3) - np.array([1.4, 0.0])
        draws1 = PosteriorDraws(survey_id="S1", beta=beta1, sigma2=np.zeros(120), column_groups={})
        draws2 = PosteriorDraws(survey_id="S2", beta=beta2, sigma2=np.zeros(120), column_groups={})
        out = posterior_decompose(d1, d2, draws1, draws2, years_between=14.0)
        x = out.components["x_effect"]
        b = out.components["beta_effect"]
        assert abs(x.percent + b.percent - 100.0) < 1e-9
        assert out.components["overall_diff"].percent == 100.0

    def test_offsetting_effects_can_exceed_100_percent(self):
        # Colombia-style row: positive covariate effect, negative
        # coefficient effect, percents beyond [0, 100].
        d = design_from(np.column_stack([np.ones(60), np.linspace(-1, 1, 60)]))
        d_shift = design_from(np.column_stack([np.ones(60), np.linspace(-0.2, 1.8, 60)]))
        b1 = np.array([-1.1, -0.4])
        b2 = np.array([-1.05, -0.4])
        draws1 = constant_draws(b1, 0.0, 100)
        draws2 = constant_draws(b2, 0.0, 100)
        out = posterior_decompose(d, d_shift, draws1, draws2, years_between=15.0)
        assert out.components["x_effect"].percent > 100.0
        assert out.components["beta_effect"].percent < 0.0

    def test_unequal_draw_counts_rejected(self):
        rng = np.random.default_rng(15)
        d = random_design(rng, 10, [1])
        with pytest.raises(ConfigError):
            posterior_decompose(
                d, d, constant_draws([0.0, 0.0], 0.0, 100), constant_draws([0.0, 0.0], 0.0, 101), 10.0
            )

    def test_bad_years_between_rejected(self):
        rng = np.random.default_rng(16)
        d = random_design(rng, 10, [1])
        with pytest.raises(ConfigError):
            posterior_decompose(
                d, d, constant_draws([0.0, 0.0], 0.0, 100), constant_draws([0.0, 0.0], 0.0, 100), 0.0
            )

    def test_significance_flag_matches_interval(self):
        rng = np.random.default_rng(17)
        d1 = random_design(rng, 30, [1])
        d2 = random_design(rng, 30, [1])
        beta1 = np.column_stack([rng.normal(-1.0, 0.02, 200), rng.normal(0.5, 0.02, 200)])
        beta2 = np.column_stack([rng.normal(-1.6, 0.02, 200), rng.normal(0.5, 0.3, 200)])
        draws1 = PosteriorDraws(survey_id="S1", beta=beta1, sigma2=np.zeros(200), column_groups={})
        draws2 = PosteriorDraws(survey_id="S2", beta=beta2, sigma2=np.zeros(200), column_groups={})
        out = posterior_decompose(d1, d2, draws1, draws2, years_between=12.0)
        for comp in out.components.values():
            assert comp.significant == (comp.lower > 0 or comp.upper < 0)
        assert out.components["intercept"].significant
        assert not out.components["g0"].significant


def random_draws(rng, center, spread, n):
    beta = center + rng.normal(scale=spread, size=(n, len(center)))
    return PosteriorDraws(survey_id="S", beta=beta, sigma2=rng.gamma(4.0, 0.05, size=n), column_groups={})


class TestKernel:
    """posterior_decompose walks every draw once through the shared kernel."""

    def setup_method(self):
        rng = np.random.default_rng(40)
        self.d1 = random_design(rng, 17, [1, 2, 3])
        self.d2 = random_design(rng, 23, [1, 2, 3])
        center = np.array([-1.1, 0.3, -0.2, 0.1, 0.2, -0.1, 0.05])
        self.draws1 = random_draws(rng, center, 0.1, 30)
        self.draws2 = random_draws(rng, center - 0.2, 0.1, 30)
        self.order = ["g2", "intercept", "g0", "g1"]

    def test_matches_decompose_draw_pair_by_pair(self):
        out = posterior_decompose(
            self.d1, self.d2, self.draws1, self.draws2, years_between=10.0, order=self.order
        )
        per_draw = out.draws
        tilde1 = marginalize_all(self.draws1.beta, self.draws1.sigma2)
        tilde2 = marginalize_all(self.draws2.beta, self.draws2.sigma2)
        for ell in range(per_draw.n_draws):
            d = decompose_draw(self.d1, self.d2, tilde1[ell], tilde2[ell], self.order)
            np.testing.assert_allclose(per_draw.rate1[ell], d.rate1, rtol=0, atol=1e-14)
            np.testing.assert_allclose(per_draw.rate2[ell], d.rate2, rtol=0, atol=1e-14)
            np.testing.assert_allclose(per_draw.x_effect[ell], d.x_effect, rtol=0, atol=1e-14)
            np.testing.assert_allclose(per_draw.beta_effect[ell], d.beta_effect, rtol=0, atol=1e-14)
            np.testing.assert_allclose(
                per_draw.group_effects[ell], [d.group_effects[name] for name in self.order], rtol=0, atol=1e-14
            )

    def test_link_passes_per_draw(self, monkeypatch):
        # n1 + (K + 2) n2 normal-CDF evaluations per draw: rate1 over
        # survey 1, then the crossed mean, one per swapped group and the
        # direct rate2 over survey 2
        evaluated = []
        real_ndtr = decompose_module.ndtr

        def counting_ndtr(v):
            evaluated.append(np.size(v))
            return real_ndtr(v)

        monkeypatch.setattr(decompose_module, "ndtr", counting_ndtr)
        posterior_decompose(self.d1, self.d2, self.draws1, self.draws2, years_between=10.0)
        n1, n2, k = self.d1.n_rows, self.d2.n_rows, len(self.order)
        assert sum(evaluated) == self.draws1.n_draws * (n1 + (k + 2) * n2)

    def test_identity_link_matches_linear_oracle_per_draw(self):
        out = posterior_decompose(
            self.d1, self.d2, self.draws1, self.draws2, years_between=10.0, link="identity"
        )
        tilde1 = marginalize_all(self.draws1.beta, self.draws1.sigma2)
        tilde2 = marginalize_all(self.draws2.beta, self.draws2.sigma2)
        xbar1, xbar2 = self.d1.x.mean(axis=0), self.d2.x.mean(axis=0)
        for ell in range(out.draws.n_draws):
            want = linear_oracle(xbar1, xbar2, tilde1[ell], tilde2[ell])
            assert abs(out.draws.x_effect[ell] - want[0]) < 1e-12
            assert abs(out.draws.beta_effect[ell] - want[1]) < 1e-12

    def test_draw_width_must_match_design(self):
        narrow = constant_draws([-1.0, 0.2], 0.1, 5)
        with pytest.raises(ConfigError, match="coefficients per draw"):
            posterior_decompose(self.d1, self.d2, narrow, narrow, years_between=10.0)
        with pytest.raises(ConfigError, match="coefficients per draw"):
            decompose_draw(self.d1, self.d2, np.zeros(3), np.zeros(3))


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
