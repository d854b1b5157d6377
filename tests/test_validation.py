import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from mortdecomp import validation
from mortdecomp.dataset import DesignMatrix
from mortdecomp.decompose import posterior_decompose
from mortdecomp.errors import ConfigError, NonConvergenceError
from mortdecomp.sampler import PosteriorDraws
from mortdecomp.validation import (
    VarianceCollapseProfile,
    linear_oracle,
    marginalization_grid_deviation,
    mc_marginalization_oracle,
    ml_probit_fit,
    variance_collapse,
)


def design_from(x, y=None, groups=None):
    x = np.asarray(x, dtype=float)
    if groups is None:
        groups = {f"g{j}": (j, j + 1) for j in range(1, x.shape[1])}
    if y is None:
        y = np.zeros(x.shape[0], dtype=np.int64)
    return DesignMatrix(
        x=x.copy(),
        outcome=np.asarray(y, dtype=np.int64),
        cluster_index=np.zeros(x.shape[0], dtype=np.int64),
        column_groups=groups,
        n_clusters=1,
    )


class TestLinearOracle:
    def test_equal_coefficients(self):
        x_eff, beta_eff = linear_oracle([1.0, 2.0], [0.5, 1.0], [0.3, 0.1], [0.3, 0.1])
        assert beta_eff == 0.0

    def test_equal_means(self):
        x_eff, beta_eff = linear_oracle([1.0, 2.0], [1.0, 2.0], [0.3, 0.1], [0.2, 0.4])
        assert x_eff == 0.0

    def test_hand_fixture(self):
        # (xbar1-xbar2)'b1 = (0,1)'(0.5,0.3) = 0.3; xbar2'(b1-b2) = (1,1)'(0,0.2) = 0.2
        x_eff, beta_eff = linear_oracle([1.0, 2.0], [1.0, 1.0], [0.5, 0.3], [0.5, 0.1])
        np.testing.assert_allclose([x_eff, beta_eff], [0.3, 0.2], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_oracle([1.0], [1.0, 2.0], [0.3], [0.3])


class TestMcMarginalizationOracle:
    def test_zero_variance_is_exact(self):
        est, se = mc_marginalization_oracle([0.7, -0.2], 0.0, [1.0, 1.0], 10**4, seed=0)
        eta = np.array([1.0, 1.0]) @ np.array([0.7, -0.2])
        assert est == ndtr(eta)
        assert se == 0.0

    def test_symmetric_center(self):
        est, se = mc_marginalization_oracle([0.0], 2.5, [1.0], 10**5, seed=1)
        assert abs(est - 0.5) < 3 * se

    def test_closed_form_target(self):
        # x'b = 1, sigma2 = 3: the integrated probability is Phi(1/2)
        est, se = mc_marginalization_oracle([1.0], 3.0, [1.0], 10**6, seed=2)
        assert abs(est - ndtr(0.5)) < 3 * se
        assert abs(est - 0.6915) < 3 * se + 1e-4

    def test_draw_floor(self):
        with pytest.raises(ValueError):
            mc_marginalization_oracle([1.0], 1.0, [1.0], 100, seed=0)

    def test_grid_fails_when_only_an_exact_point_is_off(self, monkeypatch):
        # sigma2 = 0 points have no standard error, so any gap there must fail the grid
        assert np.isfinite(marginalization_grid_deviation(10**4, seed=12345))
        marginalize, marginal_prob = validation.marginalize, validation.marginal_prob
        exact = []

        def tracking_marginalize(beta, sigma2):
            exact.append(sigma2 == 0.0)
            return marginalize(beta, sigma2)

        def perturbed_prob(x, coefficients):
            return marginal_prob(x, coefficients) + (1e-15 if exact[-1] else 0.0)

        monkeypatch.setattr(validation, "marginalize", tracking_marginalize)
        monkeypatch.setattr(validation, "marginal_prob", perturbed_prob)
        assert marginalization_grid_deviation(10**4, seed=12345) == np.inf
        assert exact.count(True) == 5

    def test_grid_points_of_nearby_seeds_draw_independent_streams(self, monkeypatch):
        # each point's stream is the state its SeedSequence hands the generator;
        # seeds s and s + 6 once shared one (offsets 7 * 1.0 and 1 + int(7 * 0.25))
        oracle = validation.mc_marginalization_oracle
        streams = []

        def recording_oracle(beta, sigma2, x, n_draws, seed):
            if sigma2 > 0.0:
                streams.append(tuple(np.random.SeedSequence(seed).generate_state(4)))
            return oracle(beta, sigma2, x, n_draws, seed)

        monkeypatch.setattr(validation, "mc_marginalization_oracle", recording_oracle)
        for seed in (12345, 12351):
            marginalization_grid_deviation(10**4, seed=seed)
        assert len(streams) == 30
        assert len(set(streams)) == 30


class TestMlProbit:
    def test_intercept_only_closed_form(self):
        y = np.zeros(1000, dtype=np.int64)
        y[:200] = 1
        design = design_from(np.ones((1000, 1)), y=y, groups={})
        beta = ml_probit_fit(design)
        assert abs(beta[0] - ndtri(0.2)) < 1e-6

    def test_balanced_covariate_with_equal_rates_is_zero(self):
        # deterministic 2x2 layout: both covariate levels share a 20% rate
        x_col = np.repeat([0.0, 1.0], 100)
        y = np.zeros(200, dtype=np.int64)
        y[:20] = 1
        y[100:120] = 1
        design = design_from(np.column_stack([np.ones(200), x_col]), y=y)
        beta = ml_probit_fit(design)
        assert abs(beta[1]) < 1e-6
        assert abs(beta[0] - ndtri(0.2)) < 1e-6

    def test_consistency_at_scale(self):
        rng = np.random.default_rng(21)
        n = 100_000
        x = np.column_stack([np.ones(n), rng.standard_normal(n)])
        truth = np.array([-1.0, 0.5])
        y = (rng.random(n) < ndtr(x @ truth)).astype(np.int64)
        beta = ml_probit_fit(design_from(x, y=y))
        assert np.all(np.abs(beta - truth) < 0.02)

    def test_iteration_cap_raises_with_last_iterate(self):
        rng = np.random.default_rng(22)
        x = np.column_stack([np.ones(500), rng.standard_normal(500)])
        y = (rng.random(500) < ndtr(x @ np.array([-0.5, 0.3]))).astype(np.int64)
        with pytest.raises(NonConvergenceError) as err:
            ml_probit_fit(design_from(x, y=y), max_iter=1)
        assert err.value.last_iterate is not None
        assert np.all(np.isfinite(err.value.last_iterate))

    def test_separated_data_saturates_finitely(self):
        # a perfect 0/1 split has no MLE; the gradient vanishes at a
        # finite saturated iterate rather than looping forever
        x_col = np.repeat([0.0, 1.0], 30)
        y = np.repeat([0, 1], 30).astype(np.int64)
        design = design_from(np.column_stack([np.ones(60), x_col]), y=y)
        beta = ml_probit_fit(design)
        assert np.all(np.isfinite(beta))
        assert beta[1] > 5.0


def constant_draws(beta_row, sigma2, n):
    beta = np.tile(np.asarray(beta_row, dtype=float), (n, 1))
    return PosteriorDraws(survey_id="S", beta=beta, sigma2=np.full(n, float(sigma2)), column_groups={})


def random_draws(rng, center, spread, sigma2_mean, n):
    beta = center + rng.normal(scale=spread, size=(n, len(center)))
    sigma2 = rng.gamma(4.0, sigma2_mean / 4.0, size=n)
    return PosteriorDraws(survey_id="S", beta=beta, sigma2=sigma2, column_groups={})


class TestVarianceCollapse:
    def setup_method(self):
        rng = np.random.default_rng(30)
        self.rng = rng
        self.design = design_from(
            np.column_stack([np.ones(40), rng.normal(size=(40, 2))]),
            groups={"a": (1, 2), "b": (2, 3)},
        )

    def test_single_group_profile(self):
        rng = np.random.default_rng(31)
        design = design_from(np.ones((20, 1)), groups={})
        draws1 = random_draws(rng, np.array([-1.0]), 0.1, 0.2, 300)
        draws2 = random_draws(rng, np.array([-1.5]), 0.1, 0.2, 300)
        profile = variance_collapse(design, draws1, draws2)
        assert profile.order == ("intercept",)
        assert profile.partial_sum_variance.shape == (1,)
        np.testing.assert_allclose(
            profile.partial_sum_variance[-1], profile.beta_effect_variance, atol=1e-15
        )

    def test_degenerate_draws_all_zero(self):
        draws1 = constant_draws([-1.0, 0.2, -0.1], 0.3, 200)
        draws2 = constant_draws([-1.2, 0.1, 0.0], 0.2, 200)
        profile = variance_collapse(self.design, draws1, draws2)
        np.testing.assert_allclose(profile.partial_sum_variance, 0.0, atol=1e-30)
        assert profile.beta_effect_variance < 1e-30

    def test_endpoint_identity_for_every_permutation(self):
        import itertools

        rng = np.random.default_rng(32)
        draws1 = random_draws(rng, np.array([-1.0, 0.2, -0.1]), 0.08, 0.2, 250)
        draws2 = random_draws(rng, np.array([-1.4, 0.1, 0.1]), 0.08, 0.3, 250)
        names = ["intercept", "a", "b"]
        final_vars = []
        for order in itertools.permutations(names):
            profile = variance_collapse(self.design, draws1, draws2, list(order))
            assert (
                abs(profile.partial_sum_variance[-1] - profile.beta_effect_variance) < 1e-12
            )
            final_vars.append(profile.partial_sum_variance[-1])
        np.testing.assert_allclose(final_vars, final_vars[0], atol=1e-15)

    def test_correlation_matrix_shape_and_diagonal(self):
        rng = np.random.default_rng(33)
        draws1 = random_draws(rng, np.array([-1.0, 0.2, -0.1]), 0.05, 0.2, 200)
        draws2 = random_draws(rng, np.array([-1.4, 0.1, 0.1]), 0.05, 0.3, 200)
        profile = variance_collapse(self.design, draws1, draws2)
        assert profile.correlation.shape == (3, 3)
        np.testing.assert_allclose(np.diag(profile.correlation), 1.0)
        assert np.all(np.abs(profile.correlation) <= 1.0 + 1e-12)

    def test_profile_from_decomposition_matches_variance_collapse(self):
        rng = np.random.default_rng(34)
        design1 = design_from(
            np.column_stack([np.ones(30), rng.normal(size=(30, 2))]),
            groups={"a": (1, 2), "b": (2, 3)},
        )
        draws1 = random_draws(rng, np.array([-1.0, 0.2, -0.1]), 0.08, 0.2, 150)
        draws2 = random_draws(rng, np.array([-1.4, 0.1, 0.1]), 0.08, 0.3, 150)
        order = ["b", "intercept", "a"]
        summary = posterior_decompose(design1, self.design, draws1, draws2, years_between=14.0, order=order)
        derived = VarianceCollapseProfile.from_draws(summary.draws)
        direct = variance_collapse(self.design, draws1, draws2, order)
        assert derived.order == direct.order == tuple(order)
        np.testing.assert_allclose(derived.partial_sum_variance, direct.partial_sum_variance, rtol=0, atol=1e-12)
        assert abs(derived.beta_effect_variance - direct.beta_effect_variance) < 1e-12
        np.testing.assert_allclose(derived.correlation, direct.correlation, rtol=0, atol=1e-12)

    def test_unequal_draw_counts_rejected(self):
        draws1 = constant_draws([-1.0, 0.2, -0.1], 0.3, 200)
        draws2 = constant_draws([-1.2, 0.1, 0.0], 0.2, 201)
        with pytest.raises(ConfigError):
            variance_collapse(self.design, draws1, draws2)


def test_profile_invariant_enforced():
    with pytest.raises(ValueError):
        VarianceCollapseProfile(
            order=("intercept",),
            partial_sum_variance=np.array([1.0]),
            beta_effect_variance=2.0,
            correlation=np.eye(1),
        )
