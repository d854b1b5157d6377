import numpy as np
import pytest
from scipy.special import ndtri

from mortdecomp.marginal import (
    MortalitySummary,
    marginal_prob,
    marginalize,
    mean_mortality,
)
from mortdecomp.sampler import PosteriorDraws
from mortdecomp.validation import mc_marginalization_oracle


def simple_design(x):
    from mortdecomp.dataset import DesignMatrix

    x = np.asarray(x, dtype=float)
    groups = {f"g{j}": (j, j + 1) for j in range(1, x.shape[1])}
    return DesignMatrix(
        x=x.copy(),
        outcome=np.zeros(x.shape[0], dtype=np.int64),
        cluster_index=np.zeros(x.shape[0], dtype=np.int64),
        column_groups=groups,
        n_clusters=1,
    )


def summarized(monkeypatch):
    """The per-draw rates each ``MortalitySummary.from_draws`` call is given, in call order."""
    seen, from_draws = [], MortalitySummary.from_draws
    monkeypatch.setattr(MortalitySummary, "from_draws", lambda rates: seen.append(rates) or from_draws(rates))
    return seen


class TestMarginalize:
    def test_zero_variance_is_identity(self):
        beta = np.array([0.7, -0.2, 1.5])
        out = marginalize(beta, 0.0)
        np.testing.assert_array_equal(out, beta)

    def test_divide_by_root_one_plus_sigma2(self):
        out = marginalize(np.array([1.0]), 3.0)
        np.testing.assert_allclose(out, [0.5])

    def test_agrees_with_monte_carlo_integration(self):
        beta = np.array([0.7, -0.2])
        x = np.array([1.0, 1.0])
        tilde = marginalize(beta, 1.0)
        estimate, se = mc_marginalization_oracle(beta, 1.0, x, n_draws=10**6, seed=42)
        assert abs(marginal_prob(x, tilde) - estimate) < 3 * se

    def test_maintext_multiply_convention_is_exposed_but_wrong(self):
        # scaling by sqrt(1 + sigma2) instead of dividing misses the integral; the oracle sees it
        beta = np.array([0.7, -0.2])
        x = np.array([1.0, 1.0])
        flipped = beta * np.sqrt(2.0)
        estimate, se = mc_marginalization_oracle(beta, 1.0, x, n_draws=10**6, seed=42)
        assert abs(marginal_prob(x, flipped) - estimate) > 3 * se

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            marginalize(np.array([1.0]), -0.5)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        beta = rng.normal(size=(20, 3))
        sigma2 = rng.gamma(1.0, 1.0, size=20)
        out = marginalize(beta, sigma2)
        assert out.shape == (20, 3)
        for i in range(20):
            np.testing.assert_array_equal(out[i], marginalize(beta[i], sigma2[i]))

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            beta = rng.normal(size=4)
            x = rng.normal(size=4)
            s2 = float(rng.gamma(1.0, 2.0)) + 1e-6
            eta = x @ beta
            if eta == 0:
                continue
            eta_t = x @ marginalize(beta, s2)
            assert abs(eta_t) < abs(eta)
            assert abs(marginal_prob(x, marginalize(beta, s2)) - 0.5) < abs(
                marginal_prob(x, beta) - 0.5
            )


class TestMarginalProb:
    def test_center(self):
        assert marginal_prob(np.array([1.0, 2.0]), np.array([2.0, -1.0])) == 0.5

    def test_tenth_percentile(self):
        assert abs(marginal_prob(np.array([1.0]), np.array([-1.2816])) - 0.1000) <= 1e-4

    def test_saturates_without_overflow(self):
        assert marginal_prob(np.array([1.0]), np.array([38.0])) == 1.0
        assert marginal_prob(np.array([1.0]), np.array([-38.0])) == 0.0

    def test_matrix_argument(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        out = marginal_prob(x, np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [0.5, 0.8413447460685429], atol=1e-12)


class TestMeanMortality:
    @staticmethod
    def constant_draws(beta_row, sigma2=0.0, n=200):
        beta = np.tile(np.asarray(beta_row, dtype=float), (n, 1))
        return PosteriorDraws(
            survey_id="S1", beta=beta, sigma2=np.full(n, float(sigma2)), column_groups={}
        )

    def test_paper_style_rate_per_1000(self):
        design = simple_design(np.ones((10, 1)))
        draws = self.constant_draws([ndtri(0.106)])
        out = mean_mortality(design, draws)
        np.testing.assert_allclose(out.mean, 106.0, atol=1e-9)
        np.testing.assert_allclose([out.lower, out.upper], [106.0, 106.0], atol=1e-9)

    def test_zero_coefficients_give_500(self):
        design = simple_design(np.column_stack([np.ones(7), np.linspace(-2, 2, 7)]))
        draws = self.constant_draws([0.0, 0.0])
        out = mean_mortality(design, draws)
        np.testing.assert_allclose(out.mean, 500.0, atol=1e-9)

    def test_matches_row_by_row_oracle(self, monkeypatch):
        from scipy.special import ndtr

        rng = np.random.default_rng(9)
        x = np.column_stack([np.ones(13), rng.normal(size=(13, 2))])
        design = simple_design(x)
        beta = rng.normal(size=(37, 3))
        sigma2 = rng.gamma(1.0, 0.5, size=37)
        draws = PosteriorDraws(survey_id="S1", beta=beta, sigma2=sigma2, column_groups={})
        rates = summarized(monkeypatch)
        out = mean_mortality(design, draws)
        # independent per-row, per-draw re-summation
        want = np.empty(37)
        for ell in range(37):
            scaled = beta[ell] / np.sqrt(1 + sigma2[ell])
            acc = 0.0
            for i in range(13):
                acc += ndtr(float(x[i] @ scaled))
            want[ell] = acc / 13
        np.testing.assert_allclose(rates[0], want, atol=1e-12)
        np.testing.assert_allclose(out.mean, want.mean() * 1000, atol=1e-9)

    def test_k_plus_three_link_passes_per_draw(self, monkeypatch):
        # 500 distinct rows (no collapse) and 32 draws: two blocks of 16; the kernel runs
        # rate1, the crossed mean, one pass per group (the intercept and two) and rate2
        import mortdecomp.decompose as decompose_module
        from scipy.special import ndtr

        rng = np.random.default_rng(10)
        design = simple_design(np.column_stack([np.ones(500), rng.normal(size=(500, 2))]))
        draws = PosteriorDraws(
            survey_id="S1", beta=rng.normal(-1.0, 0.3, size=(32, 3)), sigma2=rng.gamma(1.0, 0.5, size=32),
            column_groups={},
        )
        evaluated = []

        def counting_ndtr(v, out=None):
            evaluated.append(np.size(v))
            return ndtr(v, out=out)

        monkeypatch.setattr(decompose_module, "ndtr", counting_ndtr)
        rates = summarized(monkeypatch)
        mean_mortality(design, draws)
        k = 1 + len(design.column_groups)
        assert sum(evaluated) == (500 + (k + 2) * 500) * 32
        tilde = marginalize(draws.beta, draws.sigma2)
        np.testing.assert_allclose(rates[0], ndtr(design.x @ tilde.T).mean(axis=0), rtol=0, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        design = simple_design(np.ones((5, 1)))
        draws = self.constant_draws([0.0, 1.0])
        with pytest.raises(ValueError):
            mean_mortality(design, draws)


def test_marginalize_requires_finite():
    with pytest.raises(ValueError, match="finite"):
        marginalize(np.array([np.inf]), 0.0)
