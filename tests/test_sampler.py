import warnings

import numpy as np
import pytest

from mortdecomp.dataset import (
    CenteringConstants,
    CovariateSchema,
    CovariateSpec,
    DesignMatrix,
    SurveySample,
    build_design,
    compute_centering,
)
from mortdecomp.errors import ConfigError, SingularDesignError
from mortdecomp.sampler import (
    ChainQualityWarning,
    GibbsChain,
    McmcConfig,
    PosteriorDraws,
    PriorSpec,
    diagnostics,
    fit,
    load_draws,
    sample_truncated_normal,
    save_draws,
)
from mortdecomp.simulate import SyntheticConfig, SyntheticSurveySpec, synthesize


def sex_dgp(beta, sigma2, n_clusters, births):
    schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
    spec = dict(
        beta=beta,
        sigma2=sigma2,
        n_clusters=n_clusters,
        births_per_cluster=births,
        survey_year=2000,
        covariates={"sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.5, 0.5]}},
    )
    return SyntheticConfig(
        schema=schema,
        s1=SyntheticSurveySpec(**spec),
        s2=SyntheticSurveySpec(**{**spec, "survey_year": 2014}),
    )


def design_for(dgp, seed):
    s1, _ = synthesize(dgp, seed=seed)
    schema = dgp.schema
    return build_design(s1, schema, compute_centering(s1, schema), s1)


class TestTruncatedNormal:
    def test_support_sides(self):
        rng = np.random.default_rng(0)
        pos = sample_truncated_normal(np.full(20_000, 0.3), 1.0, "left_of_zero", rng)
        assert np.all(pos > 0)
        neg = sample_truncated_normal(np.full(20_000, 0.3), 1.0, "right_of_zero", rng)
        assert np.all(neg < 0)

    def test_half_normal_mean(self):
        rng = np.random.default_rng(2)
        draws = sample_truncated_normal(np.zeros(10**6), 1.0, "left_of_zero", rng)
        assert abs(draws.mean() - np.sqrt(2 / np.pi)) < 0.003

    def test_extreme_tail_is_finite_and_fast(self):
        rng = np.random.default_rng(1)
        v = sample_truncated_normal(-40.0, 1.0, "left_of_zero", rng)
        assert np.isfinite(v) and v > 0
        w = sample_truncated_normal(40.0, 1.0, "right_of_zero", rng)
        assert np.isfinite(w) and w < 0

    def test_scalar_round_trip_and_validation(self):
        rng = np.random.default_rng(3)
        v = sample_truncated_normal(1.0, 2.0, "left_of_zero", rng)
        assert isinstance(v, float)
        with pytest.raises(ValueError):
            sample_truncated_normal(0.0, 0.0, "left_of_zero", rng)
        with pytest.raises(ValueError):
            sample_truncated_normal(0.0, 1.0, "above", rng)

    def test_moments_against_closed_form(self):
        # For support (0, inf), E[W] = m + s * phi(a)/(1 - Phi(a)) with a = -m/s.
        from scipy.stats import norm

        rng = np.random.default_rng(7)
        for m in (-2.0, -0.5, 1.5):
            draws = sample_truncated_normal(np.full(400_000, m), 1.0, "left_of_zero", rng)
            a = -m
            want = m + norm.pdf(a) / norm.sf(a)
            se = draws.std(ddof=1) / np.sqrt(draws.size)
            assert abs(draws.mean() - want) < 4 * se


class TestFit:
    def test_recovers_known_coefficients(self):
        dgp = sex_dgp((-1.5, 0.5), 0.25, n_clusters=200, births=25)
        design = design_for(dgp, seed=202)
        config = McmcConfig(total=1000 + 1250 * 4, burnin=1000, thin=4, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ChainQualityWarning)
            draws = fit(design, PriorSpec(), config)
        assert draws.n_draws == 1250
        err = np.abs(draws.beta.mean(axis=0) - np.array([-1.5, 0.5]))
        assert np.all(err < 0.1)
        assert abs(draws.sigma2.mean() - 0.25) < 0.15

    def test_all_zero_outcomes_stay_finite(self):
        rng = np.random.default_rng(0)
        sample = SurveySample.from_columns(
            "S1",
            2000,
            outcome=np.zeros(40, dtype=np.int64),
            cluster_id=[f"c{j}" for j in range(4) for _ in range(10)],
            columns={"sex": ["male" if rng.random() < 0.5 else "female" for _ in range(40)]},
        )
        schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
        design = build_design(sample, schema, CenteringConstants.zeros(schema), sample)
        config = McmcConfig(total=3000, burnin=500, thin=2, seed=3, allow_short=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ChainQualityWarning)
            draws = fit(design, PriorSpec(), config)
        assert np.all(np.isfinite(draws.beta))
        assert np.all(np.isfinite(draws.sigma2))
        assert draws.beta[:, 0].max() < 0  # no mass at plausible death rates

    def test_same_seed_identical_draws(self):
        dgp = sex_dgp((-1.0, 0.3), 0.1, n_clusters=20, births=10)
        design = design_for(dgp, seed=5)
        config = McmcConfig(total=400, burnin=100, thin=1, seed=11, allow_short=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ChainQualityWarning)
            a = fit(design, PriorSpec(), config)
            b = fit(design, PriorSpec(), config)
            c = fit(design, PriorSpec(), McmcConfig(total=400, burnin=100, thin=1, seed=12, allow_short=True))
        assert a.beta.tobytes() == b.beta.tobytes()
        assert a.sigma2.tobytes() == b.sigma2.tobytes()
        assert a.beta.tobytes() != c.beta.tobytes()

    def test_single_cluster_rejected(self):
        schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
        sample = SurveySample.from_columns(
            "S1",
            2000,
            outcome=[i % 2 for i in range(10)],
            cluster_id=["only"] * 10,
            columns={"sex": ["female", "male"] * 5},
        )
        design = build_design(sample, schema, CenteringConstants.zeros(schema), sample)
        with pytest.raises(ConfigError, match="clusters"):
            fit(design, PriorSpec(), McmcConfig(total=200, burnin=10, thin=1, allow_short=True))

    def test_collinear_design_names_smallest_eigenvalue(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=40)
        x = np.column_stack([np.ones(40), col, col])
        design = DesignMatrix(
            x=x,
            outcome=(rng.random(40) < 0.3).astype(np.int64),
            cluster_index=np.repeat(np.arange(4), 10),
            column_groups={"a": (1, 2), "b": (2, 3)},
            n_clusters=4,
        )
        with pytest.raises(SingularDesignError) as err:
            fit(design, PriorSpec(), McmcConfig(total=200, burnin=10, thin=1, allow_short=True))
        assert err.value.min_eigenvalue < 1e-8

    def test_warns_when_short_of_target(self):
        dgp = sex_dgp((-1.0, 0.3), 0.1, n_clusters=10, births=10)
        design = design_for(dgp, seed=5)
        config = McmcConfig(total=300, burnin=100, thin=1, seed=1, allow_short=True)
        with pytest.warns(ChainQualityWarning):
            fit(design, PriorSpec(), config)

    @pytest.mark.parametrize("thin", [None, 1])
    def test_continued_chain_equals_fresh_extended_chain(self, thin):
        # extended() resets an explicit thin to derived thinning; the
        # continuation must still match a fresh chain of the extended length
        dgp = sex_dgp((-1.0, 0.3), 0.2, n_clusters=20, births=10)
        design = design_for(dgp, seed=5)
        config = McmcConfig(total=400, burnin=100, thin=thin, target_retained=100, seed=7)
        chain = GibbsChain(design, PriorSpec(), config)
        first = fit(design, PriorSpec(), config, chain)
        assert chain.sweeps == 400
        resumed = fit(design, PriorSpec(), config.extended(), chain)
        assert chain.sweeps == config.extended().total == 700
        fresh_first = fit(design, PriorSpec(), config)
        rerun = fit(design, PriorSpec(), config.extended())
        assert np.array_equal(first.beta, fresh_first.beta)
        assert np.array_equal(first.sigma2, fresh_first.sigma2)
        assert np.array_equal(resumed.beta, rerun.beta)
        assert np.array_equal(resumed.sigma2, rerun.sigma2)
        assert resumed.n_draws == config.extended().retained

    def test_chain_diagnostics_are_those_of_the_returned_draws(self):
        dgp = sex_dgp((-1.0, 0.3), 0.2, n_clusters=20, births=10)
        design = design_for(dgp, seed=5)
        config = McmcConfig(total=400, burnin=100, thin=1, target_retained=100, seed=7)
        chain = GibbsChain(design, PriorSpec(), config)
        draws = fit(design, PriorSpec(), config, chain)
        assert chain.diagnostics.ess == diagnostics(draws).ess

    def test_chain_rejects_a_different_seed_or_burnin(self):
        dgp = sex_dgp((-1.0, 0.3), 0.2, n_clusters=20, births=10)
        design = design_for(dgp, seed=5)
        config = McmcConfig(total=400, burnin=100, thin=1, target_retained=100, seed=7)
        chain = GibbsChain(design, PriorSpec(), config)
        for other in (
            McmcConfig(total=400, burnin=100, thin=1, target_retained=100, seed=8),
            McmcConfig(total=400, burnin=50, thin=1, target_retained=100, seed=7),
        ):
            with pytest.raises(ValueError, match="different"):
                fit(design, PriorSpec(), other, chain)


class TestMcmcConfig:
    def test_auto_thin_hits_target(self):
        cfg = McmcConfig(total=15000, burnin=5000, thin=None, target_retained=1250)
        assert cfg.effective_thin == 8
        assert cfg.retained == 1250

    def test_short_chain_rejected_without_override(self):
        with pytest.raises(ConfigError):
            McmcConfig(total=600, burnin=500, thin=1)
        cfg = McmcConfig(total=600, burnin=500, thin=1, allow_short=True)
        assert cfg.retained == 100

    def test_extension_doubles_sampling_phase(self):
        cfg = McmcConfig(total=15000, burnin=5000)
        ext = cfg.extended()
        assert ext.burnin == 5000 and ext.total == 25000
        assert ext.retained >= cfg.target_retained

    def test_validation(self):
        with pytest.raises(ConfigError):
            McmcConfig(total=100, burnin=100)
        with pytest.raises(ConfigError):
            McmcConfig(total=100, burnin=10, thin=0)
        with pytest.raises(ConfigError):
            PriorSpec(beta_sd=0.0)


class TestDiagnostics:
    @staticmethod
    def draws_from_trace(trace):
        trace = np.asarray(trace, dtype=float)
        return PosteriorDraws(
            survey_id="S1",
            beta=trace[:, None].copy(),
            sigma2=np.ones(trace.size),
            column_groups={},
        )

    def test_white_noise_ess_near_length(self):
        rng = np.random.default_rng(13)
        diag = diagnostics(self.draws_from_trace(rng.standard_normal(1000)))
        assert 800 <= diag.ess["beta_0"] <= 1200
        # constant sigma2 trace is flagged degenerate at full length
        assert "sigma2" in diag.degenerate
        assert diag.ess["sigma2"] == 1000

    def test_ar1_ess_matches_theory(self):
        rng = np.random.default_rng(12)
        n, phi = 5000, 0.9
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for i in range(1, n):
            x[i] = phi * x[i - 1] + rng.standard_normal() * np.sqrt(1 - phi**2)
        diag = diagnostics(self.draws_from_trace(x))
        want = n * (1 - phi) / (1 + phi)  # ~263
        assert abs(diag.ess["beta_0"] - want) < 0.3 * want

    def test_autocorrelations_bounded_and_accurate(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2000)
        diag = diagnostics(self.draws_from_trace(x))
        acf = diag.autocorrelations["beta_0"]
        assert acf.shape == (50,)
        assert np.all(np.abs(acf) <= 1.0)
        assert np.all(np.abs(acf) < 0.1)  # white noise

    def test_acceptance_rate_is_one(self):
        rng = np.random.default_rng(3)
        diag = diagnostics(self.draws_from_trace(rng.standard_normal(200)))
        assert diag.acceptance_rate == 1.0

    def test_requires_100_draws(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            diagnostics(self.draws_from_trace(rng.standard_normal(99)))


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(6)
        draws = PosteriorDraws(
            survey_id="S2",
            beta=rng.standard_normal((50, 3)),
            sigma2=rng.gamma(2.0, 0.1, size=50),
            column_groups={"sex": (1, 2), "age": (2, 3)},
        )
        csv_path = tmp_path / "draws.csv"
        sidecar = tmp_path / "draws.json"
        save_draws(draws, csv_path, sidecar, config_echo={"seed": 6})
        loaded = load_draws(csv_path, sidecar)
        np.testing.assert_array_equal(loaded.beta, draws.beta)
        np.testing.assert_array_equal(loaded.sigma2, draws.sigma2)
        assert loaded.survey_id == "S2"
        assert loaded.column_groups == draws.column_groups

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            load_draws(bad)


def test_posterior_draws_invariants():
    with pytest.raises(ValueError):
        PosteriorDraws(survey_id="S1", beta=np.zeros((5, 2)), sigma2=-np.ones(5))
    with pytest.raises(ValueError):
        PosteriorDraws(survey_id="S1", beta=np.full((5, 2), np.nan), sigma2=np.ones(5))
