import json
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

import mortdecomp.sampler as sampler_module
from mortdecomp.dataset import (
    CovariateSchema,
    CovariateSpec,
    DesignMatrix,
    SurveySample,
    build_design,
    compute_centering,
)
from mortdecomp.errors import ConfigError, MortdecompError, SingularDesignError
from mortdecomp.sampler import (
    _TAIL_SWITCH,
    ChainQualityWarning,
    GibbsChain,
    McmcConfig,
    PosteriorDraws,
    PriorSpec,
    _LatentLayout,
    _latent_draw,
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
    return build_design(s1, schema, compute_centering(s1, schema), s1.columns)


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


def oracle_std_normal_above(a, rng):
    """The earlier per-call kernel: inverse CDF on moderate elements, then far-tail rejection."""
    out = np.empty_like(a)
    tail = ndtr(-a)
    extreme = tail < _TAIL_SWITCH
    moderate = ~extreme
    if np.any(moderate):
        am = a[moderate]
        u = rng.random(am.size)
        low = am <= 0.0
        x = np.empty(am.size)
        if np.any(low):
            fa = ndtr(am[low])
            x[low] = ndtri(fa + u[low] * (1.0 - fa))
        high = ~low
        if np.any(high):
            x[high] = -ndtri((1.0 - u[high]) * tail[moderate][high])
        out[moderate] = x
    if np.any(extreme):
        idx = np.flatnonzero(extreme)
        ae = a[idx]
        lam = 0.5 * (ae + np.sqrt(ae * ae + 4.0))
        pending = np.arange(idx.size)
        draws = np.empty(idx.size)
        while pending.size:
            prop = ae[pending] + rng.exponential(1.0, size=pending.size) / lam[pending]
            accept = rng.random(pending.size) < np.exp(-0.5 * (prop - lam[pending]) ** 2)
            draws[pending[accept]] = prop[accept]
            pending = pending[~accept]
        out[idx] = draws
    return out


def oracle_latent_draw(eta, y, rng):
    """The earlier sweep's latent step: one truncated-normal call for deaths, then one for survivors."""
    z = np.empty(eta.size)
    idx1 = y == 1
    idx0 = ~idx1
    sd = 1.0
    w = eta[idx1] + sd * oracle_std_normal_above(-eta[idx1] / sd, rng)
    z[idx1] = np.where(w <= 0.0, np.nextafter(0.0, 1.0), w)
    w = eta[idx0] - sd * oracle_std_normal_above(eta[idx0] / sd, rng)
    z[idx0] = np.where(w >= 0.0, np.nextafter(0.0, -1.0), w)
    return z


def oracle_chain(design, prior, config):
    """The earlier sweep, written out with the two-call latent draw: each retained sweep's (beta, sigma2)."""
    x, y, cl, n_clusters = design.x, design.outcome, design.cluster_index, design.n_clusters
    p = x.shape[1]
    cov = np.linalg.inv(x.T @ x + np.eye(p) / prior.beta_sd**2)
    cov_chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    beta, gamma = np.zeros(p), np.zeros(n_clusters)
    sigma2 = prior.sigma2_scale / (prior.sigma2_shape + 1.0)
    counts = np.bincount(cl, minlength=n_clusters).astype(float)
    kept = []
    for it in range(1, config.total + 1):
        z = oracle_latent_draw(x @ beta + gamma[cl], y, rng)
        beta = cov @ (x.T @ (z - gamma[cl])) + cov_chol @ rng.standard_normal(p)
        prec = counts + 1.0 / sigma2
        gamma = np.bincount(cl, weights=z - x @ beta, minlength=n_clusters) / prec
        gamma += rng.standard_normal(n_clusters) / np.sqrt(prec)
        shape = prior.sigma2_shape + 0.5 * n_clusters
        sigma2 = 1.0 / rng.gamma(shape, 1.0 / (prior.sigma2_scale + 0.5 * (gamma @ gamma)))
        if it > config.burnin:
            kept.append([*beta, sigma2])
    return np.array(kept)


class TestSignedLatentDraw:
    """The one-pass latent draw equals the earlier two-call draw bit for bit."""

    @staticmethod
    def both(eta, y, seed):
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        old = oracle_latent_draw(eta, y, old_rng)
        new = _latent_draw(eta, _LatentLayout(y), new_rng)
        assert np.array_equal(new, old)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        # the stream goes on identically after the draw
        assert np.array_equal(new_rng.random(3), old_rng.random(3))
        return new

    @pytest.mark.parametrize("death_rate", [0.0, 0.05, 0.5, 1.0], ids=["no_deaths", "rare", "half", "all_deaths"])
    def test_mixed_and_one_sided_outcomes(self, death_rate):
        rng = np.random.default_rng(11)
        for seed in range(20):
            eta = rng.normal(-1.5, 1.5, size=500)
            y = (rng.random(500) < death_rate).astype(np.int64)
            z = self.both(eta, y, seed)
            assert np.all(z[y == 1] > 0) and np.all(z[y == 0] < 0)

    @pytest.mark.parametrize("far", [40.0, 7.0])
    def test_far_tail_means_on_both_sides(self, far):
        rng = np.random.default_rng(12)
        for seed in range(200):
            eta = rng.normal(0.0, 1.0, size=60)
            pick = rng.random(60)
            eta[pick < 0.15] = -far  # deaths here need the far tail
            eta[pick > 0.85] = far  # and survivors here
            y = (rng.random(60) < 0.5).astype(np.int64)
            self.both(eta, y, seed)

    def test_groups_made_only_of_far_tails(self):
        y = np.array([1, 1, 0, 0, 1, 0])
        self.both(np.array([-40.0, -7.0, 0.3, 40.0, -9.0, 7.0]), y, 5)  # every death in the far tail
        self.both(np.array([0.2, -1.0, 7.0, 40.0, 0.0, 9.0]), y, 6)  # every survivor in the far tail
        self.both(np.array([-40.0, -7.0, 7.0, 40.0, -9.0, 9.0]), y, 7)  # every element

    def test_far_tail_runs_only_for_a_group_that_reaches_it(self, monkeypatch):
        sizes = []
        real_far_tail = sampler_module._far_tail

        def recording_far_tail(a, rng):
            sizes.append(a.size)
            return real_far_tail(a, rng)

        monkeypatch.setattr(sampler_module, "_far_tail", recording_far_tail)
        y = np.array([1, 1, 0, 0, 1, 0])
        self.both(np.array([-40.0, 0.5, 0.3, -0.2, -9.0, 1.0]), y, 8)  # two deaths in the far tail
        self.both(np.array([0.2, -1.0, 0.3, -0.2, 0.0, 1.0]), y, 9)  # none at all
        assert sizes == [2]

    def test_chain_equals_the_two_call_sweep(self):
        design = design_for(sex_dgp((-1.5, 0.5), 0.25, n_clusters=30, births=20), seed=21)
        prior = PriorSpec()
        config = McmcConfig(total=400, burnin=100, thin=1, target_retained=300, seed=4)
        kept = oracle_chain(design, prior, config)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ChainQualityWarning)
            draws = fit(design, prior, config)
        assert np.array_equal(draws.beta, kept[:, :-1])
        assert np.array_equal(draws.sigma2, kept[:, -1])

    def test_chain_with_far_tail_sweeps_equals_the_two_call_sweep(self, monkeypatch):
        # A probit chain's latent draws reach the 1e-10 tail only on data
        # a fitted model all but rules out, so the switch is raised to the
        # 2.3% tail: the chain then mixes sweeps that take the far-tail
        # rejection sampler with sweeps that fill every uniform in one call.
        monkeypatch.setattr(sampler_module, "_TAIL_SWITCH", ndtr(-2.0))
        monkeypatch.setitem(globals(), "_TAIL_SWITCH", ndtr(-2.0))  # the oracle's switch
        far_sweeps = []
        latent_draw = sampler_module._latent_draw

        def recording_latent_draw(eta, layout, rng):
            z = latent_draw(eta, layout, rng)
            far_sweeps.append(bool(layout.far.any()))
            return z

        monkeypatch.setattr(sampler_module, "_latent_draw", recording_latent_draw)
        design = design_for(sex_dgp((-1.5, 0.5), 0.25, n_clusters=10, births=20), seed=21)
        prior = PriorSpec()
        config = McmcConfig(total=400, burnin=100, thin=1, target_retained=300, seed=4)
        kept = oracle_chain(design, prior, config)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ChainQualityWarning)
            draws = fit(design, prior, config)
        assert len(far_sweeps) == config.total
        assert 10 <= sum(far_sweeps) <= config.total - 10
        assert np.array_equal(draws.beta, kept[:, :-1])
        assert np.array_equal(draws.sigma2, kept[:, -1])

    @pytest.mark.parametrize("mean", [-40.0, -7.0, 0.0, 0.4, 7.0, 40.0])
    def test_single_group_kernel_equals_the_earlier_kernel(self, mean):
        a = np.random.default_rng(13).normal(mean, 1.0, size=300)
        old_rng, new_rng = np.random.default_rng(3), np.random.default_rng(3)
        w = _latent_draw(-a, _LatentLayout(np.ones(a.size)), new_rng)
        assert np.array_equal(w, np.maximum(oracle_std_normal_above(a, old_rng) - a, np.nextafter(0.0, 1.0)))
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    @pytest.mark.parametrize("side", ["left_of_zero", "right_of_zero"])
    @pytest.mark.parametrize("mean", [-40.0, -7.0, -1.0, 0.0, 0.4, 7.0, 40.0])
    def test_unit_sd_wrapper_equals_the_earlier_route(self, mean, side):
        # at sd = 1 the public draw is the earlier kernel's, shifted and clamped, bit for bit
        means = np.random.default_rng(14).normal(mean, 1.0, size=300)
        old_rng, new_rng = np.random.default_rng(4), np.random.default_rng(4)
        w = sample_truncated_normal(means, 1.0, side, new_rng)
        assert np.array_equal(w, oracle_latent_draw(means, np.full(means.size, side == "left_of_zero"), old_rng))
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_a_clamped_draw_stays_on_its_side_after_scaling(self):
        # a draw clamped to the smallest positive double in standard units
        # rounds to 0 when scaled by sd < 1; the public draw stays on its side
        rng = np.random.default_rng(15)
        assert sample_truncated_normal(-1e20, 0.5, "left_of_zero", rng) > 0.0
        assert sample_truncated_normal(1e20, 0.5, "right_of_zero", rng) < 0.0
        w = sample_truncated_normal(np.full(5, -1e20), 0.5, "left_of_zero", rng)
        assert np.all(w == np.nextafter(0.0, 1.0))


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
            outcome=np.zeros(40, dtype=np.int64),
            cluster_id=[f"c{j}" for j in range(4) for _ in range(10)],
            columns={"sex": ["male" if rng.random() < 0.5 else "female" for _ in range(40)]},
        )
        schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
        design = build_design(sample, schema, {}, sample.columns)
        config = McmcConfig(total=3000, burnin=500, thin=2, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ChainQualityWarning)
            draws = fit(design, PriorSpec(), config)
        assert np.all(np.isfinite(draws.beta))
        assert np.all(np.isfinite(draws.sigma2))
        assert draws.beta[:, 0].max() < 0  # no mass at plausible death rates

    def test_same_seed_identical_draws(self):
        dgp = sex_dgp((-1.0, 0.3), 0.1, n_clusters=20, births=10)
        design = design_for(dgp, seed=5)
        config = McmcConfig(total=400, burnin=100, thin=1, target_retained=300, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ChainQualityWarning)
            a = fit(design, PriorSpec(), config)
            b = fit(design, PriorSpec(), config)
            c = fit(design, PriorSpec(), McmcConfig(total=400, burnin=100, thin=1, target_retained=300, seed=12))
        assert a.beta.tobytes() == b.beta.tobytes()
        assert a.sigma2.tobytes() == b.sigma2.tobytes()
        assert a.beta.tobytes() != c.beta.tobytes()

    def test_single_cluster_rejected(self):
        schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
        sample = SurveySample.from_columns(
            "S1",
            outcome=[i % 2 for i in range(10)],
            cluster_id=["only"] * 10,
            columns={"sex": ["female", "male"] * 5},
        )
        design = build_design(sample, schema, {}, sample.columns)
        with pytest.raises(ConfigError, match="clusters"):
            fit(design, PriorSpec(), McmcConfig(total=200, burnin=10, thin=1, target_retained=190))

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
            fit(design, PriorSpec(), McmcConfig(total=200, burnin=10, thin=1, target_retained=190))
        assert err.value.min_eigenvalue < 1e-8

    def test_warns_when_short_of_target(self):
        dgp = sex_dgp((-1.0, 0.3), 0.1, n_clusters=10, births=10)
        design = design_for(dgp, seed=5)
        config = McmcConfig(total=300, burnin=100, thin=1, target_retained=200, seed=1)
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
        assert set(diag.lag1) == {"beta_0", "sigma2"}
        xc = x - x.mean()
        assert diag.lag1["beta_0"] == pytest.approx((xc[:-1] @ xc[1:]) / (xc @ xc), abs=1e-12)
        assert abs(diag.lag1["beta_0"]) < 0.1  # white noise
        assert diag.lag1["sigma2"] == 0.0  # a constant trace

    def test_requires_100_draws(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            diagnostics(self.draws_from_trace(rng.standard_normal(99)))


class TestSerialization:
    @staticmethod
    def write_sidecar(csv_path, n_draws, n_coefficients=1):
        """Write beside a hand-written draws CSV the sidecar that save_draws would write for it; return its path."""
        sidecar = csv_path.with_suffix(".json")
        meta = {"survey_id": "S1", "column_groups": {}, "n_draws": n_draws, "n_coefficients": n_coefficients}
        sidecar.write_text(json.dumps({**meta, "config": {}}))
        return sidecar

    def test_round_trip_is_lossless(self, tmp_path, monkeypatch):
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
        # one block or blocks of 7 draws: the bytes of repr(float(value)) written a row at a time
        want = "beta_0,beta_1,beta_2,sigma2\r\n" + "".join(
            ",".join(repr(float(v)) for v in (*b, s2)) + "\r\n" for b, s2 in zip(draws.beta, draws.sigma2)
        )
        monkeypatch.setattr(sampler_module, "_WRITE_CELLS", 28)  # 4 columns a draw
        save_draws(draws, tmp_path / "blocks.csv", tmp_path / "blocks.json")
        assert csv_path.read_bytes() == (tmp_path / "blocks.csv").read_bytes() == want.encode()

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        sidecar = self.write_sidecar(bad, 1)
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            load_draws(bad, sidecar)
        bad.write_text("\nbeta_0,sigma2\n1,2\n")  # a blank first line is no header
        with pytest.raises(ConfigError, match="not a draws file"):
            load_draws(bad, sidecar)
        bad.write_text("beta_0,sigma2\n1," + "2" * 200_000 + "\n")  # past the csv module's field limit
        with pytest.raises(ConfigError, match="line 2: field larger than field limit"):
            load_draws(bad, sidecar)

    def test_blank_lines_below_the_header_are_skipped(self, tmp_path):
        # as ingest_csv skips them; an error still names the line of the file it is on
        path = tmp_path / "draws.csv"
        sidecar = self.write_sidecar(path, 2)
        path.write_text("beta_0,sigma2\n0.5,1.0\n-0.5,2.0\n")
        want = load_draws(path, sidecar)
        for text in ("beta_0,sigma2\n0.5,1.0\n-0.5,2.0\n\n", "beta_0,sigma2\n0.5,1.0\n\n-0.5,2.0\n"):
            path.write_text(text)
            got = load_draws(path, sidecar)
            np.testing.assert_array_equal(got.beta, want.beta)
            np.testing.assert_array_equal(got.sigma2, want.sigma2)
        for row, words in (("-0.5,abc", "non-numeric cell"), ("nan,2.0", "non-finite value beta_0=nan"),
                           ("-0.5,-2.0", "negative variance sigma2=-2.0"), ("-0.5", "1 cells under a 2-column header")):
            path.write_text(f"beta_0,sigma2\n\n0.5,1.0\n\n{row}\n")
            with pytest.raises(ConfigError, match=f"line 5: {re.escape(words)}"):
                load_draws(path, sidecar)

    @pytest.mark.parametrize(
        "rows, words",
        [
            ("nan,0.2\nabc,0.2\n", "line 3: non-finite value beta_0=nan"),
            ("0.5,-0.2\n1,0.2,3\n", "line 3: negative variance sigma2=-0.2"),
            ("0.5,abc\n0.5,-0.2\n", "line 3: non-numeric cell"),
            ("0.5,inf\n0.5,-0.2\n", "line 3: non-finite value sigma2=inf"),
        ],
        ids=["non_finite_before_non_numeric", "negative_before_long_row", "non_numeric_first",
             "non_finite_sigma2_first"],
    )
    def test_the_first_bad_line_is_named(self, tmp_path, rows, words):
        # as ingest_csv names the first bad row, whatever fault a later row has
        path = tmp_path / "draws.csv"
        path.write_text(f"beta_0,sigma2\n0.5,1.0\n{rows}")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}, {re.escape(words)}"):
            load_draws(path, self.write_sidecar(path, 3))

    def test_an_error_names_the_line_after_a_quoted_line_break(self, tmp_path):
        # the second draw's first cell spans lines 3 and 4, so the bad draw below it is on line 5
        path = tmp_path / "draws.csv"
        path.write_text('beta_0,sigma2\n0.5,1.0\n"0.25\n",1.0\n-0.5,abc\n')
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}, line 5: non-numeric cell"):
            load_draws(path, self.write_sidecar(path, 3))

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path):
        path, marked = tmp_path / "draws.csv", tmp_path / "marked.csv"
        path.write_text("beta_0,sigma2\n0.5,1.0\n-0.5,2.0\n")
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # as Excel's "CSV UTF-8" saves it
        want, got = (load_draws(p, self.write_sidecar(p, 2)) for p in (path, marked))
        np.testing.assert_array_equal(got.beta, want.beta)
        np.testing.assert_array_equal(got.sigma2, want.sigma2)

    @pytest.mark.parametrize(
        "header, column, got, want",
        [
            ("beta_1,beta_0,sigma2", 1, "beta_1", "beta_0"),
            ("beta_0,beta_0,sigma2", 2, "beta_0", "beta_1"),
            ("beta_0,wealth,sigma2", 2, "wealth", "beta_1"),
            ("beta_0,beta_1,sigma", 3, "sigma", "sigma2"),
        ],
        ids=["permuted", "repeated", "renamed", "no_sigma2"],
    )
    def test_header_must_name_the_coefficients_in_order(self, tmp_path, header, column, got, want):
        # columns are assigned by position, so a misnamed one would feed the wrong coefficient
        bad = tmp_path / "draws.csv"
        bad.write_text(f"{header}\n1.0,2.0,0.5\n")
        message = f"{bad}: not a draws file: header column {column} is {got!r}, expected {want!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_draws(bad, self.write_sidecar(bad, 1, 2))

    def test_sidecar_draw_count_must_match_the_csv(self, tmp_path):
        rng = np.random.default_rng(7)
        draws = PosteriorDraws(survey_id="S1", beta=rng.standard_normal((10, 2)), sigma2=np.ones(10), column_groups={})
        csv_path, sidecar = tmp_path / "draws.csv", tmp_path / "draws.json"
        save_draws(draws, csv_path, sidecar)
        csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:6]))  # header and 5 draws
        with pytest.raises(ConfigError, match=re.escape(f"{sidecar}: sidecar records 10 draws but {csv_path} has 5")):
            load_draws(csv_path, sidecar)
        meta = json.loads(sidecar.read_text())
        meta["n_draws"] = "10"
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match="n_draws must be a whole number"):
            load_draws(csv_path, sidecar)
        del meta["n_draws"]  # a sidecar without the count is refused
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match=re.escape(f"missing key(s): {sidecar}.n_draws")):
            load_draws(csv_path, sidecar)

    @pytest.mark.parametrize("count", ["1", True], ids=["string", "boolean"])
    def test_sidecar_coefficient_count_must_be_a_whole_number(self, tmp_path, count):
        draws = PosteriorDraws(survey_id="S1", beta=np.zeros((3, 1)), sigma2=np.ones(3), column_groups={})
        csv_path, sidecar = tmp_path / "draws.csv", tmp_path / "draws.json"
        save_draws(draws, csv_path, sidecar)
        meta = json.loads(sidecar.read_text())
        meta["n_coefficients"] = count  # the CSV has one coefficient, so neither may read as 1
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(sidecar))}: n_coefficients must be a whole number"):
            load_draws(csv_path, sidecar)


def test_posterior_draws_invariants():
    with pytest.raises(ValueError):
        PosteriorDraws(survey_id="S1", beta=np.zeros((5, 2)), sigma2=-np.ones(5), column_groups={})
    with pytest.raises(ValueError):
        PosteriorDraws(survey_id="S1", beta=np.full((5, 2), np.nan), sigma2=np.ones(5), column_groups={})


def test_posterior_draws_stay_read_only_across_a_pickle():
    # draws fitted in a survey process reach the parent through a pickle
    draws = PosteriorDraws(survey_id="S1", beta=np.zeros((5, 2)), sigma2=np.ones(5), column_groups={"a": (1, 2)})
    back = pickle.loads(pickle.dumps(draws))
    assert not back.beta.flags.writeable and not back.sigma2.flags.writeable
    assert np.array_equal(back.beta, draws.beta) and np.array_equal(back.sigma2, draws.sigma2)
    assert (back.survey_id, back.column_groups) == (draws.survey_id, draws.column_groups)


@settings(max_examples=200, deadline=None)
@given(
    means=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40),
    sd=st.floats(0.05, 20.0),
    side=st.sampled_from(["left_of_zero", "right_of_zero"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncated_normal_is_finite_on_its_side(means, sd, side, seed):
    w = sample_truncated_normal(np.array(means), sd, side, np.random.default_rng(seed))
    assert np.all(np.isfinite(w))
    assert np.all(w > 0.0) if side == "left_of_zero" else np.all(w < 0.0)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.floats(-40.0, 40.0), st.booleans()), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_latent_draw_is_finite_on_its_side(pairs, seed):
    eta = np.array([m for m, _ in pairs])
    death = np.array([d for _, d in pairs])
    sign = np.where(death, 1.0, -1.0)
    z = _latent_draw(eta, _LatentLayout(death), np.random.default_rng(seed))
    assert np.all(np.isfinite(z))
    assert np.all(np.sign(z) == sign)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
_cells = st.floats().map(repr) | st.integers().map(str) | st.text(max_size=6)
_draws_csv = st.text() | st.lists(st.lists(_cells, max_size=4).map(",".join), max_size=5).map(
    lambda rows: "\n".join(["beta_0,beta_1,sigma2", *rows])
)
_sidecar = st.text() | _json_values.map(json.dumps) | st.fixed_dictionaries(
    {},
    optional={
        "survey_id": _json_values,
        "n_draws": _json_values | st.integers(0, 5),
        "n_coefficients": _json_values | st.just(2),
        "column_groups": _json_values | st.dictionaries(st.text(max_size=4), _json_values | st.lists(st.integers(-1, 3), max_size=3)),
    },
).map(json.dumps)


@settings(max_examples=300, deadline=None)
@given(csv_text=_draws_csv, sidecar_text=_sidecar)
def test_draws_reader_returns_or_raises_mortdecomp_error(tmp_path_factory, csv_text, sidecar_text):
    folder = tmp_path_factory.mktemp("draws")
    (folder / "draws.csv").write_text(csv_text, encoding="utf-8")
    sidecar = folder / "draws.json"
    sidecar.write_text(sidecar_text, encoding="utf-8")
    try:
        load_draws(folder / "draws.csv", sidecar)
    except MortdecompError:
        pass
