import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from conftest import traced_peak
from mortdecomp.dataset import CovariateSchema, CovariateSpec, write_survey_csv
from mortdecomp.errors import ConfigError
from mortdecomp.simulate import SyntheticConfig, SyntheticSurveySpec, _draw, synthesize


def intercept_only_config(sigma2=0.0, n_clusters=100, births=1000, rate=0.1):
    beta = (float(ndtri(rate)),)
    spec = dict(
        beta=beta,
        sigma2=sigma2,
        n_clusters=n_clusters,
        births_per_cluster=births,
        survey_year=2000,
    )
    return SyntheticConfig(
        schema=CovariateSchema(()),
        s1=SyntheticSurveySpec(**spec),
        s2=SyntheticSurveySpec(**{**spec, "survey_year": 2014}),
    )


def empirical_rate(sample):
    return sample.outcome.mean()


def test_intercept_only_death_rate_matches_target():
    # 1e5 births, no cluster effects: binomial 3*SE is 0.0028
    dgp = intercept_only_config()
    s1, _ = synthesize(dgp, seed=42)
    assert s1.n_births == 100_000
    assert abs(empirical_rate(s1) - 0.100) < 0.003


def test_same_seed_is_byte_identical(tmp_path):
    def csv_bytes(sample):
        path = tmp_path / "sample.csv"
        write_survey_csv(sample, path)
        return path.read_bytes()

    dgp = intercept_only_config(n_clusters=10, births=50)
    a1, a2 = synthesize(dgp, seed=7)
    b1, b2 = synthesize(dgp, seed=7)
    assert csv_bytes(a1) == csv_bytes(b1) and csv_bytes(a2) == csv_bytes(b2)
    c1, _ = synthesize(dgp, seed=8)
    assert csv_bytes(a1) != csv_bytes(c1)


def test_cluster_effects_shift_marginal_rate():
    # With unit cluster variance the marginal rate is Phi(Phi^-1(0.1)/sqrt(2));
    # cross-check that closed form against direct Monte-Carlo integration.
    closed_form = ndtr(ndtri(0.1) / np.sqrt(2.0))
    rng = np.random.default_rng(99)
    mc = ndtr(ndtri(0.1) + rng.standard_normal(1_000_000))
    mc_se = mc.std(ddof=1) / 1000.0
    assert abs(mc.mean() - closed_form) < 3 * mc_se

    # many small clusters keep the design effect modest: 3*SE ~ 0.005
    dgp = intercept_only_config(sigma2=1.0, n_clusters=20_000, births=5)
    s1, _ = synthesize(dgp, seed=11)
    assert abs(empirical_rate(s1) - closed_form) < 0.005


def test_covariate_effects_enter_linear_predictor():
    schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
    spec = dict(
        beta=(float(ndtri(0.10)), 0.9),
        sigma2=0.0,
        n_clusters=200,
        births_per_cluster=100,
        survey_year=2000,
        covariates={"sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.5, 0.5]}},
    )
    dgp = SyntheticConfig(
        schema=schema,
        s1=SyntheticSurveySpec(**spec),
        s2=SyntheticSurveySpec(**{**spec, "survey_year": 2014}),
    )
    s1, _ = synthesize(dgp, seed=3)
    sex = s1.columns["sex"]
    rate_f = s1.outcome[sex == "female"].mean()
    rate_m = s1.outcome[sex == "male"].mean()
    assert abs(rate_f - 0.10) < 0.012
    assert abs(rate_m - ndtr(ndtri(0.10) + 0.9)) < 0.018


def test_nonpositive_cluster_count_rejected():
    with pytest.raises(ConfigError):
        SyntheticSurveySpec(beta=(0.0,), sigma2=0.0, n_clusters=0, births_per_cluster=5, survey_year=2000)


def test_degenerate_probability_rejected():
    dgp = intercept_only_config(n_clusters=5, births=5)
    bad = SyntheticConfig(
        schema=dgp.schema,
        s1=SyntheticSurveySpec(
            beta=(-45.0,), sigma2=0.0, n_clusters=5, births_per_cluster=5, survey_year=2000
        ),
        s2=dgp.s2,
    )
    with pytest.raises(ConfigError, match="0 or 1"):
        synthesize(bad, seed=1)


def test_beta_length_must_match_design():
    schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
    spec = dict(
        beta=(0.0,),  # design has two columns
        sigma2=0.0,
        n_clusters=5,
        births_per_cluster=20,
        survey_year=2000,
        covariates={"sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.5, 0.5]}},
    )
    dgp = SyntheticConfig(
        schema=schema,
        s1=SyntheticSurveySpec(**spec),
        s2=SyntheticSurveySpec(**{**spec, "survey_year": 2014}),
    )
    with pytest.raises(ConfigError, match="length"):
        synthesize(dgp, seed=1)


def test_missing_prob_produces_missing_intervals():
    schema = CovariateSchema(
        (CovariateSpec("birth_interval", "continuous_spline", degree=1, df=2, allow_missing=True),)
    )
    spec = dict(
        beta=(float(ndtri(0.15)), 0.1, -0.1, 0.2),  # 2 spline cols + missing flag
        sigma2=0.0,
        n_clusters=40,
        births_per_cluster=25,
        survey_year=2000,
        covariates={"birth_interval": {"dist": "uniform", "low": 9.0, "high": 60.0, "missing_prob": 0.3}},
    )
    dgp = SyntheticConfig(
        schema=schema,
        s1=SyntheticSurveySpec(**spec),
        s2=SyntheticSurveySpec(**{**spec, "survey_year": 2014}),
    )
    s1, _ = synthesize(dgp, seed=5)
    missing = np.isnan(s1.columns["birth_interval"]).sum()
    assert 0.2 < missing / s1.n_births < 0.4


def test_synthesize_peak_memory_is_bounded(large_dgp):
    # object draws and two designs alive at once peak at 21.4 MB; typed draws and one design, 13.5 MB
    (s1, s2), peak = traced_peak(synthesize, large_dgp, 2)
    assert s1.n_births == s2.n_births == 20_000
    assert peak < 17.5, f"synthesize peaked {peak:.1f} MB above its start"


def test_numeric_draws_are_typed_and_other_values_are_converted_as_given():
    spec = {"dist": "choice", "values": [1, 2], "probs": None, "missing_prob": 0.5}
    draw = _draw(spec, 50, np.random.default_rng(0), numeric=True)
    assert draw.dtype == np.float64 and np.isnan(draw).any()
    schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
    for covariates, words in [
        ({"maternal_age": {"dist": "choice", "values": ["a", 20]}}, "could not convert string to float: 'a'"),
        ({"sex": {"dist": "choice", "values": ["female", "male"], "missing_prob": 0.5}}, "got 'None'"),
    ]:
        spec = dict(beta=(0.0, 0.1), sigma2=0.0, n_clusters=5, births_per_cluster=4, survey_year=2000,
                    covariates={"sex": {"dist": "choice", "values": ["female", "male"]}, **covariates})
        dgp = SyntheticConfig(schema, SyntheticSurveySpec(**spec), SyntheticSurveySpec(**{**spec, "survey_year": 2014}))
        with pytest.raises(ConfigError, match=f"survey S1: the generated covariates are not a valid sample .*{words}"):
            synthesize(dgp, seed=1)
