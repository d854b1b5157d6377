import json
import multiprocessing
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mortdecomp.cli as cli
from mortdecomp.cli import RunConfig, main, run_pipeline, validate_suite
from mortdecomp.decompose import _one_blas_thread, _openblas_threads
from mortdecomp.errors import ConfigError, MortdecompError, SingularDesignError
from mortdecomp.sampler import ChainQualityWarning, GibbsChain


def base_config(out_dir, mcmc=None):
    return {
        "seed": 777,
        "out_dir": str(out_dir),
        "input": {
            "mode": "synthetic",
            "dgp": {
                "s1": {
                    "beta": [-1.1, 0.4],
                    "sigma2": 0.2,
                    "n_clusters": 30,
                    "births_per_cluster": 10,
                    "survey_year": 2000,
                    "covariates": {
                        "sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.5, 0.5]}
                    },
                },
                "s2": {
                    "beta": [-1.4, 0.3],
                    "sigma2": 0.15,
                    "n_clusters": 30,
                    "births_per_cluster": 10,
                    "survey_year": 2014,
                    "covariates": {
                        "sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.5, 0.5]}
                    },
                },
            },
        },
        "schema": {"covariates": [{"name": "sex", "kind": "binary", "reference": "female"}]},
        "mcmc": mcmc or {"total": 1300, "burnin": 300, "thin": 1, "target_retained": 1000},
        "auto_extend": False,
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


EXPECTED_FILES = {
    "draws_s1.csv", "draws_s1.json", "draws_s2.csv", "draws_s2.json",
    "decomposition.json", "mortality.csv", "overall_decomp.csv", "coef_decomp.csv",
    "variance_profile.csv", "diagnostics.json", "run_manifest.json",
}


class TestRunConfig:
    def test_both_input_modes_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["input"]["s1_path"] = "a.csv"
        with pytest.raises(ConfigError, match="both"):
            RunConfig.from_dict(cfg)

    def test_years_must_increase(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["survey_years"] = {"s1": 2014, "s2": 2000}
        with pytest.raises(ConfigError, match="exceed"):
            RunConfig.from_dict(cfg)

    def test_years_default_from_generator(self, tmp_path):
        config = RunConfig.from_dict(base_config(tmp_path / "out"))
        assert config.survey_years == (2000, 2014)
        assert config.years_between == 14.0

    def test_mcmc_seed_key_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["mcmc"]["seed"] = 3
        with pytest.raises(ConfigError, match="top-level seed"):
            RunConfig.from_dict(cfg)

    def test_empty_config_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            RunConfig.from_file(path)

    def test_overrides_applied(self, tmp_path):
        config = RunConfig.from_dict(
            base_config(tmp_path / "out"),
            overrides={"seed": 9, "out_dir": str(tmp_path / "other"), "order": ["sex", "intercept"],
                       "marginalization": "maintext_multiply"},
        )
        assert config.seed == 9
        assert config.out_dir.endswith("other")
        assert config.order == ("sex", "intercept")
        assert config.marginalization == "maintext_multiply"

    def test_unknown_marginalization_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["marginalization"] = "sideways"
        with pytest.raises(ConfigError):
            RunConfig.from_dict(cfg)


class TestPipeline:
    def test_emits_expected_files_with_manifest_hashes(self, tmp_path):
        config = RunConfig.from_dict(base_config(tmp_path / "out"))
        files = run_pipeline(config)
        assert set(files) == EXPECTED_FILES
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert set(manifest["files"]) == EXPECTED_FILES - {"run_manifest.json"}
        import hashlib

        for name, digest in manifest["files"].items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest
        assert manifest["seed"] == 777
        assert manifest["versions"]["mortdecomp"]

    def test_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        config = RunConfig.from_dict(base_config(tmp_path / "out"))

        def boom(*args, **kwargs):
            raise RuntimeError("decompose exploded")

        monkeypatch.setattr(cli, "posterior_decompose", boom)
        with pytest.raises(cli._StageFailure) as err:
            run_pipeline(config)
        assert err.value.stage == "decompose"
        out = tmp_path / "out"
        assert list(out.iterdir()) == []

    def test_failure_after_emission_starts_cleans_up(self, tmp_path, monkeypatch):
        config = RunConfig.from_dict(base_config(tmp_path / "out"))

        def boom(*args, **kwargs):
            raise RuntimeError("profile exploded")

        monkeypatch.setattr(cli, "write_variance_profile", boom)
        with pytest.raises(cli._StageFailure) as err:
            run_pipeline(config)
        assert err.value.stage == "emit"
        assert list((tmp_path / "out").iterdir()) == []


def run_with_warnings(config) -> list[tuple]:
    """Run the pipeline; the chain-quality warnings it issued, as (text, file, line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_pipeline(config)
    return [(str(w.message), w.filename, w.lineno) for w in caught if w.category is ChainQualityWarning]


@pytest.mark.skipif(_one_blas_thread() is None, reason="numpy's BLAS exports no thread control, so fits never fork")
class TestFitProcesses:
    """The two surveys' fits in forked processes, against the in-process path."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(cli, "_available_cores", lambda: 2)

    def test_outputs_and_warnings_match_in_process_fits(self, tmp_path, monkeypatch):
        # an auto-extended chain, so the resumed extension crosses the process boundary too
        cfg = base_config(tmp_path / "forked", mcmc={"total": 1350, "burnin": 100, "thin": 1, "target_retained": 1250})
        cfg["auto_extend"] = True
        forked_warnings = run_with_warnings(RunConfig.from_dict(cfg))
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(cli, "_available_cores", lambda: 1)
        cfg["out_dir"] = str(tmp_path / "in_process")
        in_process_warnings = run_with_warnings(RunConfig.from_dict(cfg))

        forked = json.loads((tmp_path / "forked" / "run_manifest.json").read_text())
        in_process = json.loads((tmp_path / "in_process" / "run_manifest.json").read_text())
        assert forked["files"] == in_process["files"]
        # each chain warns before and after its extension; s1's two come
        # before s2's, and each one as fit issued it
        assert len({text for text, _, _ in forked_warnings}) == 4
        assert forked_warnings == in_process_warnings

    def test_blas_thread_count_restored(self, tmp_path):
        get, set_ = _openblas_threads()
        saved = get()
        try:
            set_(2)
            before = get()
            run_pipeline(RunConfig.from_dict(base_config(tmp_path / "out")))
            assert get() == before
        finally:
            set_(saved)

    def test_fit_error_in_child_reaches_parent(self, tmp_path, monkeypatch):
        def chain(design, prior, mcmc):
            if design.survey_id == "S2":
                raise SingularDesignError(3.5e-17)
            return GibbsChain(design, prior, mcmc)

        monkeypatch.setattr(cli, "GibbsChain", chain)
        with pytest.raises(cli._StageFailure) as err:
            run_pipeline(RunConfig.from_dict(base_config(tmp_path / "out")))
        assert err.value.stage == "fit"
        assert type(err.value.cause) is SingularDesignError
        assert str(err.value.cause) == str(SingularDesignError(3.5e-17))
        assert err.value.cause.min_eigenvalue == 3.5e-17
        assert list((tmp_path / "out").iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_dying_child_ends_run_at_fit(self, tmp_path, monkeypatch):
        fit_survey = cli._fit_survey

        def die_on_s1(design, *args):
            if design.survey_id == "S1":
                os._exit(3)
            return fit_survey(design, *args)

        monkeypatch.setattr(cli, "_fit_survey", die_on_s1)
        with pytest.raises(cli._StageFailure) as err:
            run_pipeline(RunConfig.from_dict(base_config(tmp_path / "out")))
        assert err.value.stage == "fit"
        assert "survey 1 exited with code 3" in str(err.value.cause)
        assert list((tmp_path / "out").iterdir()) == []
        assert multiprocessing.active_children() == []


class TestCommands:
    def test_run_exit_codes_and_error_record(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote") == len(EXPECTED_FILES)

        bad = base_config(tmp_path / "out_bad")
        bad["input"]["dgp"]["s1"]["beta"] = [-1.1]  # wrong length for the design
        bad_path = write_config(tmp_path, bad, "bad.json")
        code = main(["run", "--config", str(bad_path)])
        captured = capsys.readouterr()
        assert code == 1
        record = json.loads(captured.err.strip().splitlines()[0])
        assert record["error"]["stage"] == "load_samples"
        assert "length" in record["error"]["message"]
        assert list((tmp_path / "out_bad").iterdir()) == []

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["input"]["s1_path"] = "x.csv"
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_then_csv_run_round_trip(self, tmp_path, capsys):
        sim_dir = tmp_path / "sim"
        cfg = base_config(sim_dir)
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert (sim_dir / "s1.csv").exists() and (sim_dir / "s2.csv").exists()

        csv_cfg = dict(cfg)
        csv_cfg["input"] = {
            "mode": "csv",
            "s1_path": str(sim_dir / "s1.csv"),
            "s2_path": str(sim_dir / "s2.csv"),
        }
        csv_cfg["survey_years"] = {"s1": 2000, "s2": 2014}
        csv_cfg["out_dir"] = str(tmp_path / "csv_out")
        csv_path = write_config(tmp_path, csv_cfg, "csv_config.json")
        assert main(["run", "--config", str(csv_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "csv_out" / "decomposition.json").exists()

    def test_fit_then_decompose_matches_run(self, tmp_path, capsys):
        onepass = tmp_path / "onepass"
        cfg = base_config(onepass)
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == 0

        twopass = tmp_path / "twopass"
        cfg2 = dict(base_config(twopass))
        path2 = write_config(tmp_path, cfg2, "config2.json")
        assert main(["fit", "--config", str(path2), "--survey", "s1"]) == 0
        assert main(["fit", "--config", str(path2), "--survey", "s2"]) == 0
        assert main(["decompose", "--config", str(path2)]) == 0
        capsys.readouterr()

        a = json.loads((onepass / "decomposition.json").read_text())
        b = json.loads((twopass / "decomposition.json").read_text())
        assert a == b

    def test_decompose_respects_order_override(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(path)]) == 0
        assert main(["decompose", "--config", str(path), "--order", "sex,intercept"]) == 0
        capsys.readouterr()
        doc = json.loads((out / "decomposition.json").read_text())
        assert doc["order"] == ["sex", "intercept"]

    @staticmethod
    def two_covariate_config(out_dir, covariate_order):
        cfg = base_config(out_dir)
        for survey, beta in (("s1", [-1.1, 0.4, -0.3]), ("s2", [-1.4, 0.3, -0.2])):
            spec = cfg["input"]["dgp"][survey]
            spec["beta"] = beta
            spec["covariates"]["residence"] = {
                "dist": "choice", "values": ["rural", "urban"], "probs": [0.6, 0.4]
            }
        specs = {
            "sex": {"name": "sex", "kind": "binary", "reference": "female"},
            "residence": {"name": "residence", "kind": "binary", "reference": "rural"},
        }
        cfg["schema"] = {"covariates": [specs[name] for name in covariate_order]}
        return cfg

    def test_decompose_rejects_draws_fitted_under_another_layout(self, tmp_path, capsys):
        # draws fitted under [sex, residence] have the same width as the
        # [residence, sex] design; only the sidecar's layout tells them apart
        out = tmp_path / "out"
        fitted = write_config(tmp_path, self.two_covariate_config(out, ["sex", "residence"]), "fitted.json")
        assert main(["fit", "--config", str(fitted), "--survey", "s1"]) == 0
        assert main(["fit", "--config", str(fitted), "--survey", "s2"]) == 0
        capsys.readouterr()
        swapped = write_config(tmp_path, self.two_covariate_config(out, ["residence", "sex"]), "swapped.json")
        assert main(["decompose", "--config", str(swapped)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert record["error"]["type"] == "ConfigError"
        assert "column groups" in record["error"]["message"]
        assert not (out / "decomposition.json").exists()

    def test_decompose_rejects_draw_width_without_sidecar(self, tmp_path, capsys):
        out = tmp_path / "out"
        fitted = write_config(tmp_path, self.two_covariate_config(out, ["sex", "residence"]), "fitted.json")
        assert main(["fit", "--config", str(fitted), "--survey", "s1"]) == 0
        assert main(["fit", "--config", str(fitted), "--survey", "s2"]) == 0
        (out / "draws_s1.json").unlink()
        (out / "draws_s2.json").unlink()
        capsys.readouterr()
        narrow = write_config(tmp_path, base_config(out), "narrow.json")
        assert main(["decompose", "--config", str(narrow)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert record["error"]["type"] == "ConfigError"
        assert "coefficients per draw" in record["error"]["message"]

    def test_decompose_rejects_sidecar_width_mismatch(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(path)]) == 0
        sidecar = json.loads((out / "draws_s2.json").read_text())
        sidecar["n_coefficients"] += 1
        (out / "draws_s2.json").write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert main(["decompose", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert record["error"]["type"] == "ConfigError"
        assert "coefficients" in record["error"]["message"]

    @staticmethod
    def error_record(capsys):
        return json.loads(capsys.readouterr().err.strip().splitlines()[0])["error"]

    def test_simulate_without_beta_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        del cfg["input"]["dgp"]["s2"]["beta"]
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError" and "beta" in record["message"]

    def test_unknown_mcmc_key_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["mcmc"]["sweeps"] = 10
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError" and "sweeps" in record["message"]

    def test_report_on_malformed_results_exits_2(self, tmp_path, capsys):
        results = tmp_path / "decomposition.json"
        results.write_text('{"order": [', encoding="utf-8")
        assert main(["report", "--results", str(results)]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError" and "invalid JSON" in record["message"]

    @pytest.mark.parametrize(
        "results, words",
        [
            ({}, "years_between"),
            ([1, 2], "must be an object"),
            ({"years_between": 14, "order": [], "rates_per_1000": {}, "components": {}}, "s1"),
        ],
        ids=["empty_object", "list", "empty_sections"],
    )
    def test_report_on_wrong_shape_results_exits_2(self, tmp_path, capsys, results, words):
        path = tmp_path / "decomposition.json"
        path.write_text(json.dumps(results), encoding="utf-8")
        assert main(["report", "--results", str(path)]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError" and words in record["message"]
        assert not (tmp_path / "mortality.csv").exists()

    def test_report_on_wrong_field_type_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, base_config(out)))]) == 0
        doc = json.loads((out / "decomposition.json").read_text())
        doc["components"]["x_effect"]["annualized"] = "fast"
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "rendered")]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError" and "components.x_effect.annualized" in record["message"]

    @pytest.mark.parametrize(
        "malform, words",
        [
            (lambda cfg: cfg.update(survey_years={"s1": 2000}), "s2"),
            (lambda cfg: cfg.update(survey_years={"s1": 2000, "s2": "later"}), "integers"),
            (lambda cfg: cfg["input"]["dgp"].pop("s2"), "s2"),
            (lambda cfg: cfg.update(mcmc=5), "mcmc must be an object"),
            (lambda cfg: cfg.update(prior=[1.0]), "prior must be an object"),
            (lambda cfg: cfg.update(schema={}), "covariates"),
            # values of the wrong type inside a well-shaped config
            (lambda cfg: cfg.update(mcmc={"total": "abc"}), "mcmc.total"),
            (lambda cfg: cfg.update(seed="abc"), "seed"),
            (lambda cfg: cfg.update(poor_quantile="abc"), "poor_quantile"),
            (lambda cfg: cfg.update(order=5), "order"),
            (lambda cfg: cfg["input"]["dgp"]["s1"].update(sigma2="x"), "sigma2"),
            (lambda cfg: cfg["input"]["dgp"]["s1"].update(beta=5), "beta"),
            (lambda cfg: cfg["input"]["dgp"]["s2"].update(covariates=[1]), "covariates"),
            (lambda cfg: cfg.update(schema={"covariates": [5]}), "covariate spec"),
            # numbers are checked, never converted: no truncation, no strings, no booleans, no NaN
            (lambda cfg: cfg["mcmc"].update(thin=2.5), "mcmc.thin"),
            (lambda cfg: cfg["mcmc"].update(total="3000"), "mcmc.total"),
            (lambda cfg: cfg.update(seed=True), "seed"),
            (lambda cfg: cfg.update(prior={"beta_sd": "nan"}), "prior.beta_sd"),
            (lambda cfg: cfg.update(prior={"beta_sd": float("nan")}), "prior.beta_sd"),
            (lambda cfg: cfg["input"]["dgp"]["s1"].update(n_clusters=30.5), "n_clusters"),
            (
                lambda cfg: cfg.update(
                    input={"mode": "csv", "s1_path": 5, "s2_path": "s2.csv"}, survey_years={"s1": 2000, "s2": 2014}
                ),
                "s1_path",
            ),
            # non-numeric values are checked, never converted: no truthy strings, no str() of a number
            (lambda cfg: cfg.update(auto_extend="false"), "auto_extend"),
            (lambda cfg: cfg["mcmc"].update(allow_short="no"), "mcmc.allow_short"),
            (lambda cfg: cfg.update(out_dir=5), "out_dir"),
            (lambda cfg: cfg.update(order=["intercept", 5]), "order[1]"),
            (lambda cfg: cfg.update(survey_years={"s1": "2000", "s2": 2014}), "integers"),
            (lambda cfg: cfg.update(survey_years={"s1": 2000, "s2": 2014.7}), "integers"),
            (lambda cfg: cfg["schema"]["covariates"][0].update(name=["sex"]), "covariate spec name"),
            (lambda cfg: cfg["schema"]["covariates"][0].update(allow_missing="yes"), "covariate spec allow_missing"),
        ],
        ids=[
            "survey_years_without_s2", "survey_years_not_integers", "dgp_without_s2",
            "mcmc_not_object", "prior_not_object", "schema_without_covariates",
            "mcmc_total_not_number", "seed_not_number", "poor_quantile_not_number", "order_not_list",
            "dgp_sigma2_not_number", "dgp_beta_not_list", "dgp_covariates_not_object", "schema_covariate_not_object",
            "mcmc_thin_fractional", "mcmc_total_numeric_string", "seed_boolean", "prior_beta_sd_nan_string",
            "prior_beta_sd_nan", "dgp_n_clusters_fractional", "csv_path_not_string",
            "auto_extend_string", "mcmc_allow_short_string", "out_dir_number", "order_entry_number",
            "survey_year_string", "survey_year_fractional", "schema_name_not_string", "schema_allow_missing_string",
        ],
    )
    def test_run_on_malformed_config_shape_exits_2(self, tmp_path, capsys, malform, words):
        cfg = base_config(tmp_path / "out")
        malform(cfg)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError" and words in record["message"]

    @pytest.mark.parametrize(
        "edit, words",
        [
            (lambda cells: cells.__setitem__(1, "abc"), "line 3: non-numeric cell"),
            (lambda cells: cells.__setitem__(0, "nan"), "line 3: non-finite value beta_0=nan"),
            (lambda cells: cells.__setitem__(-1, "inf"), "line 3: non-finite value sigma2=inf"),
            (lambda cells: cells.pop(), "line 3: 2 cells under a 3-column header"),
            (lambda cells: cells.__setitem__(-1, "-0.5"), "line 3: negative variance sigma2=-0.5"),
        ],
        ids=["non_numeric", "nan", "inf", "short_row", "negative_sigma2"],
    )
    def test_decompose_rejects_malformed_draws_csv(self, tmp_path, capsys, edit, words):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(path)]) == 0
        draws_csv = out / "draws_s2.csv"
        lines = draws_csv.read_text().splitlines()
        cells = lines[2].split(",")
        edit(cells)
        lines[2] = ",".join(cells)
        draws_csv.write_text("\n".join(lines) + "\n")
        (out / "decomposition.json").unlink()
        capsys.readouterr()
        assert main(["decompose", "--config", str(path)]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError"
        assert record["message"].startswith(str(draws_csv)) and words in record["message"]
        assert not (out / "decomposition.json").exists()

    @pytest.mark.parametrize(
        "text, words",
        [
            ("{", "invalid JSON"),
            ("[]", "must be an object"),
            ('{"column_groups": {"sex": 5}}', "column_groups.sex must be a [lo, hi] pair"),
            ('{"column_groups": [1]}', "column_groups must be an object"),
            ('{"column_groups": {"sex": [1, "2"]}}', "column_groups.sex must be a whole number"),
            ('{"column_groups": {"sex": [1, 1]}}', "0 <= lo < hi <= 2"),
            ('{"column_groups": {"sex": [1, 3]}}', "0 <= lo < hi <= 2"),
            ('{"survey_id": 5}', "survey_id must be a string"),
        ],
        ids=["truncated", "list", "group_not_pair", "groups_not_object", "bound_not_integer", "empty_span",
             "span_past_width", "survey_id_number"],
    )
    def test_decompose_rejects_malformed_draws_sidecar(self, tmp_path, capsys, text, words):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(path)]) == 0
        (out / "draws_s1.json").write_text(text)
        capsys.readouterr()
        assert main(["decompose", "--config", str(path)]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError" and "draws_s1.json" in record["message"] and words in record["message"]

    def test_decompose_rejects_non_finite_csv_cell(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "sim")
        cfg["schema"] = {"covariates": [{"name": "maternal_age", "kind": "continuous_spline", "degree": 1, "df": 1}]}
        for survey in ("s1", "s2"):
            cfg["input"]["dgp"][survey]["covariates"] = {}
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 0
        lines = (tmp_path / "sim" / "s2.csv").read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[3].split(",")
        cells[header.index("maternal_age")] = "inf"
        lines[3] = ",".join(cells)
        (tmp_path / "sim" / "s2.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()

        cfg["input"] = {"mode": "csv", "s1_path": str(tmp_path / "sim" / "s1.csv"), "s2_path": str(tmp_path / "sim" / "s2.csv")}
        cfg["survey_years"] = {"s1": 2000, "s2": 2014}
        cfg["out_dir"] = str(tmp_path / "out")
        assert main(["decompose", "--config", str(write_config(tmp_path, cfg, "csv.json"))]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "RowError"
        assert record["message"] == "line 4: non-finite value maternal_age='inf'"

    def test_report_rerenders_tables(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(path)]) == 0
        rendered = tmp_path / "rendered"
        assert main(["report", "--results", str(out / "decomposition.json"), "--out", str(rendered)]) == 0
        capsys.readouterr()
        assert (rendered / "mortality.csv").read_text() == (out / "mortality.csv").read_text()
        assert (rendered / "overall_decomp.csv").read_text() == (out / "overall_decomp.csv").read_text()

    def test_validate_reports_convention_failure(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert main(["validate", "--marginalization", "maintext_multiply"]) == 1
        out = capsys.readouterr().out
        assert "FAIL mc_marginalization_grid" in out

    def test_missing_config_exits_2(self, capsys):
        assert main(["run", "--config", "/nonexistent/config.json"]) == 2
        assert "for usage" in capsys.readouterr().err

    def test_auto_extend_retries_once(self, tmp_path):
        # a deliberately under-thinned chain trips the independence
        # target; the pipeline doubles the sampling phase exactly once
        cfg = base_config(tmp_path / "out", mcmc={"total": 1350, "burnin": 100, "thin": 1, "target_retained": 1250})
        cfg["auto_extend"] = True
        config = RunConfig.from_dict(cfg)
        run_pipeline(config)
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["s1"]["extended"] is True
        sidecar = json.loads((tmp_path / "out" / "draws_s1.json").read_text())
        assert sidecar["config"]["total"] == 100 + 2 * 1250
        # the extension continues the chain: burnin + 2 * (total - burnin) sweeps in all
        assert diag["s1"]["sweeps"] == 100 + 2 * (1350 - 100)
        assert diag["s1"]["ess_target"] == 1000
        assert diag["s1"]["target_met"] is (diag["s1"]["min_ess"] >= 1000)

    def test_run_reports_missed_ess_target(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(RunConfig.from_dict(base_config(out)))
        diag = json.loads((out / "diagnostics.json").read_text())
        for sid in ("s1", "s2"):
            assert diag[sid]["sweeps"] == 1300
            assert diag[sid]["extended"] is False
            assert diag[sid]["min_ess"] < 1000
            assert diag[sid]["target_met"] is False


def test_validate_suite_passes_by_default():
    results = validate_suite()
    assert all(c.passed for c in results)
    assert [c.name for c in results] == [
        "linear_triangle",
        "mc_marginalization_grid",
        "ml_prior_limit",
        "collapsing_sum_fuzz",
    ]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _paths(value, prefix=()):
    """Every path (tuple of keys and indices) into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _valid_configs():
    synthetic = base_config("out")
    synthetic.update(order=["sex", "intercept"], survey_years={"s1": 2000, "s2": 2014}, prior={"beta_sd": 5.0})
    csv = base_config("out")
    csv["input"] = {"mode": "csv", "s1_path": "s1.csv", "s2_path": "s2.csv"}
    csv["survey_years"] = {"s1": 2000, "s2": 2014}
    return [synthetic, csv]


_CONFIG_KEYS = sorted({k for cfg in _valid_configs() for path in _paths(cfg) for k in path if isinstance(k, str)}
                      | {"marginalization", "poor_quantile", "allow_short", "degree", "df", "allow_missing"})


@st.composite
def mutated_configs(draw):
    """A valid config with one to three values replaced, deleted or added."""
    cfg = draw(st.sampled_from(_valid_configs()))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        if not path:
            cfg = draw(json_values)
            continue
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(json_values)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(_CONFIG_KEYS) | st.text(max_size=8))] = draw(json_values)
        else:
            parent.insert(path[-1], draw(json_values))
    return cfg


@settings(max_examples=300, deadline=None)
@given(cfg=mutated_configs())
def test_config_reader_returns_or_raises_mortdecomp_error(cfg):
    try:
        RunConfig.from_dict(cfg)
    except MortdecompError:
        pass
