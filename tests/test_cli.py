import copy
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mortdecomp.cli as cli
import mortdecomp.dataset as dataset_module
import mortdecomp.decompose as decompose_module
import mortdecomp.report
import mortdecomp.validation as validation
from mortdecomp._phi import ndtr
from mortdecomp.cli import RunConfig, main, run_pipeline
from mortdecomp.dataset import CovariateSchema, build_design, compute_centering, default_schema, ingest_csv, pool_samples
from mortdecomp.decompose import ComponentSummary, _openblas_threads
from mortdecomp.errors import ConfigError, MortdecompError, SingularDesignError
from mortdecomp.sampler import ChainQualityWarning, GibbsChain, load_draws
from mortdecomp.splines import quantile_knots
from mortdecomp.validation import validate_suite


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


def covariates(cfg, survey="s1"):
    """The distribution specs of one survey's generator in a ``base_config``."""
    return cfg["input"]["dgp"][survey]["covariates"]


# Generator specs and poor_quantile keys that the config reader rejects,
# each with a word its message must contain; poor_quantile is no key of a run config.
MALFORMED_GENERATOR = {
    "uniform_low_string": (lambda cfg: covariates(cfg).update(maternal_age={"dist": "uniform", "low": "a", "high": 1}), "low"),
    "uniform_without_bounds": (lambda cfg: covariates(cfg).update(maternal_age={"dist": "uniform"}), "low"),
    "uniform_range_overflow": (
        lambda cfg: covariates(cfg).update(maternal_age={"dist": "uniform", "low": -1e308, "high": 1e308}), "high"
    ),
    "normal_negative_sd": (lambda cfg: covariates(cfg).update(maternal_age={"dist": "normal", "mean": 0, "sd": -1}), "sd"),
    "choice_values_number": (lambda cfg: covariates(cfg).update(sex={"dist": "choice", "values": 5}), "values"),
    "choice_probs_sum": (lambda cfg: covariates(cfg)["sex"].update(probs=[0.9, 0.3]), "probs"),
    "missing_prob_string": (lambda cfg: covariates(cfg)["sex"].update(missing_prob="x"), "missing_prob"),
    "missing_prob_numeric_string": (lambda cfg: covariates(cfg)["sex"].update(missing_prob="0.5"), "missing_prob"),
    "poor_quantile_above_one": (lambda cfg: cfg.update(poor_quantile=5), "config has unknown key(s): poor_quantile"),
    "poor_quantile_zero": (lambda cfg: cfg.update(poor_quantile=0), "config has unknown key(s): poor_quantile"),
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


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The config and output directory of one ``run`` of ``base_config``; tests must not write there."""
    root = tmp_path_factory.mktemp("finished_run")
    path = write_config(root, base_config(root / "out"))
    assert main(["run", "--config", str(path)]) == 0
    return path, root / "out"


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
        overrides = {"seed": 9, "out_dir": str(tmp_path / "other"), "order": ["sex", "intercept"]}
        config = RunConfig.from_dict(base_config(tmp_path / "out"), overrides=overrides)
        assert config.echo == {**base_config(tmp_path / "out"), **overrides}
        assert config.seed == 9
        assert config.out_dir.endswith("other")
        assert config.order == ("sex", "intercept")

    def test_unknown_marginalization_rejected(self, tmp_path):
        # marginalization has one rule, so the key is gone: any value is refused as an unknown key
        cfg = base_config(tmp_path / "out")
        for value in ("appendix_divide", "maintext_multiply", "sideways", 5):
            cfg["marginalization"] = value
            with pytest.raises(ConfigError, match=re.escape("config has unknown key(s): marginalization")):
                RunConfig.from_dict(cfg)

    def test_readme_example_config_is_read(self):
        # the README's JSON example is a config the reader takes as it stands
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.S | re.M)
        assert len(blocks) == 1
        config = RunConfig.from_dict(json.loads(blocks[0]))
        assert config.seed == 20240810 and config.years_between == 14.0


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
        with pytest.raises(RuntimeError) as err:
            run_pipeline(config)
        assert err.value.stage == "decompose"
        out = tmp_path / "out"
        assert not out.exists()

    @pytest.mark.parametrize(
        "module, writer",
        [(cli, "write_variance_profile"), (mortdecomp.report, "write_overall_table")],
        ids=["variance_profile", "overall_table"],
    )
    def test_failure_after_emission_starts_cleans_up(self, tmp_path, monkeypatch, module, writer):
        config = RunConfig.from_dict(base_config(tmp_path / "out"))

        def boom(*args, **kwargs):
            raise RuntimeError(f"{writer} exploded")

        monkeypatch.setattr(module, writer, boom)
        with pytest.raises(RuntimeError) as err:
            run_pipeline(config)
        assert err.value.stage == "emit"
        assert not (tmp_path / "out").exists()


def run_with_warnings(config) -> list[tuple]:
    """Run the pipeline; the chain-quality warnings it issued, as (text, file, line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_pipeline(config)
    return [(str(w.message), w.filename, w.lineno) for w in caught if w.category is ChainQualityWarning]


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy's BLAS exports no thread control, so fits never fork")
class TestFitProcesses:
    """The two surveys' fits in forked processes, against the in-process path."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(decompose_module, "_available_cores", lambda: 2)

    def test_outputs_and_warnings_match_in_process_fits(self, tmp_path, monkeypatch):
        # an auto-extended chain, so the resumed extension crosses the process boundary too
        cfg = base_config(tmp_path / "forked", mcmc={"total": 1350, "burnin": 100, "thin": 1, "target_retained": 1250})
        cfg["auto_extend"] = True
        forked_warnings = run_with_warnings(RunConfig.from_dict(cfg))
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(decompose_module, "_available_cores", lambda: 1)
        cfg["out_dir"] = str(tmp_path / "in_process")
        in_process_warnings = run_with_warnings(RunConfig.from_dict(cfg))

        forked = json.loads((tmp_path / "forked" / "run_manifest.json").read_text())
        in_process = json.loads((tmp_path / "in_process" / "run_manifest.json").read_text())
        assert forked["files"] == in_process["files"]
        # each chain warns before and after its extension; s1's two come
        # before s2's, and each one as fit issued it
        assert len({text for text, _, _ in forked_warnings}) == 4
        assert forked_warnings == in_process_warnings

    def test_forked_draws_stay_read_only(self, tmp_path):
        config = RunConfig.from_dict(base_config(tmp_path / "out"))
        designs = cli._build_designs(config, *cli._load_samples(config))
        fits = cli._per_survey(cli._fit_survey, cli._fit_jobs(config, designs))
        assert multiprocessing.active_children() == []
        for survey in fits:
            assert not survey.draws.beta.flags.writeable and not survey.draws.sigma2.flags.writeable

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
        with pytest.raises(SingularDesignError) as err:
            run_pipeline(RunConfig.from_dict(base_config(tmp_path / "out")))
        assert err.value.stage == "fit"
        assert type(err.value) is SingularDesignError
        assert str(err.value) == str(SingularDesignError(3.5e-17))
        assert err.value.min_eigenvalue == 3.5e-17
        assert not (tmp_path / "out").exists()
        assert multiprocessing.active_children() == []

    def test_dying_child_ends_run_at_fit(self, tmp_path, monkeypatch):
        fit_survey = cli._fit_survey

        def die_on_s1(design, *args):
            if design.survey_id == "S1":
                os._exit(3)
            return fit_survey(design, *args)

        monkeypatch.setattr(cli, "_fit_survey", die_on_s1)
        with pytest.raises(RuntimeError) as err:
            run_pipeline(RunConfig.from_dict(base_config(tmp_path / "out")))
        assert err.value.stage == "fit"
        assert "survey 1 exited with code 3" in str(err.value)
        assert not (tmp_path / "out").exists()
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def simulated_csvs(tmp_path_factory):
    """The directory of ``s1.csv`` and ``s2.csv`` simulated from ``base_config``; tests must not write there."""
    root = tmp_path_factory.mktemp("simulated")
    assert main(["simulate", "--config", str(write_config(root, base_config(root / "sim")))]) == 0
    return root / "sim"


def csv_config(out_dir, s1_path, s2_path) -> dict:
    """``base_config`` reading its two surveys from CSV files."""
    cfg = base_config(out_dir)
    cfg["input"] = {"mode": "csv", "s1_path": str(s1_path), "s2_path": str(s2_path)}
    cfg["survey_years"] = {"s1": 2000, "s2": 2014}
    return cfg


def copy_with_outcome(src, dst, line: int, outcome: str):
    """Copy a survey CSV, replacing the outcome cell on one line (1 is the header)."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line - 1] = outcome + lines[line - 1][lines[line - 1].index(","):]
    dst.write_text("".join(lines), encoding="utf-8")
    return dst


def copy_with_huge_cell(src, dst, line: int):
    """Copy a survey CSV, appending a cell over the CSV reader's 131072-character field limit to one line."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].rstrip("\n") + "," + "x" * 200_000 + "\n"
    dst.write_text("".join(lines), encoding="utf-8")
    return dst


def first_error_record(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[0])["error"]


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy's BLAS exports no thread control, so reads never fork")
class TestIngestProcesses:
    """The two surveys' CSV files read in forked processes, against the in-process path."""

    @staticmethod
    def use_cores(monkeypatch, cores):
        monkeypatch.setattr(decompose_module, "_available_cores", lambda: cores)

    def test_samples_match_in_process_reads_and_are_read_only(self, tmp_path, simulated_csvs, monkeypatch):
        config = RunConfig.from_dict(csv_config(tmp_path / "out", simulated_csvs / "s1.csv", simulated_csvs / "s2.csv"))
        read = cli.ingest_csv
        monkeypatch.setattr(cli, "ingest_csv", lambda *args: (read(*args), os.getpid()))  # and the reading process
        samples = {}
        for cores in (2, 1):
            self.use_cores(monkeypatch, cores)
            reads = cli._load_samples(config)
            assert multiprocessing.active_children() == []
            pids = {pid for _, pid in reads}
            assert len(pids) == 2 and os.getpid() not in pids if cores == 2 else pids == {os.getpid()}
            samples[cores] = [sample for sample, _ in reads]
        assert [pickle.dumps(s) for s in samples[2]] == [pickle.dumps(s) for s in samples[1]]
        for sample in (*samples[2], *samples[1]):
            assert not any(arr.flags.writeable for arr in (sample.outcome, sample.cluster, *sample.columns.values()))

    @pytest.mark.parametrize("bad", [("s2",), ("s1", "s2")], ids=["s2_bad", "both_bad"])
    def test_a_bad_csv_fails_alike_forked_or_not(self, tmp_path, simulated_csvs, monkeypatch, capsys, bad):
        # s1's bad cell sits on a later line than s2's, so the error shows which survey won
        paths = [
            copy_with_outcome(simulated_csvs / "s1.csv", tmp_path / "s1.csv", 6, "9") if "s1" in bad
            else simulated_csvs / "s1.csv",
            copy_with_outcome(simulated_csvs / "s2.csv", tmp_path / "s2.csv", 4, "7"),
        ]
        records = []
        for cores in (2, 1):
            self.use_cores(monkeypatch, cores)
            out = tmp_path / f"out_{cores}"
            config = write_config(tmp_path, csv_config(out, *paths))
            assert main(["run", "--config", str(config)]) == 2
            records.append(first_error_record(capsys))
            assert multiprocessing.active_children() == []
            assert not out.exists()
        assert records[0] == records[1]
        assert records[0]["stage"] == "load_samples" and records[0]["type"] == "RowError"
        want = f"{paths[0]}, line 6: outcome must be 0 or 1, got '9'" if "s1" in bad else (
            f"{paths[1]}, line 4: outcome must be 0 or 1, got '7'"
        )
        assert records[0]["message"] == want

    def test_csv_reader_error_ends_run_at_load_samples(self, tmp_path, simulated_csvs, monkeypatch, capsys):
        self.use_cores(monkeypatch, 2)
        huge = copy_with_huge_cell(simulated_csvs / "s2.csv", tmp_path / "s2.csv", 3)
        config = write_config(tmp_path, csv_config(tmp_path / "out", simulated_csvs / "s1.csv", huge))
        assert main(["run", "--config", str(config)]) == 2
        record = first_error_record(capsys)
        assert record["stage"] == "load_samples" and record["type"] == "ConfigError"
        assert record["message"].startswith(f"{huge}, line 3: field larger than field limit")
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out").exists()


def test_csv_reader_error_exits_2_in_decompose(tmp_path, simulated_csvs, capsys):
    huge = copy_with_huge_cell(simulated_csvs / "s1.csv", tmp_path / "s1.csv", 5)
    config = write_config(tmp_path, csv_config(tmp_path / "out", huge, simulated_csvs / "s2.csv"))
    assert main(["decompose", "--config", str(config)]) == 2
    record = first_error_record(capsys)
    assert record["type"] == "ConfigError"
    assert record["message"].startswith(f"{huge}, line 5: field larger than field limit")


def test_a_bad_csv_fails_alike_in_every_command(tmp_path, simulated_csvs, capsys):
    bad = copy_with_outcome(simulated_csvs / "s2.csv", tmp_path / "s2.csv", 4, "7")
    config = write_config(tmp_path, csv_config(tmp_path / "out", simulated_csvs / "s1.csv", bad))
    first_lines = []
    for command in (["run"], ["fit", "--survey", "s2"], ["decompose"]):
        assert main([*command, "--config", str(config)]) == 2
        first_lines.append(capsys.readouterr().err.splitlines()[0])
    assert first_lines[0] == first_lines[1] == first_lines[2]
    assert json.loads(first_lines[0])["error"] == {
        "stage": "load_samples", "type": "RowError", "message": f"{bad}, line 4: outcome must be 0 or 1, got '7'"
    }
    assert not (tmp_path / "out").exists()


def test_a_csv_pair_without_wealth_rank_runs(tmp_path, simulated_csvs):
    # survey 1's births are then centred on its full-sample means; a spline's design builds as with any centre
    paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for path in paths:
        rows = [line.split(",") for line in (simulated_csvs / path.name).read_text(encoding="utf-8").splitlines()]
        drop = rows[0].index("wealth_rank")
        path.write_text("".join(",".join(row[:drop] + row[drop + 1:]) + "\n" for row in rows), encoding="utf-8")
    cfg = csv_config(tmp_path / "out", *paths)
    cfg["schema"]["covariates"].append({"name": "maternal_age", "kind": "continuous_spline"})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    assert json.loads((tmp_path / "out" / "decomposition.json").read_text())["order"][-1] == "maternal_age"


def test_a_constant_column_names_its_survey_in_csv_input(tmp_path, simulated_csvs, capsys):
    # fit builds both designs, so a survey 2 of male births only stops fitting survey 1 too
    s2 = tmp_path / "s2.csv"
    s2.write_text((simulated_csvs / "s2.csv").read_text(encoding="utf-8").replace("female", "male"), encoding="utf-8")
    config = write_config(tmp_path, csv_config(tmp_path / "out", simulated_csvs / "s1.csv", s2))
    assert main(["fit", "--survey", "s1", "--config", str(config)]) == 2
    assert first_error_record(capsys) == {
        "stage": "build_design", "type": "DegenerateDesignError",
        "message": "survey S2: column 1 of group 'sex' is constant",
    }
    assert not (tmp_path / "out").exists()


def test_a_constant_column_names_its_survey_in_synthetic_input(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    covariates(cfg, "s2")["sex"] = {"dist": "choice", "values": ["male"]}
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert first_error_record(capsys) == {
        "stage": "load_samples", "type": "DegenerateDesignError",
        "message": "survey S2: column 1 of group 'sex' is constant",
    }
    assert not (tmp_path / "out").exists()


def test_a_pair_places_its_knots_once(tmp_path, monkeypatch):
    # one quantile_knots call per spline covariate, for both designs
    cfg = base_config(tmp_path / "out")
    cfg["schema"]["covariates"].append({"name": "maternal_age", "kind": "continuous_spline"})
    cfg["input"]["dgp"]["s1"]["beta"] += [0.1, 0.0, -0.1, 0.05]
    cfg["input"]["dgp"]["s2"]["beta"] += [0.1, 0.0, -0.1, 0.05]
    config = RunConfig.from_file(write_config(tmp_path, cfg))
    samples = cli._load_samples(config)
    placed = []
    monkeypatch.setattr(dataset_module, "quantile_knots", lambda *a, **kw: placed.append(a) or quantile_knots(*a, **kw))
    d1, d2 = cli._build_designs(config, *samples)
    assert len(placed) == 1
    pooled = pool_samples(*samples)
    for sample, design in zip(samples, (d1, d2)):
        alone = build_design(sample, config.schema, compute_centering(samples[0], config.schema), pooled)
        assert design.x.tobytes() == alone.x.tobytes() and design.column_groups == alone.column_groups


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy's BLAS exports no thread control")
def test_every_command_sweeps_with_blas_at_one(tmp_path, monkeypatch):
    # main holds OpenBLAS at one thread around the command, not only run's pipeline
    import mortdecomp.sampler as sampler_module

    get, set_ = _openblas_threads()
    saved = get()
    seen = []
    latent_draw = sampler_module._latent_draw

    def recording_latent_draw(*args):
        seen.append(get())
        return latent_draw(*args)

    monkeypatch.setattr(sampler_module, "_latent_draw", recording_latent_draw)
    cfg = base_config(tmp_path / "out", mcmc={"total": 60, "burnin": 20, "thin": 1, "target_retained": 40})
    try:
        set_(3)
        assert main(["fit", "--config", str(write_config(tmp_path, cfg)), "--survey", "s1"]) == 0
        assert get() == 3
    finally:
        set_(saved)
    assert seen and set(seen) == {1}


def test_without_blas_control_one_worker_for_surveys_and_kernel(tmp_path, monkeypatch):
    # decompose._workers is the one rule both callers ask: no thread control means one worker
    decompose_module._one_blas_thread()  # the shared hold, built while the real controls resolve
    monkeypatch.setattr(decompose_module, "_openblas_threads", lambda: None)
    monkeypatch.setattr(decompose_module, "_available_cores", lambda: 2)
    assert cli._per_survey(os.getpid, [(), ()]) == [os.getpid(), os.getpid()]

    config = RunConfig.from_dict(base_config(tmp_path / "out"))
    d1, d2 = cli._build_designs(config, *cli._load_samples(config))
    tilde = np.random.default_rng(5).normal(-0.5, 0.3, size=(3 * decompose_module._DRAW_BLOCK, d1.n_cols))
    threads = set()

    def recording_ndtr(v, out=None):
        threads.add(threading.get_ident())
        return ndtr(v, out=out)

    monkeypatch.setattr(decompose_module, "ndtr", recording_ndtr)
    decompose_module.decompose_draws(d1, d2, tilde, tilde + 0.1)
    assert threads == {threading.get_ident()}


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
        assert code == 2
        record = json.loads(captured.err.strip().splitlines()[0])
        assert record["error"]["stage"] == "load_samples"
        assert "length" in record["error"]["message"]
        assert not (tmp_path / "out_bad").exists()

    @pytest.mark.parametrize("name", ["build_design", "write_variance_profile"])
    def test_interrupt_propagates_and_removes_outputs(self, tmp_path, monkeypatch, name):
        # before any output is written, and after some are
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, name, interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(write_config(tmp_path, base_config(tmp_path / "out")))])
        assert not (tmp_path / "out").exists()

    def test_unexpected_error_exits_1_with_its_stage(self, tmp_path, capsys, finished_run, monkeypatch):
        config, run_out = finished_run

        def boom(*args, **kwargs):
            raise RuntimeError("decompose exploded")

        monkeypatch.setattr(cli, "posterior_decompose", boom)
        out = tmp_path / "out"
        argv = ["decompose", "--config", str(config), "--out", str(out),
                "--draws1", str(run_out / "draws_s1.csv"), "--draws2", str(run_out / "draws_s2.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[0]) == {
            "error": {"stage": "decompose", "type": "RuntimeError", "message": "decompose exploded"}
        }
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["input"]["s1_path"] = "x.csv"
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "maternal_age", [None, {"dist": "uniform", "low": 10, "high": 50}], ids=["default", "ages_10_to_50"]
    )
    def test_simulate_then_csv_run_round_trip(self, tmp_path, capsys, maternal_age):
        # synthetic births to mothers outside ages 15-45 are dropped as
        # ingest_csv drops them, so both routes fit the same samples
        sim_dir = tmp_path / "sim"
        cfg = base_config(sim_dir)
        if maternal_age is not None:
            covariates(cfg)["maternal_age"] = maternal_age
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "synthetic_out")]) == 0
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
        for name in ("decomposition.json", "draws_s1.csv", "diagnostics.json"):
            assert (tmp_path / "csv_out" / name).read_bytes() == (tmp_path / "synthetic_out" / name).read_bytes(), name

    def test_fit_then_decompose_matches_run(self, tmp_path, capsys, simulated_csvs):
        # also on a csv pair whose clusters are interleaved: its births are fitted in file order
        for survey in ("s1", "s2"):
            header, *body = (simulated_csvs / f"{survey}.csv").read_text(encoding="utf-8").splitlines(keepends=True)
            (tmp_path / f"{survey}.csv").write_text(header + "".join(body[::2] + body[1::2]), encoding="utf-8")
        schema = CovariateSchema.from_dict(base_config(tmp_path)["schema"])
        assert np.any(np.diff(ingest_csv(tmp_path / "s1.csv", schema, 2000).cluster) < 0)
        configs = {
            "synthetic": base_config,
            "interleaved_csv": lambda out: csv_config(out, tmp_path / "s1.csv", tmp_path / "s2.csv"),
        }
        for mode, config in configs.items():
            onepass = tmp_path / mode / "onepass"
            path = write_config(tmp_path, config(onepass))
            assert main(["run", "--config", str(path)]) == 0

            twopass = tmp_path / mode / "twopass"
            path2 = write_config(tmp_path, config(twopass), "config2.json")
            assert main(["fit", "--config", str(path2), "--survey", "s1"]) == 0
            assert main(["fit", "--config", str(path2), "--survey", "s2"]) == 0
            assert main(["decompose", "--config", str(path2)]) == 0
            capsys.readouterr()

            shared = EXPECTED_FILES - {"diagnostics.json", "run_manifest.json"}
            assert {p.name for p in twopass.iterdir()} == shared
            for name in sorted(shared):
                assert (twopass / name).read_bytes() == (onepass / name).read_bytes(), (mode, name)

    def test_decompose_respects_order_override(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(path)]) == 0
        assert main(["decompose", "--config", str(path), "--order", "sex,intercept"]) == 0
        capsys.readouterr()
        doc = json.loads((out / "decomposition.json").read_text())
        assert doc["order"] == ["sex", "intercept"]

    def test_run_rejects_an_unknown_order_group_before_fitting(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(path), "--order", "sex,bogus"]) == 2
        record = self.error_record(capsys)
        assert record["stage"] == "configure" and "order must be a permutation" in record["message"]
        assert not list(out.glob("draws_*"))

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
        with pytest.warns(UserWarning, match="records no survey"):
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

    def test_decompose_refuses_swapped_draws_files(self, tmp_path, capsys, finished_run):
        config, run_out = finished_run
        argv = ["decompose", "--config", str(config), "--out", str(tmp_path / "out"),
                "--draws1", str(run_out / "draws_s2.csv"), "--draws2", str(run_out / "draws_s1.csv")]
        assert main(argv) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError"
        assert record["message"] == (
            f"{run_out / 'draws_s2.csv'} holds draws fitted to survey S2, but decompose pairs it with "
            "survey S1; the two draws files look swapped"
        )
        assert not (tmp_path / "out" / "decomposition.json").exists()

    def test_decompose_refuses_one_draws_file_given_twice_without_a_swap_hint(self, tmp_path, capsys, finished_run):
        # both files record survey 1: only the second is wrong, and nothing is swapped
        config, run_out = finished_run
        argv = ["decompose", "--config", str(config), "--out", str(tmp_path / "out"),
                "--draws1", str(run_out / "draws_s1.csv"), "--draws2", str(run_out / "draws_s1.csv")]
        assert main(argv) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError"
        assert record["message"] == (
            f"{run_out / 'draws_s1.csv'} holds draws fitted to survey S1, but decompose pairs it with survey S2"
        )
        assert not (tmp_path / "out" / "decomposition.json").exists()

    def test_decompose_reads_draws_without_a_sidecar(self, tmp_path, capsys, finished_run):
        # no sidecar records a survey, so nothing can be checked against it
        config, run_out = finished_run
        bare = tmp_path / "bare"
        bare.mkdir()
        for sid in ("s1", "s2"):
            (bare / f"draws_{sid}.csv").write_bytes((run_out / f"draws_{sid}.csv").read_bytes())
        with pytest.warns(UserWarning, match="records no survey"):
            assert main(["decompose", "--config", str(config), "--out", str(bare)]) == 0
        capsys.readouterr()
        assert (bare / "decomposition.json").read_bytes() == (run_out / "decomposition.json").read_bytes()

    @pytest.mark.parametrize("unchecked", ["no_sidecar", "sidecar_without_survey_id"])
    def test_decompose_warns_once_per_draws_file_it_cannot_check(self, tmp_path, capsys, finished_run, unchecked):
        config, run_out = finished_run
        for sid in ("s1", "s2"):
            (tmp_path / f"draws_{sid}.csv").write_bytes((run_out / f"draws_{sid}.csv").read_bytes())
        sidecar = json.loads((run_out / "draws_s1.json").read_text())
        del sidecar["survey_id"]
        if unchecked == "sidecar_without_survey_id":
            (tmp_path / "draws_s1.json").write_text(json.dumps(sidecar))
        (tmp_path / "draws_s2.json").write_bytes((run_out / "draws_s2.json").read_bytes())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["decompose", "--config", str(config), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        messages = [str(w.message) for w in caught if "records no survey" in str(w.message)]
        assert messages == [
            f"{tmp_path / 'draws_s1.csv'} records no survey (no sidecar, or none with a survey_id), "
            "so decompose cannot check that it was fitted to survey S1"
        ]

    @pytest.mark.parametrize("command", ["decompose_swapped", "fit_missing_csv", "simulate_bad_generator", "run_bad_beta"])
    def test_refused_command_leaves_no_output_directory(self, tmp_path, capsys, finished_run, command):
        config, run_out = finished_run
        out = tmp_path / "new" / "swapped"
        if command == "decompose_swapped":
            argv = ["decompose", "--config", str(config), "--out", str(out),
                    "--draws1", str(run_out / "draws_s2.csv"), "--draws2", str(run_out / "draws_s1.csv")]
        elif command == "fit_missing_csv":
            csv_path = write_config(tmp_path, csv_config(out, tmp_path / "absent.csv", tmp_path / "absent.csv"))
            argv = ["fit", "--config", str(csv_path), "--survey", "s1"]
        else:
            cfg = base_config(out)
            if command == "simulate_bad_generator":
                covariates(cfg).update(sex={"dist": "choice", "values": ["f", "m"]})
            else:
                cfg["input"]["dgp"]["s1"]["beta"] = [-1.1]
            argv = [command.split("_")[0], "--config", str(write_config(tmp_path, cfg))]
        assert main(argv) == 2
        capsys.readouterr()
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command, squatted", [
        ("run", "diagnostics.json"),
        ("decompose", "coef_decomp.csv"),
        ("fit", "draws_s1.json"),
        ("simulate", "s2.csv"),
        ("report", "overall_decomp.csv"),
    ])
    def test_failed_command_removes_the_files_it_started(self, tmp_path, capsys, finished_run, command, squatted):
        # a directory squats on one of the command's later outputs, so
        # writing there fails after earlier outputs were written
        config, run_out = finished_run
        out = tmp_path / "out"
        out.mkdir()
        inputs = {
            "decompose": ["draws_s1.csv", "draws_s1.json", "draws_s2.csv", "draws_s2.json"],
            "report": ["decomposition.json"],
        }.get(command, [])
        for name in inputs:
            (out / name).write_bytes((run_out / name).read_bytes())
        (out / squatted).mkdir()
        if command == "report":
            argv = ["report", "--results", str(out / "decomposition.json")]
        else:
            argv = [command, "--config", str(config), "--out", str(out)]
            argv += ["--survey", "s1"] if command == "fit" else []
        # a failed write is not refused input: exit 1, the record, no usage hint and no "wrote" line
        assert main(argv) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.err.splitlines()[0])["error"]
        assert record["stage"] == "emit" and record["type"] == "IsADirectoryError"
        assert "for usage" not in captured.err and "wrote" not in captured.out
        for name in inputs:
            assert (out / name).read_bytes() == (run_out / name).read_bytes(), name
        assert sorted(p.name for p in out.iterdir()) == sorted([*inputs, squatted])
        assert (out / squatted).is_dir()

    @staticmethod
    def error_record(capsys):
        return json.loads(capsys.readouterr().err.strip().splitlines()[0])["error"]

    @pytest.mark.parametrize(
        "malform, words",
        [
            (lambda cfg: cfg["input"]["dgp"]["s2"].pop("beta"), "beta"),
            *MALFORMED_GENERATOR.values(),
            # generated values that break a sample invariant
            (lambda cfg: covariates(cfg).update(sex={"dist": "choice", "values": ["f", "m"]}), "sex"),
            (lambda cfg: covariates(cfg).update(maternal_age={"dist": "uniform", "low": 50, "high": 60}), "S1"),
        ],
        ids=["without_beta", *MALFORMED_GENERATOR, "sex_levels_unknown", "no_age_in_range"],
    )
    def test_simulate_without_beta_exits_2(self, tmp_path, capsys, malform, words):
        cfg = base_config(tmp_path / "out")
        malform(cfg)
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError" and words in record["message"]

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

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("components.x_effect", "annualized", "fast"),
            ("rates_per_1000.s1", "mean", float("nan")),
            ("components.x_effect", "annualized", float("inf")),
        ],
        ids=["fast", "nan", "infinity"],
    )
    def test_report_on_wrong_field_type_exits_2(self, tmp_path, capsys, section, key, value):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, base_config(out)))]) == 0
        doc = json.loads((out / "decomposition.json").read_text())
        first, second = section.split(".")
        doc[first][second][key] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "rendered")]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError" and f"{section}.{key}" in record["message"]

    @pytest.mark.parametrize(
        "malform, words",
        [
            (lambda cfg: cfg.update(survey_years={"s1": 2000}), "s2"),
            (lambda cfg: cfg.update(survey_years={"s1": 2000, "s2": "later"}), "survey_years.s2"),
            (lambda cfg: cfg["input"]["dgp"].pop("s2"), "s2"),
            (lambda cfg: cfg.update(mcmc=5), "mcmc must be an object"),
            (lambda cfg: cfg.update(prior=[1.0]), "prior must be an object"),
            (lambda cfg: cfg.update(schema={}), "covariates"),
            # values of the wrong type inside a well-shaped config
            (lambda cfg: cfg.update(mcmc={"total": "abc"}), "mcmc.total"),
            (lambda cfg: cfg.update(seed="abc"), "seed"),
            (lambda cfg: cfg.update(poor_quantile="abc"), "config has unknown key(s): poor_quantile"),
            (lambda cfg: cfg.update(order=5), "order"),
            (lambda cfg: cfg["input"]["dgp"]["s1"].update(sigma2="x"), "sigma2"),
            (lambda cfg: cfg["input"]["dgp"]["s1"].update(beta=5), "beta"),
            (lambda cfg: cfg["input"]["dgp"]["s2"].update(covariates=[1]), "covariates"),
            (lambda cfg: cfg.update(schema={"covariates": [5]}), "schema.covariates[0] must be an object"),
            # numbers are checked, never converted: no truncation, no strings, no booleans, no NaN
            (lambda cfg: cfg["mcmc"].update(thin=2.5), "mcmc.thin"),
            (lambda cfg: cfg["mcmc"].update(total="3000"), "mcmc.total"),
            (lambda cfg: cfg.update(seed=True), "seed"),
            (lambda cfg: cfg.update(seed=-5), "seed must be a non-negative integer"),
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
            (lambda cfg: cfg.update(out_dir=5), "out_dir"),
            (lambda cfg: cfg.update(order=["intercept", 5]), "order[1]"),
            # null stands for a default only where that default is null: a section takes none
            *((lambda cfg, key=key: cfg.update({key: None}), f"{key} must be an object")
              for key in ("schema", "survey_years", "prior", "mcmc", "input")),
            # the order is checked against the schema when the config is read, before any fit
            (lambda cfg: cfg.update(order=["intercept", "bogus"]), "order must be a permutation"),
            (lambda cfg: cfg.update(order=["sex"]), "order must be a permutation"),
            (lambda cfg: cfg.update(order=["intercept", "sex", "sex"]), "order must be a permutation"),
            (lambda cfg: cfg.update(survey_years={"s1": "2000", "s2": 2014}), "survey_years.s1"),
            (lambda cfg: cfg.update(survey_years={"s1": 2000, "s2": 2014.7}), "survey_years.s2"),
            (lambda cfg: cfg["schema"]["covariates"][0].update(name=["sex"]), "schema.covariates[0].name"),
            (lambda cfg: cfg["schema"]["covariates"][0].update(allow_missing="yes"), "schema.covariates[0].allow_missing"),
            # a binary reference must be one of the field's levels, not a list, number or misspelling
            (lambda cfg: cfg["schema"]["covariates"][0].update(reference=["female"]), "schema.covariates[0]: sex: reference"),
            (lambda cfg: cfg["schema"]["covariates"][0].update(reference=5), "schema.covariates[0]: sex: reference"),
            (lambda cfg: cfg["schema"]["covariates"][0].update(reference="femal"), "schema.covariates[0]: sex: reference"),
            *MALFORMED_GENERATOR.values(),
            # unknown keys are rejected in every section, not ignored
            (lambda cfg: cfg.update(auto_extnd=False), "auto_extnd"),
            (lambda cfg: cfg["input"].update(s1_pth="s1.csv"), "s1_pth"),
            (lambda cfg: cfg["input"]["dgp"].update(s3=cfg["input"]["dgp"]["s2"]), "s3"),
            (lambda cfg: cfg["input"]["dgp"]["s1"].update(covariate={}), "covariate"),
            (lambda cfg: cfg.update(survey_years={"s1": 2000, "s2": 2014, "s3": 2020}), "s3"),
            (lambda cfg: cfg["schema"].update(covariats=[]), "covariats"),
            (lambda cfg: covariates(cfg)["sex"].update(prob=[0.9, 0.1]), "prob"),
            (lambda cfg: covariates(cfg).update(sexx=covariates(cfg)["sex"]), "sexx"),
            (lambda cfg: cfg["input"]["dgp"].update(poor_quantile=0.5), "poor_quantile"),
            (lambda cfg: cfg["mcmc"].update(allow_short="no"), "mcmc has unknown key(s): allow_short"),
            # a key that the covariate's kind does not take is rejected, not ignored
            (lambda cfg: cfg["schema"]["covariates"][0].update(degree=3), "a binary covariate takes no degree"),
            (
                lambda cfg: cfg["schema"]["covariates"].append(
                    {"name": "wealth_rank", "kind": "continuous_spline", "reference": 0.5}
                ),
                "schema.covariates[1]: a continuous_spline covariate takes no reference",
            ),
            # a spline needs a numeric field, and the covariates a list
            (
                lambda cfg: cfg.update(schema={"covariates": [{"name": "sex", "kind": "continuous_spline"}]}),
                "schema.covariates[0]: sex: a spline needs a numeric field",
            ),
            (lambda cfg: cfg.update(schema={"covariates": -5970}), "schema.covariates must be a list, got -5970"),
        ],
        ids=[
            "survey_years_without_s2", "survey_years_not_integers", "dgp_without_s2",
            "mcmc_not_object", "prior_not_object", "schema_without_covariates",
            "mcmc_total_not_number", "seed_not_number", "poor_quantile_not_number", "order_not_list",
            "dgp_sigma2_not_number", "dgp_beta_not_list", "dgp_covariates_not_object", "schema_covariate_not_object",
            "mcmc_thin_fractional", "mcmc_total_numeric_string", "seed_boolean", "seed_negative",
            "prior_beta_sd_nan_string",
            "prior_beta_sd_nan", "dgp_n_clusters_fractional", "csv_path_not_string",
            "auto_extend_string", "out_dir_number", "order_entry_number",
            "schema_null", "survey_years_null", "prior_null", "mcmc_null", "input_null",
            "order_unknown_group", "order_without_intercept", "order_duplicate_group",
            "survey_year_string", "survey_year_fractional", "schema_name_not_string", "schema_allow_missing_string",
            "schema_reference_list", "schema_reference_number", "schema_reference_misspelt",
            *MALFORMED_GENERATOR,
            "top_level_unknown_key", "input_unknown_key", "dgp_unknown_survey", "dgp_survey_unknown_key",
            "survey_years_unknown_key", "schema_unknown_key", "dist_unknown_key", "dgp_covariate_unknown_field",
            "dgp_poor_quantile", "mcmc_allow_short_string", "binary_degree", "spline_reference",
            "spline_on_levels", "schema_covariates_not_list",
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
        assert record["message"] == f"{tmp_path / 'sim' / 's2.csv'}, line 4: non-finite value maternal_age='inf'"

    def test_report_rerenders_tables(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(path)]) == 0
        rendered = tmp_path / "rendered"
        assert main(["report", "--results", str(out / "decomposition.json"), "--out", str(rendered)]) == 0
        capsys.readouterr()
        assert (rendered / "mortality.csv").read_text() == (out / "mortality.csv").read_text()
        assert (rendered / "overall_decomp.csv").read_text() == (out / "overall_decomp.csv").read_text()

    def test_validate_reports_convention_failure(self, capsys, monkeypatch):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        # scaling by sqrt(1 + sigma2) instead of dividing by it must fail the grid
        monkeypatch.setattr(validation, "marginalize", lambda beta, sigma2: np.asarray(beta) * np.sqrt(1.0 + sigma2))
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL mc_marginalization_grid" in out

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, command):
        argv = [command, "--seed", "-1"]
        if command == "run":
            argv += ["--config", str(write_config(tmp_path, base_config(tmp_path / "out")))]
        assert main(argv) == 2
        record = self.error_record(capsys)
        assert record["stage"] == "configure" and record["type"] == "ConfigError"
        assert record["message"] == "seed must be a non-negative integer, got -1"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "c.json", "--order", "sex"],
            ["simulate", "--config", "c.json", "--marginalization", "appendix_divide"],
            ["fit", "--config", "c.json", "--survey", "s1", "--order", "sex"],
            ["fit", "--config", "c.json", "--survey", "s1", "--marginalization", "maintext_multiply"],
            ["validate", "--config", "c.json"],
            ["validate", "--out", "out"],
            ["validate", "--order", "sex"],
            ["run", "--config", "c.json", "--marginalization", "appendix_divide"],
            ["decompose", "--config", "c.json", "--marginalization", "appendix_divide"],
            ["validate", "--marginalization", "appendix_divide"],
        ],
        ids=["simulate_order", "simulate_marginalization", "fit_order", "fit_marginalization",
             "validate_config", "validate_out", "validate_order",
             "run_marginalization", "decompose_marginalization", "validate_marginalization"],
    )
    def test_flag_the_subcommand_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_empty_order_flag_is_refused_as_in_the_file(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--order", ""]) == 2
        flag = self.error_record(capsys)
        cfg["order"] = [""]
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert flag == self.error_record(capsys)
        assert flag["stage"] == "configure" and flag["type"] == "ConfigError"
        assert flag["message"] == "order must be a permutation of ['intercept', 'sex'], got ['']"
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, capsys):
        assert main(["run", "--config", "/nonexistent/config.json"]) == 2
        assert "for usage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case",
        ["config_bytes", "config_directory", "results_bytes", "draws_bytes", "draws_directory"],
    )
    def test_unreadable_input_exits_2(self, tmp_path, capsys, finished_run, case):
        config, out = finished_run
        bad = tmp_path / "bad"
        if case.endswith("_bytes"):
            source = {"config": config, "results": out / "decomposition.json", "draws": out / "draws_s1.csv"}
            text = source[case.removesuffix("_bytes")].read_bytes()
            bad.write_bytes(text[:40] + b"\xff" + text[40:])
        else:
            bad.mkdir()
        argv = {
            "config": ["run", "--config", str(bad), "--out", str(tmp_path / "out")],
            "results": ["report", "--results", str(bad)],
            "draws": ["decompose", "--config", str(config), "--out", str(tmp_path / "out"), "--draws1", str(bad)],
        }[case.split("_")[0]]
        capsys.readouterr()
        assert main(argv) == 2
        record = self.error_record(capsys)
        if case.endswith("_bytes"):
            assert record["type"] == "ConfigError"
            assert record["message"].startswith(f"{bad}: not UTF-8 text")
        else:
            assert record["type"] == "IsADirectoryError" and str(bad) in record["message"]
        assert not (tmp_path / "out" / "decomposition.json").exists()

    @pytest.mark.parametrize("command, code", [("decompose", 2), ("run", 2)])
    def test_survey_csv_that_is_not_utf8(self, tmp_path, capsys, command, code):
        cfg = base_config(tmp_path / "sim")
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 0
        s2 = tmp_path / "sim" / "s2.csv"
        s2.write_bytes(s2.read_bytes().replace(b"male", b"m\xe4le", 1))
        cfg["input"] = {"mode": "csv", "s1_path": str(tmp_path / "sim" / "s1.csv"), "s2_path": str(s2)}
        cfg["survey_years"] = {"s1": 2000, "s2": 2014}
        cfg["out_dir"] = str(tmp_path / "out")
        capsys.readouterr()
        assert main([command, "--config", str(write_config(tmp_path, cfg, "csv.json"))]) == code
        error = self.error_record(capsys)
        assert error["stage"] == "load_samples"
        assert error["type"] == "ConfigError" and error["message"].startswith(f"{s2}: not UTF-8 text")

    @pytest.mark.parametrize(
        "section, key",
        [("components.x_effect", f.name) for f in fields(ComponentSummary) if f.name != "name"]
        + [("rates_per_1000.s1", key) for key in ("mean", "lower", "upper")],
    )
    def test_every_results_field_is_required(self, tmp_path, capsys, finished_run, section, key):
        doc = json.loads((finished_run[1] / "decomposition.json").read_text())
        fields_doc = doc
        for part in section.split("."):
            fields_doc = fields_doc[part]
        del fields_doc[key]
        path = tmp_path / "decomposition.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["report", "--results", str(path)]) == 2
        record = self.error_record(capsys)
        assert record["type"] == "ConfigError" and f"{section}.{key}" in record["message"]

    def test_null_percents_are_accepted(self, tmp_path, capsys, finished_run):
        doc = json.loads((finished_run[1] / "decomposition.json").read_text())
        for comp in doc["components"].values():
            comp.update(percent=None, percent_lower=None, percent_upper=None)
        path = tmp_path / "decomposition.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["report", "--results", str(path)]) == 0
        overall = (tmp_path / "overall_decomp.csv").read_text().splitlines()
        assert all(row.split(",")[4:7] == ["", "", ""] for row in overall[1:])

    def test_every_json_file_has_one_format(self, finished_run):
        out = finished_run[1]
        names = sorted(p.name for p in out.glob("*.json"))
        assert names == ["decomposition.json", "diagnostics.json", "draws_s1.json", "draws_s2.json",
                         "run_manifest.json"]
        for name in names:
            text = (out / name).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name

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


# Every top-level default of a run config as JSON; mcmc's is the one key of that section whose default is null.
_SPELLED_DEFAULTS = {"order": None, "auto_extend": True, "prior": {}, "mcmc": {"thin": None}}


@pytest.mark.parametrize("chain", ["given", "default"])
@pytest.mark.parametrize("index", range(len(_valid_configs())), ids=["synthetic", "csv"])
def test_config_reader_reads_spelled_out_defaults_alike(index, chain):
    cfg = _valid_configs()[index]
    if chain == "default":
        del cfg["mcmc"]
    spelled = {**copy.deepcopy(_SPELLED_DEFAULTS), **copy.deepcopy(cfg)}
    spelled["mcmc"] = {"thin": None, **spelled["mcmc"]}
    plain, full = RunConfig.from_dict(cfg), RunConfig.from_dict(spelled)
    for name in (f.name for f in fields(RunConfig) if f.name != "echo"):
        assert getattr(full, name) == getattr(plain, name), name
    assert full.echo == spelled and plain.echo == cfg


@settings(max_examples=300, deadline=None)
@given(cfg=mutated_configs())
def test_config_reader_returns_or_raises_mortdecomp_error(cfg):
    try:
        RunConfig.from_dict(cfg)
    except MortdecompError:
        pass


def test_names_the_benchmark_reaches_still_exist(monkeypatch):
    # perfbench/ imports and wraps program names; a renamed or deleted one
    # fails here in seconds, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    import workloads  # noqa: F401

    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
    finally:
        tracer.restore()
    from mortdecomp import sample_truncated_normal  # noqa: F401


def test_the_decompose_benchmark_set_up_writes_its_inputs(monkeypatch, tmp_path):
    # the set-up calls build_design on pool_samples(s1, s2) in process, so a
    # change to either call shape breaks it here, not only in a benchmark
    # run; at 20 x 10 births a survey
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import workloads

    write = workloads._write_surveys
    monkeypatch.setattr(workloads, "_write_surveys", lambda work, seed, *size: write(work, seed, 20, 10))
    prepared = workloads._setup_decompose(tmp_path, 1, root)
    assert len(prepared.inputs) == 7
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(prepared.inputs)
    schema = default_schema()
    s1, s2 = (ingest_csv(tmp_path / f"s{k}.csv", schema, year) for k, year in zip((1, 2), workloads.YEARS))
    groups = build_design(s1, schema, compute_centering(s1, schema), pool_samples(s1, s2)).column_groups
    for k in (1, 2):
        draws = load_draws(tmp_path / f"draws_s{k}.csv", tmp_path / f"draws_s{k}.json")
        assert draws.column_groups == groups and draws.n_draws == workloads.DECOMPOSE_DRAWS


def test_shell_start_writes_the_same_bytes_as_main(tmp_path, capsys):
    # a shell start sets OPENBLAS_NUM_THREADS=1 before numpy loads; main in
    # this process holds one thread instead; every hashed output must match
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    shell = write_config(tmp_path, base_config(tmp_path / "shell"), "shell.json")
    proc = subprocess.run([sys.executable, "-m", "mortdecomp.cli", "run", "--config", str(shell)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    in_process = write_config(tmp_path, base_config(tmp_path / "in_process"), "in_process.json")
    assert main(["run", "--config", str(in_process)]) == 0
    capsys.readouterr()
    hashed = json.loads((tmp_path / "shell" / "run_manifest.json").read_text())["files"]
    assert set(hashed) == EXPECTED_FILES - {"run_manifest.json"}
    for name in hashed:
        assert (tmp_path / "shell" / name).read_bytes() == (tmp_path / "in_process" / name).read_bytes(), name
