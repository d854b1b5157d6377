"""The benchmark's three workloads: seeded inputs, the timed command, and checks.

Every workload draws its data from one data-generating process, that of
``demos/04_csv_and_cli.py``: the default 7-covariate schema (24 design
columns), intercept -1.2 in survey 1 and -1.55 in survey 2, and survey 2's
residence at 50/50.  Inputs are generated through the public API
(``synthesize``, ``write_survey_csv``, ``save_draws``) or the ``simulate``
subcommand, so the program under test receives only files.

``WORKLOADS`` maps a name to its ``Workload``.  ``setup`` writes one input
set and returns the ``Prepared`` command; ``check`` validates one finished
command's outputs and returns a list of failure messages (empty when the
outputs are correct) plus the output hashes that must repeat across
commands at one seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mortdecomp import (
    PosteriorDraws,
    SyntheticConfig,
    SyntheticSurveySpec,
    build_design,
    compute_centering,
    default_schema,
    pool_samples,
    save_draws,
    synthesize,
    write_survey_csv,
)

YEARS = (1998, 2012)
SIGMA2 = (0.2, 0.15)
INTERCEPTS = (-1.2, -1.55)

_COVARIATES = {
    "wealth_rank": {"dist": "uniform", "low": 0.0, "high": 1.0},
    "maternal_education": {"dist": "uniform", "low": 0.0, "high": 12.0},
    "maternal_age": {"dist": "uniform", "low": 16.0, "high": 43.0},
    "birth_order": {"dist": "choice", "values": [1, 2, 3, 4, 5, 6], "probs": [0.3, 0.25, 0.2, 0.12, 0.08, 0.05]},
    "birth_interval": {"dist": "uniform", "low": 10.0, "high": 60.0, "missing_prob": 0.3},
    "sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.49, 0.51]},
    "residence": {"dist": "choice", "values": ["rural", "urban"], "probs": [0.6, 0.4]},
}
_COVARIATES_S2 = {**_COVARIATES, "residence": {"dist": "choice", "values": ["rural", "urban"], "probs": [0.5, 0.5]}}
_BLOCKS = (
    [-0.15, -0.3, -0.4, -0.5]        # wealth_rank
    + [0.0, -0.05, -0.1, -0.15]      # maternal_education
    + [0.0, 0.05, 0.1, 0.15]         # maternal_age
    + [0.05, 0.1, 0.15, 0.2]         # birth_order
    + [0.1, 0.05, 0.0, -0.05, 0.05]  # birth_interval splines + missing flag
    + [0.2, -0.15]                   # sex, residence
)
TRUE_BETA = (np.array([INTERCEPTS[0]] + _BLOCKS), np.array([INTERCEPTS[1]] + _BLOCKS))

BINARY_SCHEMA = {
    "covariates": [
        {"name": "sex", "kind": "binary", "reference": "female"},
        {"name": "residence", "kind": "binary", "reference": "rural"},
    ]
}

TABLES = ("mortality.csv", "overall_decomp.csv", "coef_decomp.csv", "variance_profile.csv", "decomposition.json")
RUN_OUTPUTS = TABLES + (
    "draws_s1.csv", "draws_s1.json", "draws_s2.csv", "draws_s2.json", "diagnostics.json", "run_manifest.json",
)

# Draws the benchmark writes for ``decompose``: half the pipeline's default
# 1250, so that two commands fit in one run; the cost per draw is unchanged.
DECOMPOSE_DRAWS = 625
# Posterior-like spread of those draws around the truth.
_DRAW_BETA_SD = 0.05
_DRAW_LOG_SIGMA2_SD = 0.1


def dgp_dict(n_clusters: int, births_per_cluster: int) -> dict:
    """The shared data-generating process at one size, as a config ``dgp`` object."""
    return {
        sid: {
            "beta": list(beta), "sigma2": s2, "n_clusters": n_clusters,
            "births_per_cluster": births_per_cluster, "survey_year": year, "covariates": cov,
        }
        for sid, beta, s2, year, cov in zip(
            ("s1", "s2"), TRUE_BETA, SIGMA2, YEARS, (_COVARIATES, _COVARIATES_S2)
        )
    }


def _synthetic_config(n_clusters: int, births_per_cluster: int) -> SyntheticConfig:
    spec = dgp_dict(n_clusters, births_per_cluster)
    return SyntheticConfig(
        schema=default_schema(),
        s1=SyntheticSurveySpec.from_dict(spec["s1"]),
        s2=SyntheticSurveySpec.from_dict(spec["s2"]),
    )


def child_env(root: Path) -> dict:
    """The caller's environment with the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def empirical_rates(csv_paths) -> list[float]:
    """Deaths per 1000 births in each survey CSV."""
    rates = []
    for path in csv_paths:
        with open(path, newline="", encoding="utf-8") as fh:
            outcomes = [int(row["outcome"]) for row in csv.DictReader(fh)]
        rates.append(1000.0 * sum(outcomes) / len(outcomes))
    return rates


@dataclass
class Prepared:
    """One generated input set: the CLI arguments to time and what to expect.

    Paths are relative to the set's work directory, which is the working
    directory of every command run on it, so two sets generated from one
    seed are byte-identical.
    """

    argv: list[str]  # mortdecomp arguments; each command adds its own --out
    inputs: list[str]  # files whose bytes must be identical for one seed
    empirical_rates: list[float] | None = None  # deaths per 1000 births the run must report


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    why: str
    command: str
    setup: Callable[[Path, int, Path], Prepared]  # (work dir, seed, checkout root)
    outputs: tuple[str, ...]
    retained: int | None  # draws each survey's chain must retain; None when nothing is fitted


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _setup_run_default(work: Path, seed: int, root: Path) -> Prepared:
    _write_config(work / "config.json", {
        "seed": seed,
        "input": {"mode": "synthetic", "dgp": dgp_dict(200, 25)},
        "schema": default_schema().to_dict(),
        # The README chain (15000 sweeps, 5000 burn-in) cut to 2500/1250 so
        # that two commands fit in one run.  It misses the ESS target at
        # every seed tried, so auto_extend always reruns it at 3750 sweeps.
        "mcmc": {"total": 2500, "burnin": 1250},
        "auto_extend": True,
    })
    # The same config through `simulate` yields the exact samples `run` fits;
    # their empirical rates are the reference for the run's diagnostics.
    subprocess.run(
        [sys.executable, "-m", "mortdecomp.cli", "simulate", "--config", "config.json", "--out", "sim"],
        cwd=work, env=child_env(root), check=True, stdout=subprocess.DEVNULL,
    )
    surveys = ["sim/s1.csv", "sim/s2.csv"]
    return Prepared(
        argv=["run", "--config", "config.json"],
        inputs=["config.json", *surveys],
        empirical_rates=empirical_rates(work / p for p in surveys),
    )


def _write_surveys(work: Path, seed: int, n_clusters: int, births_per_cluster: int):
    s1, s2 = synthesize(_synthetic_config(n_clusters, births_per_cluster), seed=seed)
    write_survey_csv(s1, work / "s1.csv")
    write_survey_csv(s2, work / "s2.csv")
    return s1, s2


def _csv_config(work: Path, seed: int, extra: dict) -> None:
    _write_config(work / "config.json", {
        "seed": seed,
        "input": {"mode": "csv", "s1_path": "s1.csv", "s2_path": "s2.csv"},
        "survey_years": {"s1": YEARS[0], "s2": YEARS[1]},
        **extra,
    })


def _setup_decompose(work: Path, seed: int, root: Path) -> Prepared:
    s1, s2 = _write_surveys(work, seed, 400, 50)
    schema = default_schema()
    layout = build_design(s1, schema, compute_centering(s1, schema), pool_samples(s1, s2)).column_groups
    rng = np.random.default_rng([seed, 20])
    for k, (sid, beta, s2_true) in enumerate(zip(("S1", "S2"), TRUE_BETA, SIGMA2), start=1):
        draws = PosteriorDraws(
            survey_id=sid,
            beta=beta + _DRAW_BETA_SD * rng.standard_normal((DECOMPOSE_DRAWS, beta.size)),
            sigma2=s2_true * np.exp(_DRAW_LOG_SIGMA2_SD * rng.standard_normal(DECOMPOSE_DRAWS)),
            column_groups=dict(layout),
        )
        save_draws(draws, work / f"draws_s{k}.csv", work / f"draws_s{k}.json")
    _csv_config(work, seed, {"schema": schema.to_dict()})
    return Prepared(
        argv=["decompose", "--config", "config.json", "--draws1", "draws_s1.csv", "--draws2", "draws_s2.csv"],
        inputs=["config.json", "s1.csv", "s2.csv", "draws_s1.csv", "draws_s1.json", "draws_s2.csv", "draws_s2.json"],
    )


def _setup_run_binary(work: Path, seed: int, root: Path) -> Prepared:
    _write_surveys(work, seed, 2000, 25)
    _csv_config(work, seed, {
        "schema": BINARY_SCHEMA,
        "mcmc": {"total": 200, "burnin": 100, "thin": 1, "target_retained": 100},
        "auto_extend": False,
    })
    return Prepared(
        argv=["run", "--config", "config.json"],
        inputs=["config.json", "s1.csv", "s2.csv"],
        empirical_rates=empirical_rates([work / "s1.csv", work / "s2.csv"]),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run_default_5k",
            shape="mortdecomp run, synthetic input, default schema (24 columns), 200 clusters x 25 births "
            "per survey, chain total=2500 burnin=1250, auto_extend on (always reruns at 3750)",
            why="the headline user run: the sampler does nearly all the work; ingest, design and "
            "decomposition do little",
            command="run",
            setup=_setup_run_default,
            outputs=RUN_OUTPUTS,
            retained=1250,
        ),
        Workload(
            name="decompose_20k",
            shape=f"mortdecomp decompose, CSV input, default schema, 400 clusters x 50 births per survey, "
            f"{DECOMPOSE_DRAWS} saved draws per survey with sidecars",
            why="decomposition and variance profile on all-distinct rows do almost all the work; "
            "the sampler does none",
            command="decompose",
            setup=_setup_decompose,
            outputs=TABLES,
            retained=None,
        ),
        Workload(
            name="run_binary_50k",
            shape="mortdecomp run, CSV input with all columns, 2000 clusters x 25 births per survey, "
            "binary [sex, residence] schema (3 columns), fixed chain total=200 burnin=100 thin=1",
            why="the data layer is the largest share on 9-column rows; sampler at large n; "
            "decomposition on heavily repeated rows",
            command="run",
            setup=_setup_run_binary,
            outputs=RUN_OUTPUTS,
            retained=100,
        ),
    )
}


_TOL = 1e-10
ESS_TARGET = 1000.0  # the per-parameter target the README states


def check(workload: Workload, prepared: Prepared, out: Path, exit_code: int) -> tuple[list[str], dict]:
    """Validate one finished command.

    Returns the failures found and the SHA-256 of every hashed output,
    which the caller compares across commands of one seed.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    missing = [name for name in workload.outputs if not (out / name).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"], {}

    failures = []
    if workload.command == "run":
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        hashes = manifest["files"]
        expected = set(workload.outputs) - {"run_manifest.json"}
        if set(hashes) != expected:
            failures.append(f"manifest lists {sorted(hashes)}, expected {sorted(expected)}")
        for name, digest in hashes.items():
            if not (out / name).is_file() or sha256(out / name) != digest:
                failures.append(f"manifest hash of {name} does not match the file")
    else:
        hashes = {name: sha256(out / name) for name in workload.outputs}

    doc = json.loads((out / "decomposition.json").read_text(encoding="utf-8"))
    comp = {name: c["mean"] for name, c in doc["components"].items()}
    gap = comp["x_effect"] + comp["beta_effect"] - comp["overall_diff"]
    if abs(gap) > _TOL:
        failures.append(f"x_effect + beta_effect differs from overall_diff by {gap:.3e}")
    gap = sum(comp[name] for name in doc["order"]) - comp["beta_effect"]
    if abs(gap) > _TOL:
        failures.append(f"ordered group effects differ from beta_effect by {gap:.3e}")

    if workload.command == "run":
        diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        for sid, rate in zip(("s1", "s2"), prepared.empirical_rates):
            if abs(diag[sid]["empirical_rate_per_1000"] - rate) > 1e-9:
                failures.append(f"{sid} empirical rate {diag[sid]['empirical_rate_per_1000']} != input's {rate}")
            if diag[sid]["retained"] != workload.retained:
                failures.append(f"{sid} retained {diag[sid]['retained']} draws, expected {workload.retained}")
    return failures, hashes


def chain_quality(out: Path) -> dict:
    """Per survey: extended flag, min ESS and whether it misses the ESS target."""
    diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    return {
        sid: {
            "extended": diag[sid]["extended"],
            "min_ess": diag[sid]["min_ess"],
            "below_target": diag[sid]["min_ess"] < ESS_TARGET,
        }
        for sid in ("s1", "s2")
    }
