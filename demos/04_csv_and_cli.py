"""The file-based workflow: survey CSVs in, report tables out.

Writes a pair of synthetic survey CSVs in the ingestion format, then
drives the command-line pipeline on them and prints the emitted tables.
Everything is reproducible from the config seed.

Run with:  python demos/04_csv_and_cli.py
"""

import json
import tempfile
from pathlib import Path

from mortdecomp import SyntheticConfig, SyntheticSurveySpec, default_schema, synthesize, write_survey_csv
from mortdecomp.cli import main

with tempfile.TemporaryDirectory(prefix="mortdecomp_demo_") as tmp:
    work = Path(tmp)
    print(f"working under {work}")

    schema = default_schema()
    covariates = {
        "wealth_rank": {"dist": "uniform", "low": 0.0, "high": 1.0},
        "maternal_education": {"dist": "uniform", "low": 0.0, "high": 12.0},
        "maternal_age": {"dist": "uniform", "low": 16.0, "high": 43.0},
        "birth_order": {"dist": "choice", "values": [1, 2, 3, 4, 5, 6], "probs": [0.3, 0.25, 0.2, 0.12, 0.08, 0.05]},
        # intervals are undefined for about a third of births (first births)
        "birth_interval": {"dist": "uniform", "low": 10.0, "high": 60.0, "missing_prob": 0.3},
        "sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.49, 0.51]},
        "residence": {"dist": "choice", "values": ["rural", "urban"], "probs": [0.6, 0.4]},
    }
    # intercept + 4 spline cols per continuous covariate (+1 missing flag for
    # birth interval) + 2 binaries = 1 + 4*5 + 1 + 2 = 24 design columns
    common_blocks = (
        [-0.15, -0.3, -0.4, -0.5]        # wealth_rank
        + [0.0, -0.05, -0.1, -0.15]      # maternal_education
        + [0.0, 0.05, 0.1, 0.15]         # maternal_age
        + [0.05, 0.1, 0.15, 0.2]         # birth_order
        + [0.1, 0.05, 0.0, -0.05, 0.05]  # birth_interval splines + missing flag
        + [0.2, -0.15]                   # sex, residence
    )
    beta_s1 = [-1.2] + common_blocks
    beta_s2 = [-1.55] + common_blocks

    dgp = SyntheticConfig(
        schema=schema,
        s1=SyntheticSurveySpec(beta=tuple(beta_s1), sigma2=0.2, n_clusters=100,
                               births_per_cluster=15, survey_year=1998, covariates=covariates),
        s2=SyntheticSurveySpec(beta=tuple(beta_s2), sigma2=0.15, n_clusters=100,
                               births_per_cluster=15, survey_year=2012, covariates=covariates),
    )

    s1, s2 = synthesize(dgp, seed=99)
    write_survey_csv(s1, work / "s1.csv")
    write_survey_csv(s2, work / "s2.csv")
    print("wrote survey CSVs; first lines:")
    for line in (work / "s1.csv").read_text().splitlines()[:3]:
        print(f"  {line[:100]}")

    config = {
        "seed": 365,
        "out_dir": str(work / "out"),
        "input": {"mode": "csv", "s1_path": str(work / "s1.csv"), "s2_path": str(work / "s2.csv")},
        "survey_years": {"s1": 1998, "s2": 2012},
        "schema": schema.to_dict(),
        "mcmc": {"total": 1000 + 1250 * 3, "burnin": 1000, "thin": 3},
        "auto_extend": False,
    }
    (work / "config.json").write_text(json.dumps(config, indent=2))

    print("\nrunning: mortdecomp run --config config.json")
    code = main(["run", "--config", str(work / "config.json")])
    print(f"exit status {code}\n")

    for table in ("mortality.csv", "overall_decomp.csv", "coef_decomp.csv"):
        print(f"--- {table}")
        print((work / "out" / table).read_text())

    manifest = json.loads((work / "out" / "run_manifest.json").read_text())
    print(f"manifest lists {len(manifest['files'])} files with content hashes; "
          f"rerunning with the same seed reproduces every byte.")
