"""Command-line pipeline: simulate or ingest, fit both surveys, decompose.

Subcommands:

* ``run``       full pipeline from one JSON config to an output directory
* ``simulate``  write synthetic survey CSVs from the config's generator
* ``fit``       fit one survey and write its draws CSV + sidecar
* ``decompose`` decompose previously saved draws (order can differ per call)
* ``report``    re-render the result tables from a decomposition JSON
* ``validate``  run the internal cross-check suite and print pass/fail lines

Everything a run emits is deterministic given the config seed: derived
seeds feed the generator and each survey's chain, and no output embeds
a timestamp.

``run`` fits the two surveys in two forked processes when numpy's
OpenBLAS exposes its thread control and at least two cores are
available, and one after the other in this process otherwise; the
outputs are the same bytes either way.  A fit process inherits its
design and chain settings through the fork and sends back its
``SurveyFit``, or the error it raised, with the warnings it caught.
From the fits through the decomposition, OpenBLAS is held at one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    CovariateSchema,
    CovariateSpec,
    build_design,
    compute_centering,
    default_schema,
    ingest_csv,
    pool_samples,
    write_survey_csv,
)
from .decompose import (
    _available_cores,
    _one_blas_thread,
    coefficient_decompose,
    overall_decompose,
    posterior_decompose,
)
from .errors import ConfigError, MortdecompError, require_bool, require_number, require_object, require_str
# diagnostics, mean_mortality and variance_collapse are not called in this
# module; perfbench/tracing.py wraps them here by name, so they stay imported.
from .marginal import CONVENTIONS, marginal_prob, marginalize, mean_mortality  # noqa: F401
from .report import (
    load_results,
    summary_to_dict,
    write_all_tables,
    write_decomposition_json,
    write_variance_profile,
)
from .sampler import (
    ChainQualityWarning,
    FitDiagnostics,
    GibbsChain,
    McmcConfig,
    MIN_ESS_TARGET,
    PosteriorDraws,
    PriorSpec,
    diagnostics,  # noqa: F401
    fit,
    load_draws,
    save_draws,
    target_shortfall,
)
from .simulate import SyntheticConfig, SyntheticSurveySpec, synthesize
from .validation import (
    VarianceCollapseProfile,
    linear_oracle,
    mc_marginalization_oracle,
    ml_probit_fit,
    random_design,
    variance_collapse,  # noqa: F401
)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (one input mode, ordered survey years)."""

    seed: int
    out_dir: str
    input_mode: str  # "synthetic" | "csv"
    dgp: SyntheticConfig | None
    csv_paths: tuple[str, str] | None
    survey_years: tuple[int, int]
    schema: CovariateSchema
    prior: PriorSpec
    mcmc: dict
    order: tuple[str, ...] | None
    marginalization: str
    poor_quantile: float
    auto_extend: bool
    echo: dict

    @property
    def years_between(self) -> float:
        return float(self.survey_years[1] - self.survey_years[0])

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict | None = None) -> "RunConfig":
        raw = dict(require_object(raw, "config"))
        overrides = overrides or {}
        for key in ("seed", "out_dir", "order", "marginalization"):
            if overrides.get(key) is not None:
                raw[key] = overrides[key]

        if "input" not in raw or not isinstance(raw["input"], dict):
            raise ConfigError("config needs an 'input' object with a 'mode'")
        inp = raw["input"]
        mode = inp.get("mode")
        has_dgp = "dgp" in inp
        has_csv = "s1_path" in inp or "s2_path" in inp
        if has_dgp and has_csv:
            raise ConfigError("config sets both synthetic and csv inputs; choose one mode")
        if mode not in ("synthetic", "csv"):
            raise ConfigError(f"input.mode must be 'synthetic' or 'csv', got {mode!r}")

        if "schema" in raw:
            schema = CovariateSchema.from_dict(require_object(raw["schema"], "schema", ("covariates",)))
        else:
            schema = default_schema()
        poor_quantile = require_number(raw.get("poor_quantile", 0.2), "poor_quantile")

        dgp = None
        csv_paths = None
        if mode == "synthetic":
            if not has_dgp:
                raise ConfigError("synthetic mode needs input.dgp")
            dgp_raw = require_object(inp["dgp"], "input.dgp", ("s1", "s2"))
            dgp = SyntheticConfig(
                schema=schema,
                s1=SyntheticSurveySpec.from_dict(dgp_raw["s1"]),
                s2=SyntheticSurveySpec.from_dict(dgp_raw["s2"]),
                poor_quantile=require_number(dgp_raw.get("poor_quantile", poor_quantile), "input.dgp.poor_quantile"),
            )
            default_years = (dgp.s1.survey_year, dgp.s2.survey_year)
        else:
            if "s1_path" not in inp or "s2_path" not in inp:
                raise ConfigError("csv mode needs input.s1_path and input.s2_path")
            csv_paths = (inp["s1_path"], inp["s2_path"])
            if not all(isinstance(path, str) for path in csv_paths):
                raise ConfigError(f"input.s1_path and input.s2_path must be strings, got {csv_paths}")
            default_years = None

        if "survey_years" in raw:
            years_raw = require_object(raw["survey_years"], "survey_years", ("s1", "s2"))
            try:
                years = tuple(require_number(years_raw[k], "survey_years", int) for k in ("s1", "s2"))
            except ConfigError:
                raise ConfigError(f"survey_years must be integers, got {years_raw}") from None
        elif default_years is not None:
            years = default_years
        else:
            raise ConfigError("csv mode needs survey_years.s1 and survey_years.s2")
        if years[1] <= years[0]:
            raise ConfigError(f"survey 2 year must exceed survey 1 year, got {years}")

        mcmc = dict(require_object(raw.get("mcmc", {}), "mcmc"))
        if "seed" in mcmc:
            raise ConfigError("set the top-level seed; per-chain seeds are derived from it")
        McmcConfig.from_dict(mcmc)  # validate shape early

        marginalization = raw.get("marginalization", "appendix_divide")
        if marginalization not in CONVENTIONS:
            raise ConfigError(f"marginalization must be one of {CONVENTIONS}")

        order = raw.get("order")
        if order is not None:
            if not isinstance(order, (list, tuple)):
                raise ConfigError(f"order must be a list of group names, got {order!r}")
            order = tuple(require_str(o, f"order[{i}]") for i, o in enumerate(order))

        return cls(
            seed=require_number(raw.get("seed", 0), "seed", int),
            out_dir=require_str(raw.get("out_dir", "out"), "out_dir"),
            input_mode=mode,
            dgp=dgp,
            csv_paths=csv_paths,
            survey_years=years,
            schema=schema,
            prior=PriorSpec.from_dict(raw.get("prior", {})),
            mcmc=mcmc,
            order=order,
            marginalization=marginalization,
            poor_quantile=poor_quantile,
            auto_extend=require_bool(raw.get("auto_extend", True), "auto_extend"),
            echo=raw,
        )

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        text = Path(path).read_text(encoding="utf-8")
        if not text.strip():
            raise ConfigError(f"{path}: config file is empty")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        return cls.from_dict(raw, overrides)


def _derived_seeds(seed: int) -> tuple[int, int, int]:
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(int(c.generate_state(1)[0]) for c in children)


def _load_samples(config: RunConfig):
    sim_seed, _, _ = _derived_seeds(config.seed)
    if config.input_mode == "synthetic":
        return synthesize(config.dgp, seed=sim_seed)
    s1 = ingest_csv(config.csv_paths[0], config.schema, config.survey_years[0], survey_id="S1")
    s2 = ingest_csv(config.csv_paths[1], config.schema, config.survey_years[1], survey_id="S2")
    return s1, s2


def _build_designs(config: RunConfig, s1, s2):
    centering = compute_centering(s1, config.schema, config.poor_quantile)
    pooled = pool_samples(s1, s2)
    d1 = build_design(s1, config.schema, centering, pooled)
    d2 = build_design(s2, config.schema, centering, pooled)
    return d1, d2, centering


def _mcmc_for(config: RunConfig, chain_seed: int) -> McmcConfig:
    return McmcConfig.from_dict({**config.mcmc, "seed": chain_seed})


@dataclass(frozen=True)
class SurveyFit:
    """One survey's retained draws and how the chain that produced them went."""

    draws: PosteriorDraws
    diagnostics: FitDiagnostics | None  # None below 100 retained draws
    mcmc: McmcConfig  # the configuration the draws were retained under
    extended: bool
    sweeps: int
    target_met: bool


def _fit_survey(design, prior, mcmc, auto_extend) -> SurveyFit:
    """Fit one survey; a chain short of its target is continued once to ``mcmc.extended()``."""
    chain = GibbsChain(design, prior, mcmc)
    draws = fit(design, prior, mcmc, chain)
    extended = auto_extend and target_shortfall(draws, chain.diagnostics, mcmc) is not None
    if extended:
        mcmc = mcmc.extended()
        draws = fit(design, prior, mcmc, chain)
    return SurveyFit(
        draws=draws,
        diagnostics=chain.diagnostics,
        mcmc=mcmc,
        extended=extended,
        sweeps=chain.sweeps,
        target_met=chain.diagnostics is not None and target_shortfall(draws, chain.diagnostics, mcmc) is None,
    )


def _fit_child(conn, design, prior, mcmc, auto_extend) -> None:
    """Body of a fit process: send ``(SurveyFit or the exception raised, warnings caught)`` to ``conn``."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = _fit_survey(design, prior, mcmc, auto_extend)
        except Exception as exc:
            outcome = exc
    conn.send((outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
    conn.close()


def _fit_surveys(jobs, fork: bool) -> list[SurveyFit]:
    """``_fit_survey(*job)`` for every job, in order.

    With ``fork``, each job runs in its own forked process, which
    inherits the design, prior and chain configuration and sends back
    its ``SurveyFit`` (or the exception it raised) and the warnings it
    caught.  The warnings are re-issued here in job order, and the first
    failing job's exception is raised after its warnings, as if the jobs
    had run one after the other.  Every process is joined before this
    returns or raises.
    """
    if not fork:
        return [_fit_survey(*job) for job in jobs]
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for job in jobs:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_fit_child, args=(send, *job), daemon=True)
            proc.start()
            send.close()  # the child holds the only write end, so its death reads as EOF
            children.append((proc, recv))
        fits = []
        for i, (proc, recv) in enumerate(children, start=1):
            try:
                outcome, caught = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"the fit process for survey {i} exited with code {proc.exitcode} before sending a result"
                ) from None
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            if isinstance(outcome, BaseException):
                raise outcome
            fits.append(outcome)
        return fits
    finally:
        for proc, recv in children:
            recv.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()


def _survey_diagnostics(fitted, survey: SurveyFit, sample):
    empirical = 1000.0 * int(sample.outcome.sum()) / sample.n_births
    out = {
        "retained": survey.draws.n_draws,
        "acceptance_rate": 1.0,
        "extended": survey.extended,
        "sweeps": survey.sweeps,
        "ess_target": MIN_ESS_TARGET,
        "target_met": survey.target_met,
        "empirical_rate_per_1000": empirical,
        "fitted_rate_per_1000": fitted.mean,
        "fitted_minus_empirical_per_1000": fitted.mean - empirical,
    }
    diag = survey.diagnostics
    if diag is not None:
        out["ess"] = {k: v for k, v in sorted(diag.ess.items())}
        out["min_ess"] = diag.min_ess
        out["lag1_autocorrelation"] = {
            k: float(v[0]) for k, v in sorted(diag.autocorrelations.items())
        }
        out["degenerate"] = sorted(diag.degenerate)
    return out


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _versions() -> dict:
    import scipy

    return {
        "mortdecomp": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


class _StageFailure(Exception):
    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


def run_pipeline(config: RunConfig) -> dict:
    """Execute the full pipeline; returns {file name: path} for emitted files.

    On any failure the partially written outputs are removed and the
    originating stage is attached to the raised error.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    stage = "configure"

    def emit(name: str, writer) -> Path:
        path = out_dir / name
        writer(path)
        written.append(path)
        return path

    try:
        stage = "load_samples"
        s1, s2 = _load_samples(config)

        stage = "build_design"
        d1, d2, _ = _build_designs(config, s1, s2)

        # One BLAS thread from the fits through the decomposition: the fit
        # processes then share the cores without oversubscribing them, and
        # the parent's OpenBLAS pool, which a fork shuts down, is not rebuilt
        # for the decomposition.  The kernel's own hold nests inside this one.
        hold = _one_blas_thread()
        with hold or contextlib.nullcontext():
            stage = "fit"
            _, fit_seed1, fit_seed2 = _derived_seeds(config.seed)
            jobs = [
                (design, config.prior, _mcmc_for(config, seed), config.auto_extend)
                for design, seed in ((d1, fit_seed1), (d2, fit_seed2))
            ]
            fit1, fit2 = _fit_surveys(jobs, fork=hold is not None and _available_cores() >= 2)
            draws1, draws2 = fit1.draws, fit2.draws

            stage = "decompose"
            summary = posterior_decompose(
                d1,
                d2,
                draws1,
                draws2,
                years_between=config.years_between,
                order=list(config.order) if config.order else None,
                convention=config.marginalization,
            )
            profile = VarianceCollapseProfile.from_draws(summary.draws)

        stage = "emit"
        emit("draws_s1.csv", lambda p: save_draws(draws1, p, None))
        emit("draws_s1.json", lambda p: save_draws(draws1, out_dir / "draws_s1.csv", p, fit1.mcmc.to_dict()))
        emit("draws_s2.csv", lambda p: save_draws(draws2, p, None))
        emit("draws_s2.json", lambda p: save_draws(draws2, out_dir / "draws_s2.csv", p, fit2.mcmc.to_dict()))

        doc = summary_to_dict(summary)
        emit("decomposition.json", lambda p: write_decomposition_json(doc, p))
        for path in write_all_tables(doc, out_dir):
            written.append(path)
        emit("variance_profile.csv", lambda p: write_variance_profile(profile, p))

        diag_doc = {
            "s1": _survey_diagnostics(summary.rate_s1, fit1, s1),
            "s2": _survey_diagnostics(summary.rate_s2, fit2, s2),
        }
        emit(
            "diagnostics.json",
            lambda p: Path(p).write_text(json.dumps(diag_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"),
        )

        stage = "manifest"
        manifest = {
            "config": config.echo,
            "seed": config.seed,
            "versions": _versions(),
            "files": {p.name: _sha256(p) for p in sorted(written, key=lambda q: q.name)},
        }
        manifest_path = out_dir / "run_manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(manifest_path)
    except BaseException as exc:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise _StageFailure(stage, exc) from exc

    return {p.name: p for p in written}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def validate_suite(convention: str = "appendix_divide", seed: int = 0, mc_draws: int = 200_000) -> list[CheckResult]:
    """Cross-check suite: linear triangle, Monte-Carlo marginalization grid,
    maximum-likelihood prior limit, and the collapsing-sum identity."""
    results = []
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    # linear triangle: identity link equals the closed-form split
    worst = 0.0
    for _ in range(100):
        d1 = random_design(rng, 20, [1, 1])
        d2 = random_design(rng, 20, [1, 1])
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        got = overall_decompose(d1, d2, b1, b2, link="identity")
        want = linear_oracle(d1.x.mean(axis=0), d2.x.mean(axis=0), b1, b2)
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    results.append(CheckResult("linear_triangle", worst < 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"))

    # Monte-Carlo marginalization across the (x'beta, sigma2) grid
    worst_units = 0.0
    for eta in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for sigma2 in (0.0, 0.25, 1.0, 4.0):
            estimate, se = mc_marginalization_oracle([eta], sigma2, [1.0], mc_draws, seed=seed + 17)
            prob = marginal_prob([1.0], marginalize([eta], sigma2, convention))
            if se == 0.0:
                deviation_units = 0.0 if prob == estimate else np.inf
            else:
                deviation_units = abs(prob - estimate) / se
            worst_units = max(worst_units, deviation_units)
    results.append(
        CheckResult(
            "mc_marginalization_grid",
            bool(worst_units <= 3.0),
            f"max deviation {worst_units:.2f} MC standard errors (tol 3), convention {convention}",
        )
    )

    # prior limit: flat-coefficient, variance-pinned fit approaches the MLE
    results.append(_prior_limit_check(seed))

    # collapsing-sum identity on random instances
    d2 = random_design(rng, 30, [2, 1])
    worst = 0.0
    for _ in range(200):
        b1 = rng.normal(scale=0.7, size=4)
        b2 = rng.normal(scale=0.7, size=4)
        order = list(rng.permutation(["intercept", "g0", "g1"]))
        effects = coefficient_decompose(d2, b1, b2, order)
        _, beta_eff = overall_decompose(d2, d2, b1, b2)
        worst = max(worst, abs(sum(effects.values()) - beta_eff))
    results.append(CheckResult("collapsing_sum_fuzz", worst < 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"))
    return results


def _prior_limit_check(seed: int) -> CheckResult:
    schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
    spec = dict(
        beta=(-1.0, 0.4),
        sigma2=0.0,
        n_clusters=50,
        births_per_cluster=100,
        survey_year=2000,
        covariates={"sex": {"dist": "choice", "values": ["female", "male"], "probs": [0.5, 0.5]}},
    )
    dgp = SyntheticConfig(
        schema=schema,
        s1=SyntheticSurveySpec.from_dict(spec),
        s2=SyntheticSurveySpec.from_dict({**spec, "survey_year": 2014}),
    )
    s1, _ = synthesize(dgp, seed=seed + 1)
    design = build_design(s1, schema, compute_centering(s1, schema), s1)
    flat = PriorSpec(beta_sd=1e6, sigma2_shape=1e6, sigma2_scale=10.0)  # sigma2 pinned near 1e-5
    mcmc = McmcConfig(total=1000 + 1500 * 2, burnin=1000, thin=2, target_retained=1500, seed=seed + 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ChainQualityWarning)
        chain = GibbsChain(design, flat, mcmc)
        draws = fit(design, flat, mcmc, chain)
    diag = chain.diagnostics
    mle = ml_probit_fit(design)
    post_mean = draws.beta.mean(axis=0)
    post_sd = draws.beta.std(axis=0, ddof=1)
    mc_se = post_sd / np.sqrt([diag.ess[f"beta_{j}"] for j in range(draws.n_coefficients)])
    units = np.abs(post_mean - mle) / mc_se
    return CheckResult(
        "ml_prior_limit",
        bool(np.all(units <= 2.0)),
        f"max deviation {units.max():.2f} MC standard errors (tol 2)",
    )


def _error_record(stage: str, exc: BaseException) -> str:
    return json.dumps(
        {"error": {"stage": stage, "type": type(exc).__name__, "message": str(exc)}},
        sort_keys=True,
    )


def _overrides(args) -> dict:
    return {
        "seed": args.seed,
        "out_dir": args.out,
        "order": args.order.split(",") if getattr(args, "order", None) else None,
        "marginalization": getattr(args, "marginalization", None),
    }


def _cmd_run(args) -> int:
    config = RunConfig.from_file(args.config, _overrides(args))
    try:
        files = run_pipeline(config)
    except _StageFailure as fail:
        print(_error_record(fail.stage, fail.cause), file=sys.stderr)
        return 1
    for name in sorted(files):
        print(f"wrote {files[name]}")
    return 0


def _cmd_simulate(args) -> int:
    config = RunConfig.from_file(args.config, _overrides(args))
    if config.input_mode != "synthetic":
        raise ConfigError("simulate needs a config with input.mode = 'synthetic'")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim_seed, _, _ = _derived_seeds(config.seed)
    s1, s2 = synthesize(config.dgp, seed=sim_seed)
    for sample, name in ((s1, "s1.csv"), (s2, "s2.csv")):
        write_survey_csv(sample, out_dir / name)
        print(f"wrote {out_dir / name} ({sample.n_births} births, {sample.n_clusters} clusters)")
    return 0


def _cmd_fit(args) -> int:
    config = RunConfig.from_file(args.config, _overrides(args))
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    s1, s2 = _load_samples(config)
    d1, d2, _ = _build_designs(config, s1, s2)
    _, fit_seed1, fit_seed2 = _derived_seeds(config.seed)
    design, chain_seed = (d1, fit_seed1) if args.survey == "s1" else (d2, fit_seed2)
    survey = _fit_survey(design, config.prior, _mcmc_for(config, chain_seed), config.auto_extend)
    stem = f"draws_{args.survey}"
    save_draws(survey.draws, out_dir / f"{stem}.csv", out_dir / f"{stem}.json", survey.mcmc.to_dict())
    min_ess = f"{survey.diagnostics.min_ess:.0f}" if survey.diagnostics is not None else "n/a"
    print(
        f"wrote {out_dir / (stem + '.csv')} ({survey.draws.n_draws} draws, min ESS {min_ess}, "
        f"extended={survey.extended}, target_met={survey.target_met})"
    )
    return 0


def _load_draws_for(csv_path: Path, design) -> PosteriorDraws:
    """Load saved draws; a sidecar, when present, must match ``design``'s column layout."""
    sidecar = csv_path.with_suffix(".json")
    draws = load_draws(csv_path, sidecar if sidecar.exists() else None)
    if sidecar.exists() and draws.column_groups != design.column_groups:
        raise ConfigError(
            f"{csv_path}: draws were fitted under column groups {draws.column_groups}, "
            f"but this config builds {design.column_groups}"
        )
    return draws


def _cmd_decompose(args) -> int:
    config = RunConfig.from_file(args.config, _overrides(args))
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    s1, s2 = _load_samples(config)
    d1, d2, _ = _build_designs(config, s1, s2)
    draws1_path = Path(args.draws1) if args.draws1 else out_dir / "draws_s1.csv"
    draws2_path = Path(args.draws2) if args.draws2 else out_dir / "draws_s2.csv"
    draws1 = _load_draws_for(draws1_path, d1)
    draws2 = _load_draws_for(draws2_path, d2)
    order = list(config.order) if config.order else None
    summary = posterior_decompose(
        d1, d2, draws1, draws2,
        years_between=config.years_between, order=order, convention=config.marginalization,
    )
    profile = VarianceCollapseProfile.from_draws(summary.draws)
    doc = summary_to_dict(summary)
    write_decomposition_json(doc, out_dir / "decomposition.json")
    write_all_tables(doc, out_dir)
    write_variance_profile(profile, out_dir / "variance_profile.csv")
    print(f"wrote decomposition tables to {out_dir}")
    return 0


def _cmd_report(args) -> int:
    doc = load_results(args.results)
    out_dir = Path(args.out or Path(args.results).parent)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in write_all_tables(doc, out_dir):
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    convention = args.marginalization or "appendix_divide"
    if args.config:
        config = RunConfig.from_file(args.config, _overrides(args))
        convention = config.marginalization
    results = validate_suite(convention=convention, seed=args.seed or 0)
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    print(f"{sum(c.passed for c in results)}/{len(results)} checks passed")
    return 0 if all(c.passed for c in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mortdecomp",
        description="Fit a hierarchical probit mortality model to two surveys and "
        "decompose the between-survey decline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--order", default=None, help="comma-separated decomposition order")
        p.add_argument(
            "--marginalization",
            choices=list(CONVENTIONS),
            default=None,
            help="coefficient rescaling convention for integrating cluster effects",
        )

    common(sub.add_parser("run", help="full pipeline"))
    common(sub.add_parser("simulate", help="write synthetic survey CSVs"))
    p_fit = sub.add_parser("fit", help="fit one survey")
    common(p_fit)
    p_fit.add_argument("--survey", choices=["s1", "s2"], required=True)
    p_dec = sub.add_parser("decompose", help="decompose saved draws")
    common(p_dec)
    p_dec.add_argument("--draws1", default=None, help="survey 1 draws CSV (default <out>/draws_s1.csv)")
    p_dec.add_argument("--draws2", default=None, help="survey 2 draws CSV (default <out>/draws_s2.csv)")
    p_rep = sub.add_parser("report", help="re-render tables from a decomposition JSON")
    p_rep.add_argument("--results", required=True, help="path to decomposition.json")
    p_rep.add_argument("--out", default=None, help="output directory (default: alongside results)")
    p_val = sub.add_parser("validate", help="run the cross-check suite")
    common(p_val, config_required=False)

    return parser


_COMMANDS = {
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "decompose": _cmd_decompose,
    "report": _cmd_report,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _StageFailure as fail:
        print(_error_record(fail.stage, fail.cause), file=sys.stderr)
        return 1
    except (MortdecompError, FileNotFoundError) as exc:
        print(_error_record("configure", exc), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'mortdecomp {args.command} --help' for usage", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
