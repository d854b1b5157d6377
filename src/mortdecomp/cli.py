"""Command-line pipeline: simulate or ingest, fit both surveys, decompose.

Subcommands:

* ``run``       full pipeline from one JSON config to an output directory
* ``simulate``  write synthetic survey CSVs from the config's generator
* ``fit``       fit one survey and write its draws CSV + sidecar
* ``decompose`` decompose previously saved draws (order can differ per call)
* ``report``    re-render the result tables from a decomposition JSON
* ``validate``  run the internal cross-check suite and print pass/fail lines

Each takes only the flags it reads: ``--config``, ``--seed`` and
``--out`` for the four that read a run config, plus ``--order`` for
``run`` and ``decompose``, ``--survey`` for ``fit`` and
``--draws1``/``--draws2`` for ``decompose``; ``report`` takes
``--results`` and ``--out``, ``validate`` ``--seed``.

``run`` is ``fit --survey s1``, ``fit --survey s2`` and ``decompose`` in
one process.  The commands share one function per stage (load the
samples, build the designs, fit a survey, save its draws, decompose and
write the tables), so both routes write the same bytes.

Everything a run emits is deterministic given the config seed: derived
seeds feed the generator and each survey's chain, and no output embeds
a timestamp.

Per-survey work runs in two forked processes, one per survey, when
``decompose._workers`` grants two workers (numpy's OpenBLAS exposes its
thread control and at least two cores are available), and one survey
after the other in this process otherwise; the outputs are the same
bytes either way.  In csv mode every command that reads the samples
reads the two CSV files that way, and ``run`` fits the two surveys that
way too.  A survey process inherits its inputs (a CSV path, or a design
and chain settings) through the fork and sends back its ``SurveySample``
or ``SurveyFit``, or the error it raised, with the warnings it caught.
``main`` holds OpenBLAS at one thread around every command, so the
survey processes do not oversubscribe the cores and a sweep runs alike
in ``run`` and ``fit``.  A command started from the shell (the
``mortdecomp`` console script, or ``python -m mortdecomp.cli``) also
sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads, unless the user set
it, so numpy's and scipy's OpenBLAS start no thread pool that would
only spin; importing this module changes no environment variable.
A command that fails removes every file it started to write and the
output directories it made.
"""

from __future__ import annotations

if __name__ == "__main__":  # ``python -m mortdecomp.cli``: start BLAS at one thread before numpy loads
    from . import _one_blas_thread_from_the_shell

    _one_blas_thread_from_the_shell()

import argparse
import contextlib
import json
import multiprocessing
import signal
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    CovariateSchema,
    build_design,
    compute_centering,
    default_schema,
    ingest_csv,
    place_knots,
    pool_samples,
    write_survey_csv,
)
from .decompose import _one_blas_thread, _workers, posterior_decompose, validate_order
from .errors import ConfigError, MortdecompError, read_fields, read_json, write_json
from .errors import require_number, require_object, require_seed, require_str
# diagnostics, mean_mortality and variance_collapse are not called in this
# module; perfbench/tracing.py wraps them here by name, so they stay imported.
from .marginal import mean_mortality  # noqa: F401
from .report import (
    TABLE_FILES,
    load_results,
    summary_to_dict,
    write_all_tables,
    write_decomposition_json,
    write_variance_profile,
)
from .sampler import (
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
)
from .simulate import SyntheticConfig, SyntheticSurveySpec, synthesize
from .validation import VarianceCollapseProfile, validate_suite, variance_collapse  # noqa: F401


def _read_years(value) -> tuple[int, int]:
    """The ``survey_years`` section: the two surveys' years, each a whole number."""
    years = require_object(value, "survey_years", ("s1", "s2"), ())
    return tuple(require_number(years[s], f"survey_years.{s}", int) for s in ("s1", "s2"))


def _read_order(value) -> tuple[str, ...]:
    """The ``order`` list of group names, which ``RunConfig`` checks against its schema."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"order must be a list of group names, got {value!r}")
    return tuple(require_str(name, f"order[{i}]") for i, name in enumerate(value))


@dataclass(frozen=True)
class RunConfig:
    """A run configuration: the keys of the JSON config, read by ``from_dict``.

    ``__post_init__`` reads the ``input`` and ``mcmc`` sections and checks the rules that span keys:
    exactly one input mode, survey years that increase (by default the generator's), an ``order``
    that permutes the schema's groups, and no ``mcmc.seed``.
    """

    input: SyntheticConfig | tuple[str, str]  # read from its section: the generator, or the two CSV paths
    seed: int = 0
    out_dir: str = "out"
    schema: CovariateSchema = field(default_factory=default_schema)
    survey_years: tuple[int, int] = ()  # () for the generator's years
    prior: PriorSpec = PriorSpec()
    mcmc: McmcConfig = field(default_factory=dict)  # read from its section; each survey's chain runs it on its own seed
    order: tuple[str, ...] | None = None  # the intercept and every schema covariate; None for the schema's order
    auto_extend: bool = True
    echo: dict = field(init=False, default_factory=dict)  # the config as given, overrides merged, for the manifest

    def __post_init__(self):
        inp = require_object(self.input, "input", ("mode",), ("dgp", "s1_path", "s2_path"))
        if "dgp" in inp and ("s1_path" in inp or "s2_path" in inp):
            raise ConfigError("config sets both synthetic and csv inputs; choose one mode")
        years = self.survey_years
        if inp["mode"] == "synthetic":
            dgp = require_object(inp, "input", ("dgp",))["dgp"]
            surveys = require_object(dgp, "input.dgp", ("s1", "s2"), ())
            s1, s2 = (SyntheticSurveySpec.from_dict(surveys[s], f"input.dgp.{s}") for s in ("s1", "s2"))
            source = SyntheticConfig(self.schema, s1, s2)
            years = years or (s1.survey_year, s2.survey_year)
        elif inp["mode"] == "csv":
            paths = require_object(inp, "input", ("s1_path", "s2_path"))
            source = tuple(require_str(paths[k], f"input.{k}") for k in ("s1_path", "s2_path"))
        else:
            raise ConfigError(f"input.mode must be 'synthetic' or 'csv', got {inp['mode']!r}")
        if not years:
            raise ConfigError("csv mode needs survey_years.s1 and survey_years.s2")
        if years[1] <= years[0]:
            raise ConfigError(f"survey 2 year must exceed survey 1 year, got {years}")
        mcmc = McmcConfig.from_dict(self.mcmc)
        if "seed" in self.mcmc:
            raise ConfigError("set the top-level seed; per-chain seeds are derived from it")
        order = tuple(validate_order(self.order, self.schema.names))
        for name, value in dict(input=source, survey_years=years, mcmc=mcmc, order=order).items():
            object.__setattr__(self, name, value)

    @property
    def years_between(self) -> float:
        return float(self.survey_years[1] - self.survey_years[0])

    @property
    def seeds(self) -> tuple[int, int, int]:
        """Seeds of the generator, survey 1's chain and survey 2's chain, derived from ``seed``."""
        children = np.random.SeedSequence(self.seed).spawn(3)
        return tuple(int(c.generate_state(1)[0]) for c in children)

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict | None = None) -> "RunConfig":
        """The config in the JSON object ``raw``, each key of ``overrides`` in place of its own, read by
        ``read_fields``: each top-level key by its kind, and each section but ``input`` and ``mcmc`` by its reader."""
        echo = {**require_object(raw, "config"), **(overrides or {})}
        config = read_fields(cls, echo, "", {
            "seed": require_seed, "out_dir": str, "auto_extend": bool,
            "schema": CovariateSchema.from_dict,
            "survey_years": _read_years, "prior": PriorSpec.from_dict, "order": _read_order,
        })
        object.__setattr__(config, "echo", echo)
        return config


@dataclass
class _Outputs:
    """A command's output directory, the files it has started to write, and its current stage.

    Every command opens one once its configuration is read; the directory is made at the first write.
    Used as a context manager, a command that fails removes every file in ``written``, then the
    directories it made (deepest first) while they are empty, so a failed command leaves none of its
    outputs and no empty output directory behind; its error leaves with ``stage`` set on it.
    """

    dir: Path
    written: list[Path] = field(default_factory=list)
    stage: str = "configure"
    made: list[Path] = field(default_factory=list)  # directories this command created, deepest first

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            exc.stage = self.stage
            for path in self.written:
                with contextlib.suppress(OSError):
                    path.unlink()
            for directory in self.made:
                try:
                    directory.rmdir()
                except OSError:
                    break

    def mkdir(self) -> Path:
        """``dir``, created with any missing parents if it does not exist yet."""
        if not self.dir.is_dir():
            self.made = [d for d in (self.dir, *self.dir.parents) if not d.exists()]
            self.dir.mkdir(parents=True, exist_ok=True)
        return self.dir

    def path(self, name: str) -> Path:
        """``dir / name``, recorded in ``written`` before anything is written there."""
        path = self.mkdir() / name
        self.written.append(path)
        return path


def _load_samples(config: RunConfig):
    """Both surveys' samples: synthesized, or each survey's CSV read by ``_per_survey``."""
    if isinstance(config.input, SyntheticConfig):
        return synthesize(config.input, seed=config.seeds[0])
    read = lambda path, sid: ingest_csv(path, config.schema, survey_id=sid)  # noqa: E731
    return tuple(_per_survey(read, list(zip(config.input, ("S1", "S2")))))


def _build_designs(config: RunConfig, s1, s2):
    """Both designs, on one set of knots placed from the pair's pooled columns, which are then dropped."""
    centering = compute_centering(s1, config.schema)
    layout = place_knots(config.schema, centering, pool_samples(s1, s2))
    return build_design(s1, config.schema, centering, layout), build_design(s2, config.schema, centering, layout)


def _designs(config: RunConfig, out: _Outputs):
    """Both surveys' designs, read at stage ``load_samples`` and built at stage ``build_design``."""
    out.stage = "load_samples"
    samples = _load_samples(config)
    out.stage = "build_design"
    return _build_designs(config, *samples)


def _fit_jobs(config: RunConfig, designs) -> list[tuple]:
    """``_fit_survey`` arguments for each survey's design, with that survey's chain seed."""
    return [
        (design, config.prior, replace(config.mcmc, seed=seed), config.auto_extend)
        for design, seed in zip(designs, config.seeds[1:])
    ]


@dataclass(frozen=True)
class SurveyFit:
    """One survey's retained draws and how the chain that produced them went."""

    draws: PosteriorDraws
    diagnostics: FitDiagnostics | None  # None below 100 retained draws
    mcmc: McmcConfig  # the configuration the draws were retained under; the chain ran its total sweeps
    extended: bool
    target_met: bool


def _fit_survey(design, prior, mcmc, auto_extend) -> SurveyFit:
    """Fit one survey; a chain short of its target is continued once to ``mcmc.extended()``."""
    chain = GibbsChain(design, prior, mcmc)
    draws = fit(design, prior, mcmc, chain)
    extended = auto_extend and chain.shortfall is not None
    if extended:
        mcmc = mcmc.extended()
        draws = fit(design, prior, mcmc, chain)
    return SurveyFit(
        draws=draws,
        diagnostics=chain.diagnostics,
        mcmc=mcmc,
        extended=extended,
        target_met=chain.diagnostics is not None and chain.shortfall is None,
    )


def _survey_child(conn, job, args) -> None:
    """Body of a survey process: send ``(job(*args) or the exception raised, warnings caught)`` to ``conn``."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's, which then ends this process
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = job(*args)
        except Exception as exc:
            outcome = exc
    conn.send((outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
    conn.close()


def _per_survey(job, jobs: list[tuple]) -> list:
    """``job(*args)`` for every survey's ``args`` in ``jobs``, in order.

    When ``decompose._workers`` grants a worker per survey, each survey's
    job runs in its own forked process, which inherits ``job`` and its
    arguments and sends back the result (or the exception it raised) and
    the warnings it caught.  The warnings are re-issued here in survey
    order, and the first failing survey's exception is raised after its
    warnings, as if the jobs had run one after the other.  Every process
    is joined before this returns or raises.
    """
    if _workers(len(jobs)) < 2:
        return [job(*args) for args in jobs]
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for args in jobs:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_survey_child, args=(send, job, args), daemon=True)
            proc.start()
            send.close()  # the child holds the only write end, so its death reads as EOF
            children.append((proc, recv))
        results = []
        for i, (proc, recv) in enumerate(children, start=1):
            try:
                outcome, caught = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"the process for survey {i} exited with code {proc.exitcode} before sending a result"
                ) from None
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            if isinstance(outcome, Exception):
                raise outcome
            results.append(outcome)
        return results
    finally:
        for proc, recv in children:
            recv.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()


def _save_fit(survey: SurveyFit, sid: str, out: _Outputs) -> Path:
    """Write ``draws_<sid>.csv`` and its sidecar in one ``save_draws`` call; returns the CSV path."""
    csv_path = out.path(f"draws_{sid}.csv")
    save_draws(survey.draws, csv_path, out.path(f"draws_{sid}.json"), asdict(survey.mcmc))
    return csv_path


def _write_tables(doc: dict, out: _Outputs) -> list[Path]:
    """Write the ``TABLE_FILES`` tables into ``out``, all recorded before the first is written."""
    for name in TABLE_FILES:
        out.path(name)
    return write_all_tables(doc, out.dir)


def _decompose_and_write(config: RunConfig, d1, d2, draws1, draws2, out: _Outputs):
    """Decompose the paired draws; write ``decomposition.json``, the tables and ``variance_profile.csv``.

    ``out.stage`` is ``decompose`` for the decomposition and ``emit``
    from the first write on.  Returns the ``DecompositionSummary``.
    """
    out.stage = "decompose"
    summary = posterior_decompose(d1, d2, draws1, draws2, years_between=config.years_between, order=config.order)
    profile = VarianceCollapseProfile.from_draws(summary.draws)

    out.stage = "emit"
    doc = summary_to_dict(summary)
    write_decomposition_json(doc, out.path("decomposition.json"))
    _write_tables(doc, out)
    write_variance_profile(profile, out.path("variance_profile.csv"))
    return summary


def _survey_diagnostics(fitted, survey: SurveyFit, design):
    empirical = 1000.0 * int(design.outcome.sum()) / design.n_rows
    out = {
        "retained": survey.draws.n_draws,
        "acceptance_rate": 1.0,  # Gibbs sweeps always accept
        "extended": survey.extended,
        "sweeps": survey.mcmc.total,
        "ess_target": MIN_ESS_TARGET,
        "target_met": survey.target_met,
        "empirical_rate_per_1000": empirical,
        "fitted_rate_per_1000": fitted.mean,
        "fitted_minus_empirical_per_1000": fitted.mean - empirical,
    }
    diag = survey.diagnostics
    if diag is not None:
        out["ess"] = dict(diag.ess)  # write_json sorts the keys
        out["min_ess"] = diag.min_ess
        out["lag1_autocorrelation"] = dict(diag.lag1)
        out["degenerate"] = sorted(diag.degenerate)
    return out


def _versions() -> dict:
    import scipy

    return {
        "mortdecomp": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


def run_pipeline(config: RunConfig) -> dict:
    """Execute the full pipeline; returns {file name: path} for emitted files.

    On any failure ``_Outputs`` removes every output the run started to
    write, and the output directory too when the run made it; the error
    leaves with the stage it was raised in as its ``stage``.
    """
    with _Outputs(Path(config.out_dir)) as out:
        d1, d2 = _designs(config, out)
        out.stage = "fit"
        fit1, fit2 = _per_survey(_fit_survey, _fit_jobs(config, (d1, d2)))
        summary = _decompose_and_write(config, d1, d2, fit1.draws, fit2.draws, out)

        _save_fit(fit1, "s1", out)
        _save_fit(fit2, "s2", out)
        diag_doc = {
            "s1": _survey_diagnostics(summary.rate_s1, fit1, d1),
            "s2": _survey_diagnostics(summary.rate_s2, fit2, d2),
        }
        write_json(diag_doc, out.path("diagnostics.json"))

        out.stage = "manifest"
        # Imported here, not with the module, so decompose, report and --version never load OpenSSL's
        # libcrypto.  In run that saves nothing: numpy.random has loaded hashlib, through secrets, by now.
        import hashlib

        manifest = {
            "config": config.echo,
            "seed": config.seed,
            "versions": _versions(),
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.written},
        }
        write_json(manifest, out.path("run_manifest.json"))

    return {p.name: p for p in out.written}


def _config(args) -> RunConfig:
    """The run config in ``--config``; a flag named after one of its keys, when given, replaces that key."""
    flags = {key: getattr(args, key, None) for key in ("seed", "out_dir", "order")}
    return RunConfig.from_dict(read_json(args.config), {k: v for k, v in flags.items() if v is not None})


def _cmd_run(args) -> int:
    files = run_pipeline(_config(args))
    for name in sorted(files):
        print(f"wrote {files[name]}")
    return 0


def _cmd_simulate(args) -> int:
    config = _config(args)
    if not isinstance(config.input, SyntheticConfig):
        raise ConfigError("simulate needs a config with input.mode = 'synthetic'")
    with _Outputs(Path(config.out_dir)) as out:
        out.stage = "load_samples"
        samples = _load_samples(config)
        out.stage = "emit"
        for sample, name in zip(samples, ("s1.csv", "s2.csv")):
            write_survey_csv(sample, out.path(name))
    for sample, path in zip(samples, out.written):  # only once both files stay
        print(f"wrote {path} ({sample.n_births} births, {sample.n_clusters} clusters)")
    return 0


def _cmd_fit(args) -> int:
    config = _config(args)
    with _Outputs(Path(config.out_dir)) as out:
        designs = _designs(config, out)
        out.stage = "fit"
        survey = _fit_survey(*_fit_jobs(config, designs)[("s1", "s2").index(args.survey)])
        out.stage = "emit"
        csv_path = _save_fit(survey, args.survey, out)
    min_ess = f"{survey.diagnostics.min_ess:.0f}" if survey.diagnostics is not None else "n/a"
    print(
        f"wrote {csv_path} ({survey.draws.n_draws} draws, min ESS {min_ess}, "
        f"extended={survey.extended}, target_met={survey.target_met})"
    )
    return 0


def _cmd_decompose(args) -> int:
    config = _config(args)
    out_dir = Path(config.out_dir)
    with _Outputs(out_dir) as out:
        d1, d2 = _designs(config, out)
        out.stage = "load_draws"
        paths = [Path(args.draws1) if args.draws1 else out_dir / "draws_s1.csv",
                 Path(args.draws2) if args.draws2 else out_dir / "draws_s2.csv"]
        draws1, draws2 = (load_draws(path, path.with_suffix(".json")) for path in paths)
        # The hint names a swap only when each file records the other design's survey.
        crossed = (draws1.survey_id, draws2.survey_id) == (d2.survey_id, d1.survey_id)
        for path, draws, design in zip(paths, (draws1, draws2), (d1, d2)):
            if draws.survey_id != design.survey_id:
                hint = "; the two draws files look swapped" if crossed else ""
                raise ConfigError(
                    f"{path} holds draws fitted to survey {draws.survey_id}, "
                    f"but decompose pairs it with survey {design.survey_id}{hint}"
                )
        _decompose_and_write(config, d1, d2, draws1, draws2, out)
    print(f"wrote decomposition tables to {out_dir}")
    return 0


def _cmd_report(args) -> int:
    with _Outputs(Path(args.out or Path(args.results).parent)) as out:
        doc = load_results(args.results)
        out.stage = "emit"
        for path in _write_tables(doc, out):
            print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    results = validate_suite(seed=args.seed)
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    print(f"{sum(c.passed for c in results)}/{len(results)} checks passed")
    return 0 if all(c.passed for c in results) else 1


# The flags of the subcommands that read a run configuration.
_CONFIG_FLAGS = {
    "--config": dict(required=True, help="JSON run configuration"),
    "--seed": dict(type=int, default=None, help="override the config seed"),
    "--out": dict(dest="out_dir", default=None, help="override the output directory"),
    "--order": dict(type=lambda order: order.split(","), default=None, help="comma-separated decomposition order"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mortdecomp",
        description="Fit a hierarchical probit mortality model to two surveys and "
        "decompose the between-survey decline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in ("--config", "--seed", "--out", *flags):
            p.add_argument(flag, **_CONFIG_FLAGS[flag])
        return p

    add("run", "full pipeline", "--order")
    add("simulate", "write synthetic survey CSVs")
    add("fit", "fit one survey").add_argument("--survey", choices=["s1", "s2"], required=True)
    p_dec = add("decompose", "decompose saved draws", "--order")
    p_dec.add_argument("--draws1", default=None, help="survey 1 draws CSV (default <out>/draws_s1.csv)")
    p_dec.add_argument("--draws2", default=None, help="survey 2 draws CSV (default <out>/draws_s2.csv)")
    p_rep = sub.add_parser("report", help="re-render tables from a decomposition JSON")
    p_rep.add_argument("--results", required=True, help="path to decomposition.json")
    p_rep.add_argument("--out", default=None, help="output directory (default: alongside results)")
    p_val = sub.add_parser("validate", help="run the cross-check suite")
    p_val.add_argument("--seed", type=int, default=0, help="seed of the randomized checks")

    return parser


_COMMANDS = {
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "decompose": _cmd_decompose,
    "report": _cmd_report,
    "validate": _cmd_validate,
}


# The stages in which a command writes its outputs: an ``OSError`` there is a failed write, not refused input.
_WRITE_STAGES = ("emit", "manifest")


def main(argv=None) -> int:
    """Run one subcommand.  An error prints its JSON record, naming its stage (``configure`` before the
    command opened its outputs), as stderr's first line, and exits 2 for refused input (a
    ``MortdecompError``, or an ``OSError`` outside ``_WRITE_STAGES``), 1 otherwise; Ctrl-C and
    ``SystemExit`` are not caught."""
    args = build_parser().parse_args(argv)
    try:
        with _one_blas_thread():
            return _COMMANDS[args.command](args)
    except Exception as exc:
        stage = getattr(exc, "stage", "configure")
        record = {"stage": stage, "type": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"error": record}, sort_keys=True), file=sys.stderr)
        refused = isinstance(exc, MortdecompError) or (isinstance(exc, OSError) and stage not in _WRITE_STAGES)
        if not refused:
            return 1
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'mortdecomp {args.command} --help' for usage", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
