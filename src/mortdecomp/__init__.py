"""Bayesian hierarchical probit modelling of early-life mortality in
two-survey microdata, with closed-form integration of cluster random
effects and an uncertainty-propagating decomposition of the
between-survey decline into covariate-distribution and coefficient
effects.

The exported names load with their submodule on first use (PEP 562), so
``import mortdecomp`` loads no numpy and a command started from the
shell can set its BLAS threads before numpy loads.
"""

import importlib
import os

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "CovariateSchema", "CovariateSpec", "DesignMatrix", "SurveySample",
        "build_design", "compute_centering", "default_schema", "ingest_csv", "pool_samples",
        "write_survey_csv",
    ), "dataset"),
    **dict.fromkeys((
        "ComponentSummary", "DecompositionDraws", "DecompositionSummary", "annualize",
        "decompose_draws", "percent_of", "posterior_decompose",
    ), "decompose"),
    **dict.fromkeys((
        "ConfigError", "DegenerateDesignError", "EmptyInputError", "MortdecompError",
        "NonConvergenceError", "RowError", "SchemaError", "SingularDesignError",
    ), "errors"),
    **dict.fromkeys(("marginal_prob", "marginalize", "mean_mortality"), "marginal"),
    **dict.fromkeys((
        "FitDiagnostics", "GibbsChain", "McmcConfig", "PosteriorDraws", "PriorSpec", "diagnostics",
        "fit", "load_draws", "sample_truncated_normal", "save_draws",
    ), "sampler"),
    **dict.fromkeys(("SyntheticConfig", "SyntheticSurveySpec", "synthesize"), "simulate"),
    **dict.fromkeys(("bspline_basis", "quantile_knots"), "splines"),
    **dict.fromkeys((
        "VarianceCollapseProfile", "linear_oracle", "mc_marginalization_oracle", "ml_probit_fit",
        "variance_collapse",
    ), "validation"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Load an exported name from its submodule, once.  Any other name raises ``AttributeError``,
    so ``from mortdecomp import cli`` falls back to importing the submodule."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _one_blas_thread_from_the_shell():
    """Start OpenBLAS at one thread unless the user set ``OPENBLAS_NUM_THREADS``.

    Called only by a command started from the shell, before numpy first
    loads: numpy's and scipy's OpenBLAS each start a thread pool when
    they load, and every command holds BLAS at one thread, so a pool
    started at more would only spin.  An import changes no environment
    variable.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _console_main():
    """The ``mortdecomp`` console script: ``cli.main`` with BLAS started at one thread."""
    _one_blas_thread_from_the_shell()
    from .cli import main

    return main()
