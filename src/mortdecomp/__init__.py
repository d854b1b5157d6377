"""Bayesian hierarchical probit modelling of early-life mortality in
two-survey microdata, with closed-form integration of cluster random
effects and an uncertainty-propagating decomposition of the
between-survey decline into covariate-distribution and coefficient
effects."""

__version__ = "0.1.0"

from .dataset import (
    CenteringConstants,
    CovariateSchema,
    CovariateSpec,
    DesignMatrix,
    SurveySample,
    build_design,
    compute_centering,
    default_schema,
    ingest_csv,
    pool_samples,
    write_survey_csv,
)
from .decompose import (
    ComponentSummary,
    DecompositionDraws,
    DecompositionSummary,
    annualize,
    decompose_draws,
    percent_of,
    posterior_decompose,
)
from .errors import (
    ConfigError,
    DegenerateDesignError,
    EmptyInputError,
    MortdecompError,
    NonConvergenceError,
    RowError,
    SchemaError,
    SingularDesignError,
)
from .marginal import marginal_prob, marginalize, mean_mortality
from .sampler import (
    FitDiagnostics,
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
from .simulate import SyntheticConfig, SyntheticSurveySpec, synthesize
from .splines import bspline_basis, quantile_knots
from .validation import (
    VarianceCollapseProfile,
    linear_oracle,
    mc_marginalization_oracle,
    ml_probit_fit,
    variance_collapse,
)
