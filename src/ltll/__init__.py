"""Left-truncated log-logistic (LTLL) fitting and uncertainty quantification.

The package covers the full workflow for positive data observed only above a
known threshold: closed-form distribution math, maximum likelihood with an
interior-maximum existence gate and a Pareto boundary fallback, Bayesian
inference by Metropolis-Hastings with Gamma priors, confidence and credible
ellipses, and a reproducible Monte Carlo study harness.
"""

from .datasets import apply_truncation, load_bladder_cancer, load_csv
from .distribution import (
    DegenerateSampleError,
    ExistenceStats,
    LTLLParams,
    Sample,
    draw_ltll,
    existence_stats,
    ll_cdf,
    ll_pdf,
    log_likelihood,
    ltll_cdf,
    ltll_logpdf,
    ltll_pdf,
    ltll_quantile,
    mc_moments,
    phi_objective,
    score_gradient,
)
from .mcmc import (
    McmcConfig,
    PosteriorResult,
    PriorSpec,
    credible_ellipse,
    credible_intervals,
    log_posterior,
    log_prior,
    marginal_beta_log_kernel,
    posterior_density_grid,
    run_chain,
)
from .mle import (
    BoundaryFitError,
    EllipsePoints,
    MleFit,
    confidence_ellipse,
    fit_mle,
    observed_information,
    wald_intervals,
)
from .numerics import (
    RngStream,
    SymMatrix2,
    chi2_quantile_2dof,
    normal_quantile,
)
from .simulation import (
    MetricsReport,
    Scenario,
    error_metrics,
    run_replicate,
    run_scenario,
    sample_size_sweep,
    truncation_sweep,
)

__version__ = "0.1.0"
