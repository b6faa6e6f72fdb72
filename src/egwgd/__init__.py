"""Exponentiated generalized Weibull-Gompertz lifetime distribution toolkit.

A numpy/scipy library for the five-parameter family with CDF
``[1 - exp(-a x^b (e^{c x^d} - 1))]^theta``: exact distribution functions,
quantiles and sampling, reliability metrics from defining integrals,
maximum-likelihood estimation with Wald intervals, and goodness-of-fit
model comparison.  A command-line front end is installed as ``egwgd``.
"""

import logging

from .datasets import AARSET
from .distribution import (
    EgwgParams,
    cdf,
    hazard,
    log_cdf,
    log_pdf,
    log_survival,
    median,
    mode,
    pdf,
    quantile,
    reversed_hazard,
    sample,
    survival,
)
from .estimation import (
    Dataset,
    FitConfig,
    FitResult,
    confidence_intervals,
    fit,
    loglik,
    loglik_grad,
    observed_information,
    profile_theta,
)
from .gof import FittedModel, GofReport, compare, info_criteria, ks_pvalue, ks_statistic
from .numerics import (
    QuadratureConfig,
    RootConfig,
    find_root_increasing,
    integrate,
    numerical_hessian,
)
from .reliability import (
    RepairableSystem,
    availability,
    maintainability,
    mean_past_life,
    mean_residual_life,
    mtbf,
    mttf,
    order_stat_pdf,
    raw_moment,
)
from .submodels import (
    CompetitorSpec,
    SubModelSpec,
    competitor_cdf,
    competitor_log_pdf,
    competitor_loglik,
    embed,
    fit_competitor,
)

__version__ = "0.1.0"

# library logging: silent unless the application configures a handler
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AARSET",
    "EgwgParams",
    "cdf", "pdf", "log_cdf", "log_pdf", "survival", "log_survival",
    "hazard", "reversed_hazard", "quantile", "median", "mode", "sample",
    "Dataset", "FitConfig", "FitResult", "fit", "loglik", "loglik_grad",
    "profile_theta", "observed_information", "confidence_intervals",
    "FittedModel", "GofReport", "compare", "info_criteria", "ks_pvalue", "ks_statistic",
    "QuadratureConfig", "RootConfig", "integrate", "find_root_increasing",
    "numerical_hessian",
    "RepairableSystem", "availability", "maintainability", "mean_past_life",
    "mean_residual_life", "mtbf", "mttf", "order_stat_pdf", "raw_moment",
    "CompetitorSpec", "SubModelSpec", "competitor_cdf", "competitor_log_pdf",
    "competitor_loglik", "embed", "fit_competitor",
    "__version__",
]
