"""Exponentiated generalized Weibull-Gompertz lifetime distribution toolkit.

A numpy library for the five-parameter family with CDF
``[1 - exp(-a x^b (e^{c x^d} - 1))]^theta``: exact distribution functions,
quantiles and sampling, reliability metrics from defining integrals,
maximum-likelihood estimation with Wald intervals, and goodness-of-fit
model comparison.  A command-line front end is installed as ``egwgd``.

The package needs only numpy.  ``import egwgd`` loads numpy and the
package root: each public name is imported from its defining module on
first access (PEP 562), so a program pays only for the modules it uses.
"""

import importlib
import logging

__version__ = "0.1.0"

# library logging: silent unless the application configures a handler
logging.getLogger(__name__).addHandler(logging.NullHandler())

# defining module of each public name, in the order of __all__
_SOURCES = {
    "datasets": ("AARSET",),
    "distribution": (
        "EgwgParams", "cdf", "pdf", "log_cdf", "log_pdf", "survival", "log_survival",
        "hazard", "reversed_hazard", "quantile", "median", "mode", "sample",
    ),
    "estimation": (
        "Dataset", "FitConfig", "FitResult", "fit", "loglik", "loglik_grad",
        "profile_theta", "observed_information", "confidence_intervals",
    ),
    "gof": ("FittedModel", "GofReport", "compare", "info_criteria", "ks_pvalue", "ks_statistic"),
    "numerics": ("integrate", "find_root_increasing", "numerical_hessian"),
    "reliability": (
        "RepairableSystem", "availability", "maintainability", "mean_past_life",
        "mean_residual_life", "mtbf", "mttf", "order_stat_pdf", "raw_moment",
    ),
    "submodels": (
        "CompetitorSpec", "SubModelSpec", "competitor_cdf", "competitor_log_pdf",
        "competitor_loglik", "embed", "fit_competitor",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
