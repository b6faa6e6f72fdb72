"""Named sub-families and the standalone competitor distributions.

Two distinct views live here, each stating a family once.  ``embed``
realises the catalogue of special cases of the five-parameter family as
the parameter assignments of ``_SUB_MODELS`` (a structural mapping).  The
competitor families (ED, GED, GD, IW, GIW, EGIW) are the models the
benchmark comparison fits side by side: ``_COMPETITORS`` holds each one's
parameter names and the effective parameter count its information
criteria use, and ``fit_competitor`` its closed-form or one-dimensional
profile MLE, with a flag that says whether the search ended inside its
interval.

Note on the Gompertz competitor: its (a, c) are in the hazard-rate
convention h(x) = a e^{c x}, so it evaluates through the core family at
rate a/c.  The structural ``embed`` mapping for the "gd" sub-model kind
keeps the literal assignment (a, 0, c, 1, 1).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from . import distribution as dist
from .datasets import _lifetimes
from .distribution import EgwgParams
from .exceptions import InvalidParametersError, NotEmbeddableError
from .numerics import numerical_hessian
from .optimize import minimize_scalar_bounded

__all__ = [
    "SubModelSpec",
    "CompetitorSpec",
    "SUB_MODEL_PARAM_NAMES",
    "COMPETITOR_PARAM_NAMES",
    "COMPETITOR_K",
    "embed",
    "competitor_cdf",
    "competitor_log_pdf",
    "competitor_loglik",
    "fit_competitor",
    "competitor_covariance",
]

# kind -> its assignment: the function's parameters are the sub-model's, in
# order, and it returns the (a, b, c, d, theta) they give.  The exponential
# families return None: they are the degenerate c -> 0 limit.
_SUB_MODELS = {
    "gwgd": lambda a, b, c, d: (a, b, c, d, 1.0),
    "gd": lambda a, c: (a, 0.0, c, 1.0, 1.0),
    "ggd": lambda a, c, theta: (a, 0.0, c, 1.0, theta),
    "exp_mod_weibull_ext": lambda a, alpha, d, theta: (a, 0.0, (1.0 / alpha) ** d, d, theta),
    "epd": lambda a, d, c: (a, 0.0, c, d, 1.0),
    "gepd": lambda a, d, c, theta: (a, 0.0, c, d, theta),
    "chen": lambda a, d: (a, 0.0, 1.0, d, 1.0),
    "xie": lambda a, c, d: (a, 0.0, c, d, 1.0),
    "ed": lambda a: None,
    "ged": lambda a, theta: None,
}
SUB_MODEL_PARAM_NAMES = {kind: tuple(inspect.signature(f).parameters)
                         for kind, f in _SUB_MODELS.items()}

# friendly string names accepted wherever a kind is addressed
KIND_ALIASES = {"gompertz": "gd", "exponential": "ed"}

# kind -> (parameter names, the effective parameter count K that the
# information criteria use)
_COMPETITORS = {
    "ed": (("a",), 1),
    "ged": (("a", "theta"), 2),
    "gd": (("a", "c"), 2),
    "iw": (("theta",), 2),
    "giw": (("theta", "beta"), 3),
    "egiw": (("alpha", "theta", "beta"), 4),
}
COMPETITOR_PARAM_NAMES = {kind: names for kind, (names, _) in _COMPETITORS.items()}
COMPETITOR_K = {kind: k for kind, (_, k) in _COMPETITORS.items()}


def _kind(name: str) -> str:
    """A kind name in lower case, with KIND_ALIASES resolved."""
    kind = name.lower()
    return KIND_ALIASES.get(kind, kind)


def _spec(spec, what: str, table: dict):
    """Resolve spec's kind and check its arity against table's parameter names;
    store the kind and the parameters as floats."""
    kind = _kind(spec.kind)
    names = table.get(kind)
    if names is None:
        raise InvalidParametersError(f"unknown {what} kind {kind!r}")
    if len(spec.params) != len(names):
        raise InvalidParametersError(
            f"{kind} takes parameters {names}, got {len(spec.params)} values")
    object.__setattr__(spec, "kind", kind)
    object.__setattr__(spec, "params", tuple(float(v) for v in spec.params))


@dataclass(frozen=True)
class SubModelSpec:
    """A named special case of the full family with its own parameters."""

    kind: str
    params: tuple

    def __post_init__(self):
        _spec(self, "sub-model", SUB_MODEL_PARAM_NAMES)


@dataclass(frozen=True)
class CompetitorSpec:
    """A fitted-or-fixed competitor model for the benchmark comparison.

    ``fit_competitor`` sets ``converged``, an output that equality ignores.
    """

    kind: str
    params: tuple
    converged: bool = field(default=True, init=False, compare=False)

    def __post_init__(self):
        _spec(self, "competitor", COMPETITOR_PARAM_NAMES)
        if any(not (math.isfinite(v) and v > 0.0) for v in self.params):
            raise InvalidParametersError(f"{self.kind} parameters must be finite and positive")

    @property
    def k(self) -> int:
        return COMPETITOR_K[self.kind]

    def as_dict(self) -> dict:
        return dict(zip(COMPETITOR_PARAM_NAMES[self.kind], self.params))


def embed(spec: SubModelSpec) -> EgwgParams:
    """Parameter assignment realising the sub-model inside the full family.

    The exponential families ("ed", "ged") arise only as the degenerate
    c -> 0 limit and cannot be represented; use the competitor evaluators.
    """
    assignment = _SUB_MODELS[spec.kind](*spec.params)
    if assignment is None:
        raise NotEmbeddableError(
            f"{spec.kind} is the degenerate c -> 0 limit; evaluate it through competitor_cdf")
    return EgwgParams(*assignment)


# ---------------------------------------------------------------------------
# competitor evaluation
# ---------------------------------------------------------------------------

def _gd_core(spec: CompetitorSpec) -> EgwgParams:
    a, c = spec.params
    return EgwgParams(a / c, 0.0, c, 1.0, 1.0)


def _frechet(spec: CompetitorSpec) -> tuple:
    """(s, beta) of an inverse Weibull kind, whose CDF is exp(-s x^-beta):
    s = 1 for IW, theta for GIW and alpha theta for EGIW."""
    *rate, beta = (1.0, *spec.params) if spec.kind == "iw" else spec.params
    return math.prod(rate), beta


def competitor_cdf(spec: CompetitorSpec, x):
    """CDF of a competitor model at x > 0 (vectorised)."""
    xs = np.asarray(x, dtype=float)
    kind, q = spec.kind, spec.params
    if kind == "ed":
        return -np.expm1(-q[0] * xs)
    if kind == "ged":
        a, theta = q
        with np.errstate(divide="ignore"):
            return np.exp(theta * dist._log1mexp(a * xs))
    if kind == "gd":
        return dist.cdf(_gd_core(spec), xs)
    s, beta = _frechet(spec)
    return np.exp(-s * xs ** (-beta))


def competitor_log_pdf(spec: CompetitorSpec, x):
    """Log-density of a competitor model at x > 0 (vectorised)."""
    xs = np.asarray(x, dtype=float)
    kind, q = spec.kind, spec.params
    with np.errstate(divide="ignore", over="ignore"):
        if kind == "ed":
            return math.log(q[0]) - q[0] * xs
        if kind == "ged":
            a, theta = q
            return math.log(theta * a) - a * xs + (theta - 1.0) * dist._log1mexp(a * xs)
        if kind == "gd":
            return dist.log_pdf(_gd_core(spec), xs)
        s, beta = _frechet(spec)
        return math.log(s * beta) - (beta + 1.0) * np.log(xs) - s * xs ** (-beta)


def competitor_loglik(spec: CompetitorSpec, values) -> float:
    lp = competitor_log_pdf(spec, np.asarray(values, dtype=float))
    total = float(np.sum(lp))
    return total if math.isfinite(total) else -math.inf


# ---------------------------------------------------------------------------
# competitor fitting (closed forms and one-dimensional profiles)
# ---------------------------------------------------------------------------

def fit_competitor(kind: str, values) -> CompetitorSpec:
    """Maximum-likelihood fit of a competitor family to positive data.

    ED has the closed form a = n / sum(x).  For each other family,
    ``profile(v)`` gives -L and the parameters where one parameter is e^v and
    any other is its closed-form profile MLE; one bounded Brent search over v
    finds the fit.  Where the search ends at an end of its interval, the
    likelihood still rises toward it (a sample with no spread, say), and
    the fit is marked not converged.  For EGIW, alpha and theta enter the
    likelihood only through their product; alpha is pinned at 1 and the
    product reported as theta.
    """
    x = _lifetimes(values)
    n = x.size
    kind = _kind(kind)
    sx = float(np.sum(x))
    if kind == "ed":
        return CompetitorSpec("ed", (n / sx,))
    slx = float(np.sum(np.log(x)))
    lo, hi = math.log(0.01), math.log(50.0)     # the inverse Weibull shape's interval

    if kind == "ged":
        def profile(la):
            a = math.exp(la)
            slp = float(np.sum(dist._log1mexp(a * x)))
            theta = -n / slp
            return -(n * math.log(theta * a) - a * sx + (theta - 1.0) * slp), (a, theta)
        lo, hi = math.log(0.001 / (sx / n)), math.log(100.0 / (sx / n))
    elif kind == "gd":
        def profile(lc):
            c = math.exp(lc)
            s = float(np.sum(np.expm1(c * x)))
            rate = n / s          # profile MLE of the core rate a/c
            return -(n * math.log(rate * c) + c * sx - rate * s), (rate * c, c)
        lo, hi = math.log(1e-4 / float(x.max())), math.log(50.0 / float(x.max()))
    elif kind == "iw":
        def profile(lt):
            t = math.exp(lt)
            return -(n * math.log(t) - (t + 1.0) * slx - float(np.sum(x ** (-t)))), (t,)
    elif kind in ("giw", "egiw"):
        def profile(lb):
            beta = math.exp(lb)
            theta = n / float(np.sum(x ** (-beta)))
            negl = -(n * math.log(theta * beta) - (beta + 1.0) * slx - n)
            return negl, ((theta, beta) if kind == "giw" else (1.0, theta, beta))
    else:
        raise InvalidParametersError(f"unknown competitor kind {kind!r}")
    xatol = 1e-12
    v = float(minimize_scalar_bounded(lambda v: profile(v)[0], lo, hi, xatol=xatol))
    spec = CompetitorSpec(kind, profile(v)[1])
    # Brent stops with its bracket within 2 (sqrt(eps) |v| + xatol / 3) of v, so
    # a search that kept an end of [lo, hi] as its bracket's end stops that near it
    edge = 3.0 * (math.sqrt(2.2e-16) * abs(v) + xatol)
    object.__setattr__(spec, "converged", min(v - lo, hi - v) > edge)
    return spec


def competitor_covariance(spec: CompetitorSpec, values) -> np.ndarray:
    """Inverse observed information over the family's own parameters."""
    x = np.asarray(values, dtype=float)
    info = -numerical_hessian(lambda p: competitor_loglik(CompetitorSpec(spec.kind, tuple(p)), x),
                              np.asarray(spec.params, dtype=float))
    return np.linalg.inv(info)
