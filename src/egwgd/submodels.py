"""Named sub-families and the standalone competitor distributions.

Two distinct views live here.  ``embed`` realises the catalogue of special
cases of the five-parameter family as parameter assignments (a structural
mapping).  The competitor families (ED, GED, GD, IW, GIW, EGIW) are the
models the benchmark comparison fits side by side; each carries its own
likelihood, closed-form or one-dimensional profile MLE, and the effective
parameter count its information criteria use.

Note on the Gompertz competitor: its (a, c) are in the hazard-rate
convention h(x) = a e^{c x}, so it evaluates through the core family at
rate a/c.  The structural ``embed`` mapping for the "gd" sub-model kind
keeps the literal assignment (a, 0, c, 1, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distribution as dist
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

SUB_MODEL_PARAM_NAMES = {
    "gwgd": ("a", "b", "c", "d"),
    "gd": ("a", "c"),
    "ggd": ("a", "c", "theta"),
    "exp_mod_weibull_ext": ("a", "alpha", "d", "theta"),
    "epd": ("a", "d", "c"),
    "gepd": ("a", "d", "c", "theta"),
    "chen": ("a", "d"),
    "xie": ("a", "c", "d"),
    "ed": ("a",),
    "ged": ("a", "theta"),
}

# friendly string names accepted wherever a kind is addressed
KIND_ALIASES = {"gompertz": "gd", "exponential": "ed"}

COMPETITOR_PARAM_NAMES = {
    "ed": ("a",),
    "ged": ("a", "theta"),
    "gd": ("a", "c"),
    "iw": ("theta",),
    "giw": ("theta", "beta"),
    "egiw": ("alpha", "theta", "beta"),
}

# effective parameter counts used by the information criteria
COMPETITOR_K = {"ed": 1, "ged": 2, "gd": 2, "iw": 2, "giw": 3, "egiw": 4}


@dataclass(frozen=True)
class SubModelSpec:
    """A named special case of the full family with its own parameters."""

    kind: str
    params: tuple

    def __post_init__(self):
        kind = self.kind.lower()
        kind = KIND_ALIASES.get(kind, kind)
        object.__setattr__(self, "kind", kind)
        names = SUB_MODEL_PARAM_NAMES.get(kind)
        if names is None:
            raise InvalidParametersError(f"unknown sub-model kind {self.kind!r}")
        if len(self.params) != len(names):
            raise InvalidParametersError(
                f"{kind} takes parameters {names}, got {len(self.params)} values")
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))


@dataclass(frozen=True)
class CompetitorSpec:
    """A fitted-or-fixed competitor model for the benchmark comparison."""

    kind: str
    params: tuple

    def __post_init__(self):
        kind = KIND_ALIASES.get(self.kind.lower(), self.kind.lower())
        object.__setattr__(self, "kind", kind)
        names = COMPETITOR_PARAM_NAMES.get(kind)
        if names is None:
            raise InvalidParametersError(f"unknown competitor kind {self.kind!r}")
        if len(self.params) != len(names):
            raise InvalidParametersError(
                f"{kind} takes parameters {names}, got {len(self.params)} values")
        params = tuple(float(v) for v in self.params)
        if any(not (math.isfinite(v) and v > 0.0) for v in params):
            raise InvalidParametersError(f"{kind} parameters must be finite and positive")
        object.__setattr__(self, "params", params)

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
    kind, q = spec.kind, spec.params
    if kind == "gwgd":
        a, b, c, d = q
        return EgwgParams(a, b, c, d, 1.0)
    if kind == "gd":
        a, c = q
        return EgwgParams(a, 0.0, c, 1.0, 1.0)
    if kind == "ggd":
        a, c, theta = q
        return EgwgParams(a, 0.0, c, 1.0, theta)
    if kind == "exp_mod_weibull_ext":
        a, alpha, d, theta = q
        return EgwgParams(a, 0.0, (1.0 / alpha) ** d, d, theta)
    if kind == "epd":
        a, d, c = q
        return EgwgParams(a, 0.0, c, d, 1.0)
    if kind == "gepd":
        a, d, c, theta = q
        return EgwgParams(a, 0.0, c, d, theta)
    if kind == "chen":
        a, d = q
        return EgwgParams(a, 0.0, 1.0, d, 1.0)
    if kind == "xie":
        a, c, d = q
        return EgwgParams(a, 0.0, c, d, 1.0)
    raise NotEmbeddableError(
        f"{kind} is the degenerate c -> 0 limit; evaluate it through competitor_cdf")


# ---------------------------------------------------------------------------
# competitor evaluation
# ---------------------------------------------------------------------------

def _gd_core(spec: CompetitorSpec) -> EgwgParams:
    a, c = spec.params
    return EgwgParams(a / c, 0.0, c, 1.0, 1.0)


def competitor_cdf(spec: CompetitorSpec, x):
    """CDF of a competitor model at x > 0 (vectorised)."""
    xs = np.asarray(x, dtype=float)
    kind, q = spec.kind, spec.params
    if kind == "ed":
        return -np.expm1(-q[0] * xs)
    if kind == "ged":
        a, theta = q
        return np.exp(theta * np.log(-np.expm1(-a * xs)))
    if kind == "gd":
        return dist.cdf(_gd_core(spec), xs)
    if kind == "iw":
        return np.exp(-xs ** (-q[0]))
    if kind == "giw":
        theta, beta = q
        return np.exp(-theta * xs ** (-beta))
    alpha, theta, beta = q     # egiw
    return np.exp(-alpha * theta * xs ** (-beta))


def competitor_log_pdf(spec: CompetitorSpec, x):
    """Log-density of a competitor model at x > 0 (vectorised)."""
    xs = np.asarray(x, dtype=float)
    kind, q = spec.kind, spec.params
    with np.errstate(divide="ignore", over="ignore"):
        if kind == "ed":
            return math.log(q[0]) - q[0] * xs
        if kind == "ged":
            a, theta = q
            return (math.log(theta * a) - a * xs
                    + (theta - 1.0) * np.log(-np.expm1(-a * xs)))
        if kind == "gd":
            return dist.log_pdf(_gd_core(spec), xs)
        if kind == "iw":
            theta = q[0]
            return math.log(theta) - (theta + 1.0) * np.log(xs) - xs ** (-theta)
        if kind == "giw":
            theta, beta = q
            return (math.log(theta * beta) - (beta + 1.0) * np.log(xs)
                    - theta * xs ** (-beta))
        alpha, theta, beta = q  # egiw
        return (math.log(alpha * theta * beta) - (beta + 1.0) * np.log(xs)
                - alpha * theta * xs ** (-beta))


def competitor_loglik(spec: CompetitorSpec, values) -> float:
    lp = competitor_log_pdf(spec, np.asarray(values, dtype=float))
    total = float(np.sum(lp))
    return total if math.isfinite(total) else -math.inf


# ---------------------------------------------------------------------------
# competitor fitting (closed forms and one-dimensional profiles)
# ---------------------------------------------------------------------------

def _opt_scalar(negl, lo, hi):
    return float(minimize_scalar_bounded(negl, lo, hi, xatol=1e-12))


def fit_competitor(kind: str, values) -> CompetitorSpec:
    """Maximum-likelihood fit of a competitor family to positive data.

    ED has the closed form a = n / sum(x).  The other families reduce to a
    one-dimensional search after profiling out their rate parameter.  For
    EGIW, alpha and theta enter the likelihood only through their product;
    alpha is pinned at 1 and the product reported as theta.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    kind = KIND_ALIASES.get(kind.lower(), kind.lower())
    if kind == "ed":
        return CompetitorSpec("ed", (n / float(np.sum(x)),))

    if kind == "ged":
        def negl(la):
            a = math.exp(la)
            lp1 = np.log(-np.expm1(-a * x))
            theta = -n / float(np.sum(lp1))
            return -(n * math.log(theta * a) - a * float(np.sum(x))
                     + (theta - 1.0) * float(np.sum(lp1)))
        la = _opt_scalar(negl, math.log(0.001 / x.mean()), math.log(100.0 / x.mean()))
        a = math.exp(la)
        theta = -n / float(np.sum(np.log(-np.expm1(-a * x))))
        return CompetitorSpec("ged", (a, theta))

    if kind == "gd":
        sx = float(np.sum(x))

        def negl(lc):
            c = math.exp(lc)
            s = float(np.sum(np.expm1(c * x)))
            rate = n / s          # profile MLE of the core rate a/c
            return -(n * math.log(rate * c) + c * sx - rate * s)
        M = float(x.max())
        lc = _opt_scalar(negl, math.log(1e-4 / M), math.log(50.0 / M))
        c = math.exp(lc)
        rate = n / float(np.sum(np.expm1(c * x)))
        return CompetitorSpec("gd", (rate * c, c))

    if kind == "iw":
        lx = np.log(x)

        def negl(lt):
            t = math.exp(lt)
            return -(n * math.log(t) - (t + 1.0) * float(np.sum(lx))
                     - float(np.sum(x ** (-t))))
        return CompetitorSpec("iw", (math.exp(_opt_scalar(negl, math.log(0.01), math.log(50.0))),))

    if kind in ("giw", "egiw"):
        lx = np.log(x)

        def negl(lb):
            beta = math.exp(lb)
            s = float(np.sum(x ** (-beta)))
            theta = n / s
            return -(n * math.log(theta * beta) - (beta + 1.0) * float(np.sum(lx)) - n)
        lb = _opt_scalar(negl, math.log(0.01), math.log(50.0))
        beta = math.exp(lb)
        theta = n / float(np.sum(x ** (-beta)))
        if kind == "giw":
            return CompetitorSpec("giw", (theta, beta))
        return CompetitorSpec("egiw", (1.0, theta, beta))

    raise InvalidParametersError(f"unknown competitor kind {kind!r}")


def competitor_covariance(spec: CompetitorSpec, values) -> np.ndarray:
    """Inverse observed information over the family's own parameters."""
    x = np.asarray(values, dtype=float)
    kind = spec.kind
    p0 = np.asarray(spec.params, dtype=float)

    def L(p):
        return competitor_loglik(CompetitorSpec(kind, tuple(p)), x)

    info = -numerical_hessian(L, p0)
    return np.linalg.inv(info)
