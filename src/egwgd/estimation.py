"""Maximum-likelihood fitting of the five-parameter family.

The log-likelihood of a complete sample is the sum of per-point log
densities.  The exponentiation parameter theta always has a closed-form
conditional MLE given (a, b, c, d), so the search runs over the four
remaining parameters in log space, with theta profiled out at every
evaluation.  The analytic gradient is derived directly from the
log-likelihood; a finite-difference property test arbitrates it.

The likelihood of this family is unbounded along degenerate spike ridges
(b, d large) and improves toward the c -> 0 boundary closure on some data
sets, so the optimizer works inside a documented parameter box; a terminus
clamped at the box edge is reported as converged when its projected
gradient vanishes.  See FitConfig.box.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import ndtri

from . import distribution as dist
from . import submodels
from .distribution import EgwgParams
from .exceptions import (
    DegenerateInformationError,
    DomainError,
    InvalidParametersError,
    LeftTailUnderflowError,
    StencilError,
)
from .numerics import numerical_hessian

__all__ = [
    "Dataset",
    "FitConfig",
    "FitResult",
    "loglik",
    "loglik_grad",
    "profile_theta",
    "fit",
    "observed_information",
    "confidence_intervals",
]

PARAM_ORDER = ("a", "b", "c", "d", "theta")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Dataset:
    """A complete (uncensored) sample of positive lifetimes, kept sorted."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        if v.size < 1:
            raise DomainError("dataset must contain at least one value")
        if np.any(~np.isfinite(v)) or np.any(v <= 0.0):
            raise DomainError("all lifetimes must be finite and > 0")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class FitConfig:
    """Multistart optimisation settings.

    ``box`` bounds the (a, b, c, d) search in natural units.  The defaults
    admit the parameter scales seen in lifetime data spanning several
    decades while excluding the numerically degenerate spike ridges
    (b, d -> large) along which the likelihood is unbounded.
    """

    n_restarts: int = 8
    stationarity_scale: float = 1e-4     # max |grad L| <= scale * max(1, |L|)
    polish_max_iter: int = 500           # caps each L-BFGS-B run: the first and the retry
    ci_level: float = 0.95
    box: tuple = ((1e-12, 1e4), (1e-3, 4.0), (1e-6, 50.0), (0.05, 4.0))

    def __post_init__(self):
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if not (0.0 < self.ci_level < 1.0):
            raise ValueError("ci_level must be in (0, 1)")

    def to_json_dict(self) -> dict:
        return {
            "n_restarts": self.n_restarts,
            "stationarity_scale": self.stationarity_scale,
            "polish_max_iter": self.polish_max_iter,
            "ci_level": self.ci_level,
            "box": [list(b) for b in self.box],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FitConfig":
        kw = dict(d)
        if "box" in kw:
            kw["box"] = tuple(tuple(b) for b in kw["box"])
        return cls(**kw)


@dataclass
class FitResult:
    """MLEs with curvature-based uncertainty and convergence diagnostics."""

    params: EgwgParams
    loglik: float
    covariance: np.ndarray
    intervals: dict | None
    level: float
    converged: bool
    n_evals: int
    restarts_used: int
    below_zero: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "loglik": self.loglik,
            "covariance": {
                "order": list(PARAM_ORDER),
                "values": [float(v) for v in np.asarray(self.covariance).ravel()],
            },
            "intervals": None if self.intervals is None else
                {k: [float(lo), float(hi)] for k, (lo, hi) in self.intervals.items()},
            "level": self.level,
            "converged": self.converged,
            "n_evals": self.n_evals,
            "restarts_used": self.restarts_used,
            "below_zero": list(self.below_zero),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


# ---------------------------------------------------------------------------
# likelihood, gradient, profile
# ---------------------------------------------------------------------------

def loglik(p: EgwgParams, data: Dataset) -> float:
    """Sum of per-point log densities; -inf when any point is rejected.

    Requires b > 0: the b = 0 sub-families carry their own standalone
    likelihoods (see the competitor evaluators).
    """
    if p.b <= 0.0:
        raise InvalidParametersError(
            "the full-family likelihood requires b > 0; use a sub-model likelihood for b = 0")
    with np.errstate(all="ignore"):
        lp = np.atleast_1d(dist.log_pdf(p, data.values))
    total = float(np.sum(lp))
    return total if math.isfinite(total) else -math.inf


def loglik_grad(p: EgwgParams, data: Dataset) -> np.ndarray:
    """Analytic gradient (dL/da, dL/db, dL/dc, dL/dd, dL/dtheta).

    Derived from the log-likelihood itself; ratios such as
    e^{-z} / (1 - e^{-z}) = 1 / (e^z - 1) are formed in log space so that
    neither tail over- nor underflows.
    """
    if p.b <= 0.0:
        raise InvalidParametersError("gradient requires b > 0")
    x = data.values
    n = x.size
    a, b, c, d, th = p.a, p.b, p.c, p.d, p.theta
    with np.errstate(all="ignore"):
        lnx, s, cs, lg, logz, z = dist._inner(a, b, c, d, x)
        log_s = d * lnx
        lem1z = np.where(logz < -36.0, logz, dist._log_expm1(np.maximum(z, 1e-300)))
        lnP = dist._log1mexp(z, logz)
        W = (c * d / b) * s - np.expm1(-cs)   # 1 + (c d / b) s - e^{-cs}, no cancellation
        g = np.exp(lg)                       # x^b (e^{cs} - 1)
        t_g = np.exp(lg - lem1z)             # g / (e^z - 1)
        xbsE = np.exp(b * lnx + log_s + cs)  # x^b s e^{cs}
        t_c = np.exp(b * lnx + log_s + cs - lem1z)

        w_b = s / W
        w_c = s * (d / b + np.exp(-cs)) / W
        w_d = (c / b) * s * (1.0 + d * lnx + b * np.exp(-cs) * lnx) / W
        under = cs == 0.0
        if under.any():
            # where c s underflows, W = c s (b + d) / b to within a factor 1 + c s
            w_b[under] = b / (c * (b + d))
            w_c[under] = 1.0 / c
            w_d[under] = 1.0 / (b + d) + lnx[under]

        da = n / a - np.sum(g) + (th - 1.0) * np.sum(t_g)
        db = (n / b + np.sum(lnx) - a * np.sum(g * lnx)
              + (th - 1.0) * a * np.sum(t_g * lnx)
              - (c * d / b ** 2) * np.sum(w_b))
        dc = (np.sum(s) - a * np.sum(xbsE)
              + (th - 1.0) * a * np.sum(t_c)
              + np.sum(w_c))
        dd = (c * np.sum(s * lnx) - a * c * np.sum(xbsE * lnx)
              + (th - 1.0) * a * c * np.sum(t_c * lnx)
              + np.sum(w_d))
        dth = n / th + np.sum(lnP)
    return np.array([da, db, dc, dd, dth])


def profile_theta(a: float, b: float, c: float, d: float, data: Dataset) -> float:
    """Closed-form conditional MLE of theta given the other four parameters.

    theta = -n / sum(ln(1 - e^{-a x^b (e^{c x^d} - 1)})); positive because
    every summand is negative.
    """
    if min(a, b, c, d) <= 0.0:
        raise InvalidParametersError("profile_theta requires a, b, c, d > 0")
    with np.errstate(all="ignore"):
        _, _, _, _, logz, z = dist._inner(a, b, c, d, data.values)
        lnP = dist._log1mexp(z, logz)
    ssum = float(np.sum(lnP))
    if not math.isfinite(ssum) or ssum >= 0.0:
        raise LeftTailUnderflowError("profile sum degenerate under floating point")
    theta = -data.n / ssum
    if not math.isfinite(theta):
        raise LeftTailUnderflowError("profile sum degenerate under floating point")
    return theta


# ---------------------------------------------------------------------------
# multistart fit
# ---------------------------------------------------------------------------

_BIG = 1e13


class _Objective:
    """Profiled negative log-likelihood over u = log(a, b, c, d).

    The value at u is exactly -loglik at (a, b, c, d, profile_theta(...)),
    or _BIG where theta cannot be profiled or the likelihood is -inf.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self.n_evals = 0

    def _evaluate(self, u: np.ndarray):
        """(f, p): the value at u and the parameters it was evaluated at."""
        self.n_evals += 1
        a, b, c, d = np.exp(u)
        try:
            p = EgwgParams(a, b, c, d, profile_theta(a, b, c, d, self.data))
        except LeftTailUnderflowError:
            return _BIG, None
        ll = loglik(p, self.data)
        return (-ll if math.isfinite(ll) else _BIG), p

    def value(self, u: np.ndarray) -> float:
        return self._evaluate(u)[0]

    def value_grad(self, u: np.ndarray):
        f, p = self._evaluate(u)
        if f == _BIG:   # the sentinel has no slope; a huge finite -L keeps its own
            return f, np.zeros(4)
        with np.errstate(all="ignore"):
            grad = loglik_grad(p, self.data)[:4]
        # envelope theorem: dL/dtheta = 0 at the profiled theta, so the
        # profiled gradient is the partial gradient; chain rule to log space
        gu = -grad * np.exp(u)
        if not np.all(np.isfinite(gu)):
            return f, np.zeros(4)
        return f, gu


def _weibull_shape(x: np.ndarray) -> float:
    lx = np.log(x)

    def eq(k):
        xk = x ** k
        return float(np.sum(xk * lx) / np.sum(xk) - 1.0 / k - lx.mean())

    try:
        return brentq(eq, 0.05, 20.0)
    except ValueError:
        return 1.0


def _anchors(x: np.ndarray, n_restarts: int) -> list:
    """Deterministic starting points: Gompertz/Weibull heuristics plus a
    scaled grid over the shape pair with median-matched rates."""
    med = float(np.median(x))
    M = float(x.max())
    # the Gompertz competitor's hazard is a e^{cx}; the core rate is a / c
    a_gd, c_gd = submodels.fit_competitor("gd", x).params
    a_gd /= c_gd
    kw = _weibull_shape(x)

    def matched(b, d, kappa):
        c = kappa / M ** d
        a = math.log(2.0) / (med ** b * math.expm1(c * med ** d))
        return (a, b, c, d)

    base = [
        (a_gd, 0.05, c_gd, 1.0),
        (a_gd, 0.3, c_gd, 1.0),
        matched(0.05, 0.7, 9.0),
        matched(0.3, 1.0, 4.0),
        matched(0.5, 0.5, 2.0),
        matched(0.1, 1.4, 4.0),
        matched(min(max(kw / 2, 0.05), 3.5), min(max(kw / 2, 0.1), 3.5), 2.0),
        matched(0.5, 1.0, 2.0),
    ]
    out = list(base)
    scale = 10.0
    while len(out) < n_restarts:   # deterministic extension beyond 8
        k = len(out) - len(base)
        a, b, c, d = base[k % len(base)]
        out.append((a * scale, b, c, d))
        if (k + 1) % len(base) == 0:
            scale = 1.0 / scale if scale > 1.0 else scale * 100.0
    return out[:n_restarts]


def fit(data: Dataset, config: FitConfig | None = None) -> FitResult:
    """Multistart maximum-likelihood fit with theta profiled out.

    Each restart runs gradient-based L-BFGS-B, capped at
    ``polish_max_iter`` iterations.  A terminus counts as converged when
    its gradient, projected onto the feasible box, satisfies the
    stationarity check.  Only when the endpoint fails that check, or is
    worse than the restart's start, does a second L-BFGS-B run start from
    it, with a fresh curvature memory; the better of the two endpoints is
    kept, and never one worse than the start.  The best converged terminus
    wins (ties resolve to the earliest restart).  If no restart converges
    the best point is returned with converged = False, never a silent
    success.

    One DEBUG record per restart goes to the ``egwgd.estimation`` logger:
    the L-BFGS-B evaluation count and message, the endpoint's largest
    projected gradient, and whether the retry ran, with its evaluation
    count and message.
    """
    cfg = config or FitConfig()
    if data.n < 5:
        raise DomainError("the five-parameter fit needs n >= 5")
    x = data.values
    obj = _Objective(data)
    lb = np.log([b[0] for b in cfg.box])
    ub = np.log([b[1] for b in cfg.box])
    bounds = list(zip(lb, ub))

    def lbfgsb(u):
        return minimize(obj.value_grad, u, jac=True, method="L-BFGS-B", bounds=bounds,
                        options={"maxiter": cfg.polish_max_iter, "ftol": 1e-14, "gtol": 1e-12})

    def stationarity(u, fu, gu):
        """(max |projected gradient|, whether it passes the stationarity test)."""
        proj = gu.copy()
        at_lb = np.isclose(u, lb, rtol=0.0, atol=1e-12)
        at_ub = np.isclose(u, ub, rtol=0.0, atol=1e-12)
        proj[at_lb & (proj > 0.0)] = 0.0   # minimising: outward push is inert
        proj[at_ub & (proj < 0.0)] = 0.0
        pg = float(np.max(np.abs(proj)))
        return pg, bool(fu < _BIG and pg <= cfg.stationarity_scale * max(1.0, abs(fu)))

    termini = []
    for k, anchor in enumerate(_anchors(x, cfg.n_restarts), start=1):
        u0 = np.clip(np.log(anchor), lb, ub)
        f0 = obj.value(u0)
        r1 = lbfgsb(u0)
        pg1, stat1 = stationarity(r1.x, r1.fun, r1.jac)
        fu, u, stat = r1.fun, r1.x, stat1
        if stat1 and r1.fun <= f0:
            retry = "retry skipped"
        else:
            # one fresh L-BFGS-B run from the endpoint, with no curvature memory
            r2 = lbfgsb(r1.x)
            if r2.fun < fu:
                fu, u, stat = r2.fun, r2.x, stationarity(r2.x, r2.fun, r2.jac)[1]
            if fu > f0:            # never accept a terminus worse than its start
                u, fu = u0, f0
                stat = stationarity(u, fu, obj.value_grad(u)[1])[1]
            retry = f"retry ran: nfev={r2.nfev} ({r2.message})"
        _log.debug("restart %d: L-BFGS-B nfev=%d (%s), max projected gradient %.3g; %s",
                   k, r1.nfev, r1.message, pg1, retry)
        termini.append((fu, u, stat))

    converged_termini = [t for t in termini if t[2]]
    pool = converged_termini if converged_termini else termini
    best = min(pool, key=lambda t: t[0])   # first minimum wins ties
    converged = bool(best[2])
    if best[0] >= _BIG:
        raise DomainError(
            "no restart found an evaluable likelihood point; the data are "
            "degenerate for this family (e.g. zero spread) or the search box "
            "excludes every tenable parameter scale")

    a, b, c, d = np.exp(best[1])
    theta = profile_theta(a, b, c, d, data)
    params = EgwgParams(a, b, c, d, theta)
    ll = loglik(params, data)

    # curvature can be uncomputable at a box-clamped terminus (a stencil may
    # step outside the positive orthant); report NaNs rather than fail
    try:
        info = observed_information(params, data)
        try:
            cov = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            cov = np.linalg.pinv(info)
        cov = 0.5 * (cov + cov.T)
    except (StencilError, InvalidParametersError):
        cov = np.full((5, 5), np.nan)

    result = FitResult(params=params, loglik=ll, covariance=cov, intervals=None,
                       level=cfg.ci_level, converged=converged,
                       n_evals=obj.n_evals, restarts_used=len(termini))
    try:
        result.intervals = confidence_intervals(result, cfg.ci_level)
        result.below_zero = tuple(
            name for name, (lo, _) in result.intervals.items() if lo < 0.0)
    except DegenerateInformationError:
        result.intervals = None
    return result


def observed_information(p: EgwgParams, data: Dataset) -> np.ndarray:
    """Negative numerical Hessian of the log-likelihood at p (5 x 5)."""
    if min(p.a, p.b, p.c, p.d, p.theta) <= 0.0:
        raise InvalidParametersError("observed information requires a strictly interior point")
    point = np.array([p.a, p.b, p.c, p.d, p.theta])

    def L(v):
        return loglik(EgwgParams(*v), data)

    return -numerical_hessian(L, point)


def confidence_intervals(fit_result: FitResult, level: float | None = None) -> dict:
    """Wald intervals MLE +/- z * sqrt(var) for each parameter.

    Negative lower bounds are reported as computed; callers can consult
    FitResult.below_zero for the positivity flags.
    """
    level = fit_result.level if level is None else float(level)
    if not (0.0 < level < 1.0):
        raise DomainError(f"confidence level must be in (0, 1), got {level}")
    z = float(ndtri(0.5 + level / 2.0))
    diag = np.diag(np.asarray(fit_result.covariance, dtype=float))
    est = [fit_result.params.a, fit_result.params.b, fit_result.params.c,
           fit_result.params.d, fit_result.params.theta]
    out = {}
    for name, m, v in zip(PARAM_ORDER, est, diag):
        if not math.isfinite(v) or v < 0.0:
            raise DegenerateInformationError("negative or non-finite variance", name)
        half = z * math.sqrt(v)
        out[name] = (m - half, m + half)
    return out
