"""Maximum-likelihood fitting of the five-parameter family.

The log-likelihood of a complete sample is the sum of per-point log
densities.  The exponentiation parameter theta always has a closed-form
conditional MLE given (a, b, c, d), so the search runs over the four
remaining parameters in log space.  Each evaluation makes one pass of the
distribution's inner kernel over the data, and theta-hat, the log-likelihood
and its analytic gradient are all read from it.  The gradient is derived
directly from the log-likelihood; a finite-difference property test
arbitrates it.

The fit's objective owns one workspace over the data (distribution's
_Workspace): log x is computed once, and the kernel, log f and the
gradient write every intermediate into the workspace's arrays, so an
evaluation allocates no array of the data's length.  The public functions
here (loglik, loglik_grad, profile_theta) run the same code with fresh
arrays.  fit frees the workspace once its L-BFGS-B runs are done.

The optimisers are the package's own (``optimize``): L-BFGS-B for the
four-parameter search, and the ports of scipy's brentq and bounded Brent
for the Weibull-shape anchor and the competitor fits, so a fit loads no
scipy.  The Wald z comes from ``statistics.NormalDist``.

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
from statistics import NormalDist

import numpy as np

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
from .optimize import brentq, minimize

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
    """Multistart settings: restart count, interval level and search box.

    ``box`` bounds the (a, b, c, d) search in natural units, as four
    (lo, hi) pairs with 0 < lo < hi < inf.  The defaults admit the
    parameter scales seen in lifetime data spanning several decades while
    excluding the numerically degenerate spike ridges (b, d -> large) along
    which the likelihood is unbounded.
    """

    n_restarts: int = 8
    ci_level: float = 0.95
    box: tuple = ((1e-12, 1e4), (1e-3, 4.0), (1e-6, 50.0), (0.05, 4.0))

    def __post_init__(self):
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if not (0.0 < self.ci_level < 1.0):
            raise ValueError("ci_level must be in (0, 1)")
        try:
            ok = len(self.box) == 4 and all(
                len(p) == 2 and 0.0 < p[0] < p[1] < math.inf for p in self.box)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError("box must be four (lo, hi) pairs with 0 < lo < hi < inf")


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
    return _grad(p, x, dist._inner(p.a, p.b, p.c, p.d, x))


def _grad(p: EgwgParams, x: np.ndarray, k: tuple, ws=None) -> np.ndarray:
    """loglik_grad at p from the kernel k = dist._inner(a, b, c, d, x, ws).

    The terms of each sum are formed in ws's arrays (fresh ones when ws is None).
    """
    n = x.size
    a, b, c, d, th = p.a, p.b, p.c, p.d, p.theta
    lnx, s, cs, lg, logz, z, lnP = k
    tmp = dist._scratch(ws, "t", x)
    prod = dist._scratch(ws, "grad.prod", x)
    mask = dist._scratch(ws, "mask", x, bool)

    def sums(terms):
        """(sum of terms, sum of terms * log x)."""
        return terms.sum(), np.multiply(terms, lnx, out=prod).sum()

    with np.errstate(all="ignore"):
        # log(e^z - 1), carried as log z below z = e^-36
        lem1z = dist._log_expm1(np.maximum(z, 1e-300, out=tmp),
                                out=dist._scratch(ws, "grad.lem1z", x), ws=ws)
        np.copyto(lem1z, logz, where=np.less(logz, -36.0, out=mask))
        # W = 1 + (c d / b) s - e^{-cs}, with no cancellation
        W = np.negative(cs, out=dist._scratch(ws, "grad.W", x))
        np.subtract(np.multiply(c * d / b, s, out=tmp), np.expm1(W, out=W), out=W)

        S_g, S_glnx = sums(np.exp(lg, out=tmp))                  # g = x^b (e^{cs} - 1)
        S_tg, S_tglnx = sums(np.exp(np.subtract(lg, lem1z, out=tmp), out=tmp))   # g / (e^z - 1)
        E = np.multiply(b, lnx, out=dist._scratch(ws, "grad.E", x))
        np.add(np.add(E, np.multiply(d, lnx, out=tmp), out=E), cs, out=E)   # log(x^b s e^{cs})
        S_xbsE, S_xbsElnx = sums(np.exp(E, out=tmp))
        S_tc, S_tclnx = sums(np.exp(np.subtract(E, lem1z, out=tmp), out=tmp))
        S_s, S_slnx = sums(s)

        # w_b = s / W, w_c = s (d / b + e^{-cs}) / W and
        # w_d = (c / b) s (1 + d log x + b e^{-cs} log x) / W; where c s
        # underflows, W = c s (b + d) / b to within a factor 1 + c s
        under = np.equal(cs, 0.0, out=mask)
        any_under = under.any()
        w = np.divide(s, W, out=tmp)
        if any_under:
            np.copyto(w, b / (c * (b + d)), where=under)
        S_wb = w.sum()
        e_cs = np.exp(np.negative(cs, out=E), out=E)
        w = np.divide(np.multiply(s, np.add(d / b, e_cs, out=tmp), out=tmp), W, out=tmp)
        if any_under:
            np.copyto(w, 1.0 / c, where=under)
        S_wc = w.sum()
        np.multiply(np.multiply(b, e_cs, out=e_cs), lnx, out=e_cs)
        w = np.add(np.add(1.0, np.multiply(d, lnx, out=tmp), out=tmp), e_cs, out=tmp)
        np.divide(np.multiply(np.multiply(c / b, s, out=prod), w, out=w), W, out=w)
        if any_under:
            np.add(1.0 / (b + d), lnx, out=w, where=under)
        S_wd = w.sum()

        da = n / a - S_g + (th - 1.0) * S_tg
        db = (n / b + lnx.sum() - a * S_glnx
              + (th - 1.0) * a * S_tglnx
              - (c * d / b ** 2) * S_wb)
        dc = (S_s - a * S_xbsE
              + (th - 1.0) * a * S_tc
              + S_wc)
        dd = (c * S_slnx - a * c * S_xbsElnx
              + (th - 1.0) * a * c * S_tclnx
              + S_wd)
        dth = n / th + lnP.sum()
    return np.array([da, db, dc, dd, dth])


def profile_theta(a: float, b: float, c: float, d: float, data: Dataset) -> float:
    """Closed-form conditional MLE of theta given the other four parameters.

    theta = -n / sum(ln(1 - e^{-a x^b (e^{c x^d} - 1)})); positive because
    every summand is negative.
    """
    if min(a, b, c, d) <= 0.0:
        raise InvalidParametersError("profile_theta requires a, b, c, d > 0")
    with np.errstate(all="ignore"):
        return _theta_hat(data.n, dist._inner(a, b, c, d, data.values)[6])


def _theta_hat(n: int, lnP: np.ndarray) -> float:
    """profile_theta from the kernel's log(1 - e^{-z}) column."""
    ssum = float(lnP.sum())
    theta = -n / ssum if -math.inf < ssum < 0.0 else math.inf
    if not math.isfinite(theta):
        raise LeftTailUnderflowError("profile sum degenerate under floating point")
    return theta


# ---------------------------------------------------------------------------
# multistart fit
# ---------------------------------------------------------------------------

_BIG = 1e13
_STATIONARITY_SCALE = 1e-4   # converged: max |projected grad| <= scale * max(1, |L|)
_LBFGSB_MAX_ITER = 500       # caps each L-BFGS-B run: the first and the retry


class _Objective:
    """Profiled negative log-likelihood over u = log(a, b, c, d).

    The value at u is exactly -loglik at (a, b, c, d, profile_theta(...)),
    or _BIG where theta cannot be profiled or the likelihood is -inf.
    Every evaluation writes into one workspace over the data (log x,
    computed once, and the kernel's, log f's and the gradient's arrays), so
    it allocates no array of the data's length.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self.ws = dist._Workspace(data.values)
        self.n_evals = 0

    def value_grad(self, u: np.ndarray):
        """(f, df/du) from one dist._inner pass (two where log_pdf's theta < 1 clamp acts)."""
        self.n_evals += 1
        a, b, c, d = np.exp(u)
        ws = self.ws
        x = ws.x
        with np.errstate(all="ignore"):
            k = dist._inner(a, b, c, d, x, ws=ws)
            try:
                p = EgwgParams(a, b, c, d, _theta_hat(self.data.n, k[6]))
            except LeftTailUnderflowError:
                return _BIG, np.zeros(4)
            ll = float(dist._log_f(p, x, k, ws)[0].sum())
            if not math.isfinite(ll):   # the sentinel has no slope; a huge finite -L keeps its own
                return _BIG, np.zeros(4)
            # envelope theorem: dL/dtheta = 0 at the profiled theta, so the
            # profiled gradient is the partial gradient; chain rule to log space
            gu = -_grad(p, x, k, ws)[:4] * np.exp(u)
        return -ll, (gu if np.all(np.isfinite(gu)) else np.zeros(4))


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

    Each restart runs gradient-based L-BFGS-B (``optimize.minimize``, the
    package's port of scipy's), capped at ``_LBFGSB_MAX_ITER`` iterations.
    A terminus counts as converged when its gradient, projected onto the
    feasible box, satisfies the stationarity check.  Only when the
    endpoint fails that check does a second L-BFGS-B run start from it,
    with a fresh curvature memory; the better of the two endpoints is kept.  L-BFGS-B accepts only iterates
    that pass its sufficient-decrease line search, so no endpoint is worse
    than its start.  The best converged terminus wins (ties resolve to the
    earliest restart).  If no restart converges the best point is returned
    with converged = False, never a silent success.  The reported
    log-likelihood is the objective's value at the chosen terminus, which
    is -loglik there bit for bit.

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
        return minimize(obj.value_grad, u, method="L-BFGS-B", bounds=bounds,
                        options={"maxiter": _LBFGSB_MAX_ITER, "ftol": 1e-14, "gtol": 1e-12})

    def stationarity(u, fu, gu):
        """(max |projected gradient|, whether it passes the stationarity test)."""
        proj = gu.copy()
        at_lb = np.isclose(u, lb, rtol=0.0, atol=1e-12)
        at_ub = np.isclose(u, ub, rtol=0.0, atol=1e-12)
        proj[at_lb & (proj > 0.0)] = 0.0   # minimising: outward push is inert
        proj[at_ub & (proj < 0.0)] = 0.0
        pg = float(np.max(np.abs(proj)))
        return pg, bool(fu < _BIG and pg <= _STATIONARITY_SCALE * max(1.0, abs(fu)))

    termini = []
    for k, anchor in enumerate(_anchors(x, cfg.n_restarts), start=1):
        r1 = lbfgsb(np.clip(np.log(anchor), lb, ub))
        pg1, stat1 = stationarity(r1.x, r1.fun, r1.jac)
        fu, u, stat = r1.fun, r1.x, stat1
        if stat1:
            retry = "retry skipped"
        else:
            # one fresh L-BFGS-B run from the endpoint, with no curvature memory
            r2 = lbfgsb(r1.x)
            if r2.fun < fu:
                fu, u, stat = r2.fun, r2.x, stationarity(r2.x, r2.fun, r2.jac)[1]
            retry = f"retry ran: nfev={r2.nfev} ({r2.message})"
        _log.debug("restart %d: L-BFGS-B nfev=%d (%s), max projected gradient %.3g; %s",
                   k, r1.nfev, r1.message, pg1, retry)
        termini.append((fu, u, stat))
    n_evals = obj.n_evals
    del obj   # frees the objective's workspace before the curvature

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
    ll = -float(best[0])   # the objective's value at the terminus is -loglik there

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
                       n_evals=n_evals, restarts_used=len(termini))
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
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
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
