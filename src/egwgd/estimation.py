"""Maximum-likelihood fitting of the five-parameter family.

The log-likelihood of a complete sample is the sum of per-point log
densities.  The exponentiation parameter theta always has a closed-form
conditional MLE given (a, b, c, d), so the search runs over the four
remaining parameters in log space.  Each evaluation makes one pass of the
distribution's inner kernel over the data, and theta-hat, the log-likelihood
and its analytic gradient are all read from it; where log f's theta < 1
clamp acts, one more pass over the single clamp point gives the clamped
value.  The gradient is derived directly from the log-likelihood; a
finite-difference property test arbitrates it.

The fit's objective owns one workspace over the data (distribution's
_Workspace): log x is computed once, and the kernel, log f and the
gradient write every intermediate into the workspace's arrays, so an
evaluation allocates no array of the data's length.  The public functions
here (loglik, loglik_grad, profile_theta) run the same code with fresh
arrays, and the curvature step runs loglik's in a workspace of its own.
The search frees the objective's workspace once its L-BFGS-B runs are done.

The fit's restarts, each a generator that owns its retry, run in
lock-step (``optimize._lockstep``): each round the objective evaluates the
point of every unfinished restart as one row of a single kernel pass.  One
pass serves one row and k rows alike: k > 1 laws go to the kernel as
parameter columns over (k, n) arrays (distribution's _Laws), one law as
floats over 1-D arrays, and each row comes out bit for bit as that law
alone gives it.  At the small n of typical lifetime data an
evaluation's cost is numpy's per-call overhead, which the rows then share;
each run still makes exactly the iterations it would make alone.

The optimisers are the package's own (``optimize``): L-BFGS-B for the
four-parameter search, and the ports of scipy's brentq and bounded Brent
for the Weibull-shape anchor and the competitor fits, so a fit loads no
scipy.  The Wald z comes from ``numerics._norm_ppf``, the package's port
of AS241, so a fit loads no ``statistics``.

fit is the multistart search (_search) followed by the curvature step;
the CLI's ``compare``, which prints no curvature, runs the search alone.

The likelihood of this family is unbounded along degenerate spike ridges
(b, d large) and improves toward the c -> 0 boundary closure on some data
sets, so the optimizer works inside a documented parameter box; a terminus
clamped at the box edge is reported as converged when its projected
gradient vanishes.  See _BOX.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from . import distribution as dist
from . import submodels
from .datasets import _lifetimes
from .distribution import EgwgParams
from .exceptions import (
    DegenerateInformationError,
    DomainError,
    InvalidParametersError,
    LeftTailUnderflowError,
    StencilError,
    _whole,
)
from .numerics import _norm_ppf, numerical_hessian
from .optimize import _lbfgsb, _lockstep, _projgr, _tenable, brentq
from .optimize import minimize  # noqa: F401  (perfbench's tracer wraps this name)

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

PARAM_ORDER = dist._PARAM_NAMES

_log = logging.getLogger(__name__)
# library logging, silent unless the application configures a handler; set
# here, in the one module that logs, so the package root loads no logging
logging.getLogger(__package__).addHandler(logging.NullHandler())


@dataclass(frozen=True)
class Dataset:
    """A complete (uncensored) sample of positive lifetimes, kept sorted."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(_lifetimes(self.values))
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class FitConfig:
    """Multistart settings: the restart count and the Wald interval level."""

    n_restarts: int = 8
    ci_level: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "n_restarts", _whole(self.n_restarts, "n_restarts"))
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if not (0.0 < self.ci_level < 1.0):
            raise ValueError("ci_level must be in (0, 1)")


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


# ---------------------------------------------------------------------------
# likelihood, gradient, profile
# ---------------------------------------------------------------------------

def loglik(p: EgwgParams, data: Dataset) -> float:
    """Sum of per-point log densities; -inf when any point is rejected.

    Requires b > 0: the b = 0 sub-families carry their own standalone
    likelihoods (see the competitor evaluators).
    """
    return _loglik(p, data.values)


def _loglik(p: EgwgParams, x: np.ndarray, ws=None) -> float:
    """loglik over the points x > 0; ws, a workspace over x, lends its arrays."""
    if p.b <= 0.0:
        raise InvalidParametersError(
            "the full-family likelihood requires b > 0; use a sub-model likelihood for b = 0")
    with np.errstate(all="ignore"):
        total = float(dist._log_f(p, x, dist._inner(p.a, p.b, p.c, p.d, x, ws=ws), ws)[0].sum())
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
    with np.errstate(all="ignore"):
        return _grad(p, x, dist._inner(p.a, p.b, p.c, p.d, x))


def _grad(p, x: np.ndarray, k: dist._Kernel, ws=None) -> np.ndarray:
    """loglik_grad at p from the kernel k = dist._inner(a, b, c, d, x, ws).

    The terms of each sum are formed from k's columns in ws's arrays (fresh
    ones when ws is None), with no transcendental but one exp.  With
    V = (theta - 1) z / (e^z - 1) - z, y = s / W, W = 1 + (c d / b) s - e^{-c s}
    and M = y (1 + d / b + (c d / b) s) + V s / (1 - e^{-c s}):

        dL/da = (n + sum V) / a
        dL/db = n / b + sum log x + sum V log x - (c d / b^2) sum y
        dL/dc = sum M
        dL/dd = c sum M log x + (c / b) sum y
        dL/dtheta = n / theta + sum log(1 - e^{-z})

    p may be k laws as dist._Laws columns over ws's (k, n) arrays; the
    result is then (k, 5), row i the gradient of law i bit for bit: the
    plain sums run along each row as numpy's pairwise sum, the weighted ones
    as einsum's loop (never BLAS, so no sum depends on the thread count;
    its row sums equal its one-row sum for rows of up to 8192 points, and a
    block's rows hold at most _PASS_POINTS // 2), and the assembly below is
    plain arithmetic, which rounds the same on numpy's arrays as on floats.
    It opens no np.errstate: its callers ignore every floating-point error.
    """
    n = x.size
    a, b, c, d, th = p.a, p.b, p.c, p.d, p.theta
    lnx, s, _, em, logz, z, lnP, under = k
    V = dist._scratch(ws, "grad.V", x)
    y = dist._scratch(ws, "grad.y", x)
    M = dist._scratch(ws, "grad.M", x)
    t = dist._scratch(ws, "t", x)
    rows = isinstance(p, dist._Laws)

    def total(terms):
        """The sum of terms, one per row."""
        return terms.sum(axis=1, keepdims=True) if rows else terms.sum()

    def total_lnx(terms):
        """The sum of terms * log x, one per row."""
        return np.einsum("ij,j->i", terms, lnx)[:, None] if rows else np.einsum("i,i", terms, lnx)

    # z / (e^z - 1) = e^{log z - log(e^z - 1)}, and log(e^z - 1) = log(1 - e^{-z}) + z
    np.subtract(logz, np.add(lnP, z, out=V), out=V)
    np.multiply(th - 1.0, np.exp(V, out=V), out=V)
    np.subtract(V, z, out=V)
    # W = (c d / b) s - em, with no cancellation; where c s underflows,
    # W = c s (b + d) / b to within a factor 1 + c s
    u = np.multiply(c * d / b, s, out=t)
    np.divide(s, np.subtract(u, em, out=y), out=y)
    if under is not None:
        np.copyto(y, b / (c * (b + d)), where=under)
    # s / (1 - e^{-c s}) = -s / em, which tends to 1 / c where c s underflows
    np.multiply(y, np.add(u, 1.0 + d / b, out=t), out=t)
    np.divide(np.multiply(s, V, out=M), em, out=M)
    if under is not None:
        np.divide(V, -c, out=M, where=under)
    np.subtract(t, M, out=M)
    S_y = total(y)
    lnx_sum = lnx.sum() if ws is None else ws.lnx_sum
    da = (n + total(V)) / a
    db = n / b + lnx_sum + total_lnx(V) - c * d / b / b * S_y
    dc = total(M)
    dd = c * total_lnx(M) + c / b * S_y
    dth = n / th + total(lnP)
    return np.hstack([da, db, dc, dd, dth]) if rows else np.array([da, db, dc, dd, dth])


def profile_theta(a: float, b: float, c: float, d: float, data: Dataset) -> float:
    """Closed-form conditional MLE of theta given the other four parameters.

    theta = -n / sum(ln(1 - e^{-a x^b (e^{c x^d} - 1)})); positive because
    every summand is negative.
    """
    if min(a, b, c, d) <= 0.0:
        raise InvalidParametersError("profile_theta requires a, b, c, d > 0")
    with np.errstate(all="ignore"):
        theta = _theta_hat(data.n, dist._inner(a, b, c, d, data.values).lnP.sum())
    if not math.isfinite(theta):
        raise LeftTailUnderflowError("profile sum degenerate under floating point")
    return theta


def _theta_hat(n: int, ssum) -> float:
    """profile_theta from the sum of the kernel's log(1 - e^{-z}) column; inf where it is degenerate."""
    ssum = float(ssum)
    return -n / ssum if -math.inf < ssum < 0.0 else math.inf


# ---------------------------------------------------------------------------
# multistart fit
# ---------------------------------------------------------------------------

# The (a, b, c, d) search box in natural units; fit reads it on each call.  Positive bounds
# suit the search in log parameters; finite ones exclude the spike ridges (b, d -> large), where
# the likelihood is unbounded, and still admit lifetime scales spanning several decades.
_BOX = ((1e-12, 1e4), (1e-3, 4.0), (1e-6, 50.0), (0.05, 4.0))
_STATIONARITY_SCALE = 1e-4   # converged: max |projected grad / max(1, |L|)| <= scale
_PASS_POINTS = 2 ** 14       # a kernel pass holds at most max(1, this // n) rows of n points


def _stationarity(r, lb, ub):
    """(max |projected gradient| / max(1, |f|), whether f and g are finite and
    that is at most _STATIONARITY_SCALE) at run result r in the log box lb, ub.
    Scaling g before ``_projgr`` keeps its distance to a bound in log units."""
    g = r.jac.tolist()
    s = max(1.0, abs(r.fun))
    pg = _projgr(r.x.tolist(), [gi / s for gi in g], lb, ub)
    return pg, _tenable(r.fun, g) and pg <= _STATIONARITY_SCALE


class _Objective:
    """Profiled negative log-likelihood over u = log(a, b, c, d).

    The value at u is exactly -loglik at (a, b, c, d, profile_theta(...)),
    or +inf where theta cannot be profiled or the likelihood is -inf; the
    gradient there is whatever the arithmetic gives, and L-BFGS-B backs off
    from any point whose value or gradient is not finite.
    value_grad takes one point or a (k, 4) block of points, such as a round
    of ``optimize._lockstep``, whose rows are evaluated together, max(1,
    _PASS_POINTS // n) rows per kernel pass, and come out bit for bit as
    each point alone would (see dist._Laws).  One
    point is a block of one row, and a pass of one row takes the law as
    floats over 1-D arrays, whose numpy calls cost least.  Every pass writes
    into one workspace over the data (log x, computed once, and the
    kernel's, log f's and the gradient's arrays), so after the first pass of
    a size an evaluation allocates no array of the data's length.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self.ws = dist._Workspace(data.values)
        self.pass_rows = max(1, _PASS_POINTS // data.n)

    def value_grad(self, u: np.ndarray):
        """(f, df/du) at the point u; at a (k, 4) block, f of shape (k,) and df/du (k, 4)."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            f, g = self._pass(u[None])
            return float(f[0]), g[0]
        f = np.empty(len(u))
        g = np.empty((len(u), 4))
        for i in range(0, len(u), self.pass_rows):
            f[i:i + self.pass_rows], g[i:i + self.pass_rows] = self._pass(u[i:i + self.pass_rows])
        return f, g

    def _pass(self, u: np.ndarray):
        """(f as a list of k floats, df/du of shape (k, 4)) at the k >= 1 rows of u,
        from one dist._inner pass over the data (plus one over the single clamp
        point of each row that log f's theta < 1 clamp acts on): one row's law
        as floats over 1-D arrays, k > 1 laws as dist._Laws columns."""
        ws = self.ws
        ws.rows(len(u))
        x = ws.x
        P = np.exp(u)
        a, b, c, d = P[0] if len(u) == 1 else P.T[:, :, None]
        with np.errstate(all="ignore"):
            k = dist._inner(a, b, c, d, x, ws=ws)
            theta = [_theta_hat(self.data.n, v) for v in k.lnP.sum(axis=-1).reshape(-1)]
            # an untenable row is evaluated at theta = 1 and set aside below
            th = [t if t < math.inf else 1.0 for t in theta]
            p = EgwgParams(a, b, c, d, th[0]) if len(u) == 1 else dist._Laws(
                a, b, c, d, np.array(th)[:, None])
            ll = dist._log_f(p, x, k, ws)[0].sum(axis=-1).reshape(-1)
            # envelope theorem: dL/dtheta = 0 at the profiled theta, so the
            # profiled gradient is the partial gradient; chain rule to log space
            g = -_grad(p, x, k, ws)[..., :4] * P
        return [-v if t < math.inf and math.isfinite(v) else math.inf for t, v in zip(theta, ll)], g


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
    scaled grid over the shape pair with median-matched rates; x is sorted."""
    n = x.size
    med = float(x[(n - 1) // 2:n // 2 + 1].mean())   # np.median, which would load numpy.ma
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


class _Terminus(NamedTuple):
    """The search's chosen terminus and its diagnostics, all fit reports but the curvature."""

    params: EgwgParams
    loglik: float
    converged: bool
    n_evals: int
    restarts_used: int


def fit(data: Dataset, config: FitConfig | None = None) -> FitResult:
    """Multistart maximum-likelihood fit with theta profiled out, with the
    observed information's inverse as covariance and Wald intervals at
    ``config.ci_level`` at the terminus of the search (_search).

    Each restart runs gradient-based L-BFGS-B (``optimize._lbfgsb``, the
    package's port of scipy's), capped at ``optimize._LBFGSB_MAX_ITER``
    iterations, with the stop tests of ``optimize``'s other constants.
    A terminus counts as converged when its value and gradient are finite
    and L-BFGS-B's own projected-gradient norm (``optimize._projgr``) of the
    gradient divided by ``max(1, |f|)`` is at most ``_STATIONARITY_SCALE``
    (see ``_stationarity``).  Only when the endpoint fails that check does
    a second L-BFGS-B run start from it, with a fresh curvature memory.
    Each restart keeps the results of its runs, and its terminus is the one
    with the least value (the first run's on a tie).  L-BFGS-B accepts only iterates
    that pass its sufficient-decrease line search, so no endpoint is worse
    than its start.  The best converged terminus wins (ties resolve to the
    earliest restart).  If no restart converges the best point is returned
    with converged = False, never a silent success.  The reported
    log-likelihood is the objective's value at the chosen terminus, which
    is -loglik there bit for bit.

    ``optimize._lockstep`` drives the restarts, generators that each own
    their retry: each round, the point of every unfinished restart is a row
    of one objective block (see _Objective).  Each run follows the path it
    would follow alone, evaluation for evaluation; ``n_evals`` sums their ``nfev``.

    One DEBUG record per restart goes to the ``egwgd.estimation`` logger:
    the L-BFGS-B evaluation count and message, the endpoint's largest
    projected gradient over max(1, |f|), and whether the retry ran, with
    its evaluation count and message.
    """
    cfg = config or FitConfig()
    best = _search(data, cfg)

    # curvature can be uncomputable at a box-clamped terminus (a stencil may
    # step outside the positive orthant); report NaNs rather than fail
    try:
        info = observed_information(best.params, data)
        try:
            cov = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            cov = np.linalg.pinv(info)
        cov = 0.5 * (cov + cov.T)
    except (StencilError, InvalidParametersError):
        cov = np.full((5, 5), np.nan)

    result = FitResult(params=best.params, loglik=best.loglik, covariance=cov, intervals=None,
                       level=cfg.ci_level, converged=best.converged, n_evals=best.n_evals,
                       restarts_used=best.restarts_used)
    try:
        result.intervals = confidence_intervals(result)
        result.below_zero = tuple(
            name for name, (lo, _) in result.intervals.items() if lo < 0.0)
    except DegenerateInformationError:
        result.intervals = None
    return result


def _search(data: Dataset, cfg: FitConfig) -> _Terminus:
    """fit's multistart search with cfg.n_restarts restarts (see fit); it frees
    the objective's workspace on return."""
    if data.n < 5:
        raise DomainError("the five-parameter fit needs n >= 5")
    obj = _Objective(data)
    lb, ub = np.log(_BOX).T.tolist()

    def restart(u0):   # the first run clips u0 into the box
        first = yield from _lbfgsb(u0, lb, ub)
        if _stationarity(first, lb, ub)[1]:
            return [first]
        return [first, (yield from _lbfgsb(first.x, lb, ub))]

    anchors = _anchors(data.values, cfg.n_restarts)
    runs = _lockstep([restart(np.log(a)) for a in anchors], obj.value_grad)

    termini = []   # per restart: (its best run's result, whether that is stationary)
    for k, (r1, *retry) in enumerate(runs, start=1):
        best = min([r1, *retry], key=lambda r: r.fun)   # the first run wins ties
        _log.debug("restart %d: L-BFGS-B nfev=%d (%s), "
                   "max projected gradient / max(1, |f|) %.3g; %s",
                   k, r1.nfev, r1.message, _stationarity(r1, lb, ub)[0],
                   f"retry ran: nfev={retry[0].nfev} ({retry[0].message})" if retry
                   else "retry skipped")
        termini.append((best, _stationarity(best, lb, ub)[1]))

    best, converged = min([t for t in termini if t[1]] or termini,
                          key=lambda t: t[0].fun)   # the earliest restart wins ties
    if not math.isfinite(best.fun):
        raise DomainError(
            "no restart found an evaluable likelihood point; the data are "
            "degenerate for this family (e.g. zero spread) or the search box "
            "excludes every tenable parameter scale")

    a, b, c, d = np.exp(best.x)
    return _Terminus(params=EgwgParams(a, b, c, d, profile_theta(a, b, c, d, data)),
                     loglik=-float(best.fun),   # the objective's value there is -loglik
                     converged=converged, n_evals=sum(r.nfev for rs in runs for r in rs),
                     restarts_used=len(termini))


def observed_information(p: EgwgParams, data: Dataset) -> np.ndarray:
    """Negative numerical Hessian of the log-likelihood at p (5 x 5).

    The stencil's log-likelihoods are evaluated in one workspace over the
    data, each one loglik at its point bit for bit.
    """
    point = np.array([getattr(p, k) for k in PARAM_ORDER])
    if point.min() <= 0.0:
        raise InvalidParametersError("observed information requires a strictly interior point")
    ws = dist._Workspace(data.values)

    def L(v):
        return _loglik(EgwgParams(*v), ws.x, ws)

    return -numerical_hessian(L, point)


def confidence_intervals(fit_result: FitResult) -> dict:
    """Wald intervals MLE +/- z * sqrt(var) for each parameter, at fit_result.level.

    Negative lower bounds are reported as computed; callers can consult
    FitResult.below_zero for the positivity flags.
    """
    if not (0.0 < fit_result.level < 1.0):
        raise DomainError(f"confidence level must be in (0, 1), got {fit_result.level}")
    z = _norm_ppf(0.5 + fit_result.level / 2.0)
    diag = np.diag(np.asarray(fit_result.covariance, dtype=float))
    out = {}
    for name, m, v in zip(PARAM_ORDER, astuple(fit_result.params), diag):
        if not math.isfinite(v) or v < 0.0:
            raise DegenerateInformationError("negative or non-finite variance", name)
        half = z * math.sqrt(v)
        out[name] = (m - half, m + half)
    return out
