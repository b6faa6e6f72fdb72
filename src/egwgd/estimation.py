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
arrays, and the curvature step runs loglik's in a workspace of its own.
fit frees the objective's workspace once its L-BFGS-B runs are done.

The fit's restarts run in lock-step, and each round the objective
evaluates the point of every unfinished run as one row of a single kernel
pass: the kernel takes k laws as parameter columns over (k, n) arrays
(distribution's _Laws), and each row comes out bit for bit as that law
alone gives it.  At the small n of typical lifetime data an evaluation's
cost is numpy's per-call overhead, which the rows then share; each run
still makes exactly the iterations it would make alone.

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
from .optimize import _lbfgsb, brentq
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
    return _grad(p, x, dist._inner(p.a, p.b, p.c, p.d, x))


def _grad(p, x: np.ndarray, k: tuple, ws=None) -> np.ndarray:
    """loglik_grad at p from the kernel k = dist._inner(a, b, c, d, x, ws).

    The terms of each sum are formed in ws's arrays (fresh ones when ws is
    None).  p may be k laws as dist._Laws columns over ws's (k, n) arrays;
    the result is then (k, 5), row i the gradient of law i bit for bit: the
    sums run along each row, and the assembly below is plain arithmetic,
    which rounds the same on numpy's arrays as on floats, but for b ** 2,
    which is taken row by row.
    """
    n = x.size
    a, b, c, d, th = p.a, p.b, p.c, p.d, p.theta
    lnx, s, cs, lg, logz, z, lnP = k
    tmp = dist._scratch(ws, "t", x)
    prod = dist._scratch(ws, "grad.prod", x)
    mask = dist._scratch(ws, "mask", x, bool)
    rows = isinstance(p, dist._Laws)

    def total(terms):
        """The sum of terms, one per row."""
        return terms.sum(axis=1, keepdims=True) if rows else terms.sum()

    def sums(terms):
        """(sum of terms, sum of terms * log x)."""
        return total(terms), total(np.multiply(terms, lnx, out=prod))

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
        S_wb = total(w)
        e_cs = np.exp(np.negative(cs, out=E), out=E)
        w = np.divide(np.multiply(s, np.add(d / b, e_cs, out=tmp), out=tmp), W, out=tmp)
        if any_under:
            np.copyto(w, 1.0 / c, where=under)
        S_wc = total(w)
        np.multiply(np.multiply(b, e_cs, out=e_cs), lnx, out=e_cs)
        w = np.add(np.add(1.0, np.multiply(d, lnx, out=tmp), out=tmp), e_cs, out=tmp)
        np.divide(np.multiply(np.multiply(c / b, s, out=prod), w, out=w), W, out=w)
        if any_under:
            np.add(1.0 / (b + d), lnx, out=w, where=under)
        S_wd = total(w)

        b2 = np.array([[v ** 2] for v in b[:, 0]]) if rows else b ** 2
        da = n / a - S_g + (th - 1.0) * S_tg
        db = (n / b + lnx.sum() - a * S_glnx
              + (th - 1.0) * a * S_tglnx
              - (c * d / b2) * S_wb)
        dc = (S_s - a * S_xbsE
              + (th - 1.0) * a * S_tc
              + S_wc)
        dd = (c * S_slnx - a * c * S_xbsElnx
              + (th - 1.0) * a * c * S_tclnx
              + S_wd)
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
        theta = _theta_hat(data.n, dist._inner(a, b, c, d, data.values)[6].sum())
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

_BIG = 1e13
_STATIONARITY_SCALE = 1e-4   # converged: max |projected grad| <= scale * max(1, |L|)
_LBFGSB_MAX_ITER = 500       # caps each L-BFGS-B run: the first and the retry
_PASS_POINTS = 2 ** 14       # a kernel pass holds at most max(1, this // n) rows of n points


class _Objective:
    """Profiled negative log-likelihood over u = log(a, b, c, d).

    The value at u is exactly -loglik at (a, b, c, d, profile_theta(...)),
    or _BIG where theta cannot be profiled or the likelihood is -inf.
    value_grad takes one point or a (k, 4) block of points, whose rows are
    evaluated together, max(1, _PASS_POINTS // n) rows per kernel pass, and
    come out bit for bit as each point alone would (see dist._Laws).  A pass
    of one row takes the one-point path, a law of floats over 1-D arrays,
    whose numpy calls cost least; it is also what the rows of a block are
    tested against.  Every pass writes into one workspace over the data (log x, computed once, and
    the kernel's, log f's and the gradient's arrays), so after the first
    pass of a size an evaluation allocates no array of the data's length.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self.ws = dist._Workspace(data.values)
        self.pass_rows = max(1, _PASS_POINTS // data.n)
        self.n_evals = 0

    def value_grad(self, u: np.ndarray):
        """(f, df/du) at the point u; at a (k, 4) block, f of shape (k,) and df/du (k, 4)."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            return self._one(u)
        f = np.empty(len(u))
        g = np.empty((len(u), 4))
        for i in range(0, len(u), self.pass_rows):
            block = u[i:i + self.pass_rows]
            f[i:i + len(block)], g[i:i + len(block)] = (
                self._block(block) if len(block) > 1 else self._one(block[0]))
        return f, g

    def _one(self, u: np.ndarray):
        """(f, df/du) at one point from one dist._inner pass (two where log_pdf's
        theta < 1 clamp acts), with floats for the law over 1-D arrays."""
        self.n_evals += 1
        a, b, c, d = np.exp(u)
        ws = self.ws
        ws.rows(1)
        x = ws.x
        with np.errstate(all="ignore"):
            k = dist._inner(a, b, c, d, x, ws=ws)
            theta = _theta_hat(self.data.n, k[6].sum())
            if not math.isfinite(theta):
                return _BIG, np.zeros(4)
            p = EgwgParams(a, b, c, d, theta)
            ll = float(dist._log_f(p, x, k, ws)[0].sum())
            if not math.isfinite(ll):   # the sentinel has no slope; a huge finite -L keeps its own
                return _BIG, np.zeros(4)
            # envelope theorem: dL/dtheta = 0 at the profiled theta, so the
            # profiled gradient is the partial gradient; chain rule to log space
            gu = -_grad(p, x, k, ws)[:4] * np.exp(u)
        return -ll, (gu if np.all(np.isfinite(gu)) else np.zeros(4))

    def _block(self, u: np.ndarray):
        """_one at each of the k > 1 rows of u, bit for bit, from one
        dist._inner pass over (k, n) arrays (plus one for each row that the
        clamp acts on)."""
        self.n_evals += len(u)
        ws = self.ws
        ws.rows(len(u))
        x = ws.x
        P = np.exp(u)
        a, b, c, d = P.T[:, :, None]
        with np.errstate(all="ignore"):
            k = dist._inner(a, b, c, d, x, ws=ws)
            theta = np.array([_theta_hat(self.data.n, v) for v in k[6].sum(axis=1)])
            tenable = np.isfinite(theta)
            theta[~tenable] = 1.0   # an untenable row is evaluated at theta = 1 and set aside below
            p = dist._Laws(a, b, c, d, theta[:, None])
            f = -dist._log_f(p, x, k, ws)[0].sum(axis=1)
            g = -_grad(p, x, k, ws)[:, :4] * P
        sentinel = ~(tenable & np.isfinite(f))
        f[sentinel] = _BIG
        g[sentinel | ~np.isfinite(g).all(axis=1)] = 0.0
        return f, g


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

    Each restart runs gradient-based L-BFGS-B (``optimize._lbfgsb``, the
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

    The runs go in lock-step: each round, the point that every unfinished
    run asks for is a row of one objective block (see _Objective), and a
    retry joins the round after its first run ends.  Each run follows the
    path it would follow alone, evaluation for evaluation; only the
    per-call overhead is shared.

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

    def stationarity(u, fu, gu):
        """(max |projected gradient|, whether it passes the stationarity test)."""
        proj = gu.copy()
        at_lb = np.isclose(u, lb, rtol=0.0, atol=1e-12)
        at_ub = np.isclose(u, ub, rtol=0.0, atol=1e-12)
        proj[at_lb & (proj > 0.0)] = 0.0   # minimising: outward push is inert
        proj[at_ub & (proj < 0.0)] = 0.0
        pg = float(np.max(np.abs(proj)))
        return pg, bool(fu < _BIG and pg <= _STATIONARITY_SCALE * max(1.0, abs(fu)))

    runs = []      # per restart: [first run's result, retry's result or None]
    active = []    # (restart index, run, the point it asks for)

    def start(k, u0):
        run = _lbfgsb(u0, lb.tolist(), ub.tolist(), maxiter=_LBFGSB_MAX_ITER,
                      ftol=1e-14, gtol=1e-12)
        active.append((k, run, next(run)))

    for k, anchor in enumerate(_anchors(x, cfg.n_restarts)):
        runs.append([None, None])
        start(k, np.clip(np.log(anchor), lb, ub))
    while active:
        f, g = obj.value_grad(np.array([u for _, _, u in active]))
        asking, active = active, []
        for (k, run, _), fk, gk in zip(asking, f, g):
            try:
                active.append((k, run, run.send((fk, gk))))
            except StopIteration as done:
                if runs[k][0] is None:
                    runs[k][0] = r1 = done.value
                    if not stationarity(r1.x, r1.fun, r1.jac)[1]:
                        # one fresh L-BFGS-B run from the endpoint, with no curvature memory
                        start(k, r1.x)
                else:
                    runs[k][1] = done.value
    n_evals = obj.n_evals
    del obj   # frees the objective's workspace before the curvature

    termini = []
    for k, (r1, r2) in enumerate(runs, start=1):
        pg1, stat1 = stationarity(r1.x, r1.fun, r1.jac)
        fu, u, stat = r1.fun, r1.x, stat1
        if r2 is None:
            retry = "retry skipped"
        else:
            if r2.fun < fu:
                fu, u, stat = r2.fun, r2.x, stationarity(r2.x, r2.fun, r2.jac)[1]
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
    """Negative numerical Hessian of the log-likelihood at p (5 x 5).

    The stencil's log-likelihoods are evaluated in one workspace over the
    data, each one loglik at its point bit for bit.
    """
    if min(p.a, p.b, p.c, p.d, p.theta) <= 0.0:
        raise InvalidParametersError("observed information requires a strictly interior point")
    point = np.array([p.a, p.b, p.c, p.d, p.theta])
    ws = dist._Workspace(data.values)

    def L(v):
        return _loglik(EgwgParams(*v), ws.x, ws)

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
