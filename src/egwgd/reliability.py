"""Reliability metrics computed from their defining integrals.

Moments, MTTF/MTTR/MTBF, steady-state availability, maintainability, mean
residual life, mean past life and order-statistic densities.  Every quantity
is obtained by adaptive quadrature of the defining integral; nothing here
relies on series expansions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distribution as dist
from .distribution import EgwgParams
from .exceptions import DomainError, LeftTailUnderflowError, TailOverflowError
from .numerics import QuadratureConfig, integrate

__all__ = [
    "RepairableSystem",
    "raw_moment",
    "mttf",
    "mtbf",
    "availability",
    "maintainability",
    "mean_residual_life",
    "mean_past_life",
    "order_stat_pdf",
]

_TAIL_Q = 1.0 - 1e-14   # quadrature domain cap for survival integrals


def _tolerance(magnitude: float) -> QuadratureConfig:
    """Default tolerances, with the absolute one pinned below the expected magnitude.

    Distributions whose support sits at extreme scales (say 1e-26) would
    otherwise be 'converged' the moment the error dips under the default
    absolute tolerance, long before any relative accuracy is reached.
    """
    cfg = QuadratureConfig()
    target = cfg.rel_tol * magnitude * 1e-2
    if 0.0 < magnitude < math.inf and target < cfg.abs_tol:
        return QuadratureConfig(abs_tol=target)
    return cfg


def raw_moment(p: EgwgParams, r: int) -> float:
    """E[X^r] as the integral of x^r f(x) over the positive half-line.

    Finite for every valid parameter vector (the right tail decays doubly
    exponentially); r = 0 returns the normalisation 1.  Quadrature accuracy
    failures propagate to the caller.
    """
    r = int(r)
    if r < 0:
        raise DomainError(f"moment order must be >= 0, got {r}")
    if r == 0:
        return 1.0
    med = dist.quantile(p, 0.5)
    scale = med * max(1, r)

    def f(x: float) -> float:
        return x ** r * float(dist.pdf(p, x))

    return integrate(f, 0.0, math.inf, _tolerance(0.5 * med ** r), scale=scale)


def mttf(p: EgwgParams) -> float:
    """Mean time to failure: the first raw moment.

    The same function serves the repair law, in which case the value is the
    mean time to repair (the laws share one functional form).
    """
    return raw_moment(p, 1)


@dataclass(frozen=True)
class RepairableSystem:
    """A failure law paired with a repair law, both with finite means."""

    failure: EgwgParams
    repair: EgwgParams
    means: tuple = field(default=(), init=False, repr=False, compare=False)   # (MTTF, MTTR)

    def __post_init__(self):
        for name in ("failure", "repair"):
            m = mttf(getattr(self, name))
            if not (math.isfinite(m) and m > 0.0):
                raise DomainError(f"{name} law has no finite positive mean")
            object.__setattr__(self, "means", self.means + (m,))


def mtbf(sys: RepairableSystem) -> float:
    """Mean time between failures: MTTF + MTTR."""
    up, down = sys.means
    return up + down


def availability(sys: RepairableSystem) -> float:
    """Steady-state availability MTTF / (MTTF + MTTR).

    Equals 0.5 exactly when the failure and repair laws coincide.
    """
    up, down = sys.means
    return up / (up + down)


def maintainability(repair: EgwgParams, t):
    """Probability a repair completes by time t; the repair law's CDF."""
    return dist.cdf(repair, t)


def mean_residual_life(p: EgwgParams, t):
    """m(t) = (1 / R(t)) * integral of R over (t, inf); m(0) is the mean.

    t may be a scalar (a float is returned) or an array (an array of the same
    shape is returned, each element computed as for a scalar).  The
    quadrature domain is capped at the 1 - 1e-14 quantile x_hi; the mass
    beyond is added as R(x_hi)/h(x_hi), a bound that is exact to the same
    1e-14 order because the hazard increases in the far tail.  Both are
    computed once per call.
    """
    ts = np.asarray(t, dtype=float)
    out = np.empty(ts.shape)
    x_hi = tail = None
    for i, ti in enumerate(ts.flat):
        ti = float(ti)
        if ti < 0.0:
            raise DomainError(f"mean residual life requires t >= 0, got {ti}")
        rt = dist.survival(p, ti)
        if rt <= 0.0:
            raise TailOverflowError(f"survival underflowed at t = {ti!r}")
        if x_hi is None:
            x_hi = dist.quantile(p, _TAIL_Q)
            tail = dist.survival(p, x_hi) / float(dist.hazard(p, x_hi))
        if ti >= x_hi:
            # already beyond the cap: the increasing-hazard bound is the estimate
            out.flat[i] = 1.0 / float(dist.hazard(p, ti))
            continue
        body = integrate(lambda x: float(dist.survival(p, x)), ti, x_hi,
                         _tolerance(rt * (x_hi - ti)))
        out.flat[i] = (body + tail) / rt
    return float(out) if ts.ndim == 0 else out


def mean_past_life(p: EgwgParams, t: float) -> float:
    """P(t) = (1 / F(t)) * integral of F over (0, t); satisfies 0 < P(t) < t."""
    t = float(t)
    if t <= 0.0:
        raise DomainError(f"mean past life requires t > 0, got {t}")
    ft = dist.cdf(p, t)
    if ft <= 0.0:
        raise LeftTailUnderflowError(f"CDF underflowed at t = {t!r}")
    body = integrate(lambda x: float(dist.cdf(p, x)), 0.0, t, _tolerance(ft * t))
    return body / ft


def order_stat_pdf(p: EgwgParams, i: int, n: int, x):
    """Density of the i-th smallest of n i.i.d. lifetimes at x > 0.

    n! / ((i-1)! (n-i)!) * f(x) F(x)^{i-1} (1-F(x))^{n-i}, with the
    combinatorial prefactor evaluated through log-gamma.  i = 1 and i = n
    give the minimum and maximum order statistics.
    """
    i, n = int(i), int(n)
    if n < 1 or not (1 <= i <= n):
        raise DomainError(f"order statistic index out of range: i={i}, n={n}")
    from scipy.special import gammaln

    lp, lf, scalar = dist._log_density(p, x)   # log f and log F from one kernel pass
    pref = gammaln(n + 1) - gammaln(i) - gammaln(n - i + 1)
    total = pref + lp
    # add the F / R powers only when their exponents are nonzero, so that an
    # underflowed log (-inf) cannot poison the i = 1 / i = n boundary cases
    if i > 1:
        total = total + (i - 1) * lf
    if n > i:
        with np.errstate(divide="ignore"):
            total = total + (n - i) * np.log(-np.expm1(lf))
    return dist._ret(np.exp(total), scalar)
