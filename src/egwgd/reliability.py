"""Reliability metrics computed from their defining integrals.

Moments, MTTF/MTTR/MTBF, steady-state availability, maintainability, mean
residual life, mean past life and order-statistic densities.  Every quantity
is obtained by adaptive quadrature of the defining integral, to the purely
relative tolerance 1e-10 of ``numerics.integrate``; nothing here relies on
series expansions or tail approximations.  Mean residual and mean past
life integrate the ratios R(x)/R(t) and F(x)/F(t), which are of order one
where the mass lies, so neither integral underflows while R(t) and F(t)
are normal floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distribution as dist
from .distribution import EgwgParams
from .exceptions import DomainError, LeftTailUnderflowError, TailOverflowError
from .numerics import integrate

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

_WIDTH_Q = 1.0 - 1e-4   # its quantile sets the width of the survival integrals' map
_TINY = float(np.finfo(float).tiny)


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

    def f(x: np.ndarray) -> np.ndarray:
        return x ** r * dist.pdf(p, x)

    return integrate(f, 0.0, math.inf, scale=scale)


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
    """m(t) = integral of R(x) / R(t) over (t, inf); m(0) is the mean.

    t may be a scalar (a float is returned) or an array (an array of the same
    shape is returned, each element computed as for a scalar).  The integral
    runs to infinity through the quadrature's semi-infinite map, whose width
    is max(x_w, t) with x_w the 1 - 1e-4 quantile, solved once per call: a
    width much beyond the mass (the 1 - 1e-6 quantile) lets the error
    estimate under-read on narrow laws, and m(0) miss the tolerance.

    Raises:
        DomainError: t < 0.
        TailOverflowError: R(t) is below the smallest normal float, where
            the ratio R(x) / R(t) would keep too few bits.
    """
    ts = np.asarray(t, dtype=float)
    out = np.empty(ts.shape)
    x_w = None
    for i, ti in enumerate(ts.flat):
        ti = float(ti)
        if ti < 0.0:
            raise DomainError(f"mean residual life requires t >= 0, got {ti}")
        rt = dist.survival(p, ti)
        if rt < _TINY:
            raise TailOverflowError(f"survival {rt!r} is below the smallest normal float "
                                    f"at t = {ti!r}")
        if x_w is None:
            x_w = dist.quantile(p, _WIDTH_Q)
        out.flat[i] = integrate(lambda x: dist.survival(p, x) / rt, ti, math.inf,
                                scale=max(x_w, ti))
    return float(out) if ts.ndim == 0 else out


def mean_past_life(p: EgwgParams, t: float) -> float:
    """P(t) = integral of F(x) / F(t) over (0, t); satisfies 0 < P(t) < t.

    Raises:
        DomainError: t <= 0.
        LeftTailUnderflowError: F(t) is below the smallest normal float,
            where the ratio F(x) / F(t) would keep too few bits.
    """
    t = float(t)
    if t <= 0.0:
        raise DomainError(f"mean past life requires t > 0, got {t}")
    ft = dist.cdf(p, t)
    if ft < _TINY:
        raise LeftTailUnderflowError(f"CDF {ft!r} is below the smallest normal float "
                                     f"at t = {t!r}")
    return integrate(lambda x: dist.cdf(p, x) / ft, 0.0, t)


def order_stat_pdf(p: EgwgParams, i: int, n: int, x):
    """Density of the i-th smallest of n i.i.d. lifetimes at x > 0.

    n! / ((i-1)! (n-i)!) * f(x) F(x)^{i-1} (1-F(x))^{n-i}, with the
    combinatorial prefactor evaluated through log-gamma.  i = 1 and i = n
    give the minimum and maximum order statistics.
    """
    i, n = int(i), int(n)
    if n < 1 or not (1 <= i <= n):
        raise DomainError(f"order statistic index out of range: i={i}, n={n}")
    lp, lf, scalar = dist._log_density(p, x)   # log f and log F from one kernel pass
    pref = math.lgamma(n + 1) - math.lgamma(i) - math.lgamma(n - i + 1)
    total = pref + lp
    # add the F / R powers only when their exponents are nonzero, so that an
    # underflowed log (-inf) cannot poison the i = 1 / i = n boundary cases
    if i > 1:
        total = total + (i - 1) * lf
    if n > i:
        with np.errstate(divide="ignore"):
            total = total + (n - i) * np.log(-np.expm1(lf))
    return dist._ret(np.exp(total), scalar)
