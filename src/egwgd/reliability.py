"""Reliability metrics computed from their defining integrals.

Moments, MTTF/MTTR/MTBF, steady-state availability, maintainability, mean
residual life, mean past life and order-statistic densities.  Every quantity
is obtained by adaptive quadrature of the defining integral, to the purely
relative tolerance 1e-10 of ``numerics.integrate``; nothing here relies on
series expansions or tail approximations.  Mean residual and mean past
life integrate the ratios R(x)/R(t) and F(x)/F(t), which are of order one
where the mass lies, so neither integral underflows while R(t) and F(t)
are normal floats.  Given an array of t, each is swept once: one integral
at the outermost t and one batched call over the gaps between the sorted
t, combined by suffix (MRL) or prefix (MPL) sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distribution as dist
from .distribution import EgwgParams
from .exceptions import DomainError, LeftTailUnderflowError, TailOverflowError, _whole
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
    """E[X^r] as the integral of r x^(r-1) R(x) over the positive half-line.

    The map's width is mean_residual_life's, so r = 1 gives m(0) bit for bit.
    Finite for every valid law (the right tail decays doubly exponentially);
    r = 0 returns 1.  Quadrature accuracy failures propagate to the caller.
    """
    r = _whole(r, "r")
    if r < 0:
        raise DomainError(f"moment order must be >= 0, got {r}")
    if r == 0:
        return 1.0

    def f(x: np.ndarray) -> np.ndarray:
        return r * x ** (r - 1) * dist.survival(p, x)

    return integrate(f, 0.0, math.inf, scale=dist.quantile(p, _WIDTH_Q))


def mttf(p: EgwgParams) -> float:
    """Mean time to failure: the first raw moment, mean_residual_life(p, 0).

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


def _distinct(t, name: str, ok) -> tuple:
    """(sorted distinct t, index of each t among them, t's shape); DomainError where not ok."""
    ts = np.asarray(t, dtype=float)
    bad = ~ok(ts)
    if bad.any():
        raise DomainError(f"{name}, got {ts.flat[np.argmax(bad)]}")
    u, back = np.unique(ts.ravel(), return_inverse=True)
    return u, back, ts.shape


def mean_residual_life(p: EgwgParams, t):
    """m(t) = integral of R(x) / R(t) over (t, inf); m(0) is the mean.

    t may be a scalar (a float is returned) or an array (an array of the same
    shape is returned).  For a scalar, the integral runs to infinity through
    the quadrature's semi-infinite map, whose width is max(x_w, t) with x_w
    the 1 - 1e-4 quantile: a width much beyond the mass (the 1 - 1e-6
    quantile) lets the error estimate under-read on narrow laws, and m(0)
    miss the tolerance.

    An array is swept once: its distinct t_1 < ... < t_N are sorted, m(t_N)
    is the scalar value (so x_w is solved once per call), and R(x) / c is
    integrated over every gap between neighbouring t in one batched
    ``integrate`` call, each gap to 1e-10 of its own value.  Then m(t_i) =
    (m(t_N) R(t_N) / c + the gaps above t_i) * c / R(t_i): suffix sums of
    positive terms, held to the gaps' relative tolerance.  The scale c sits
    between m(t_N) R(t_N) and a bound on the largest sum, so that no gap
    underflows where R(t_N) is near the smallest normal float, and none
    overflows where R falls by hundreds of decades between t_1 and t_N.
    The values agree with the scalar calls to about 3e-13 relative, not bit
    for bit.

    Raises:
        DomainError: t < 0.
        TailOverflowError: R(t) is below the smallest normal float, where
            the ratio R(x) / R(t) would keep too few bits.
    """
    if np.ndim(t) == 0:
        return _mrl_tail(p, float(t))
    u, back, shape = _distinct(t, "mean residual life requires t >= 0", lambda v: v >= 0.0)
    if u.size == 0:
        return np.empty(shape)
    r = dist.survival(p, u)
    m_n = _mrl_tail(p, float(u[-1]))
    c = _sweep_scale(m_n, r[-1], r[0], u[-1] - u[0])
    gaps = integrate(lambda x: dist.survival(p, x) / c, u[:-1], u[1:])
    suffix = np.cumsum(np.append(gaps, m_n * (r[-1] / c))[::-1])[::-1]
    return (suffix * (c / r))[back].reshape(shape)


def _sweep_scale(v: float, near: float, far: float, width: float) -> float:
    """The scale c of a sweep's sums, from the one integral it takes alone.

    That integral is v * near, near being R or F at its end of the t range;
    the sweep's cumulative sums lie between it and it + width * far, far
    being R or F at the other end.  c is their geometric mean, so every sum
    divided by c, and every gap integral below it, is a normal float however
    far R or F moves across the range.  Each factor is rooted alone, so
    that no product underflows; where the mean itself is below the smallest
    normal float (the sums are then all tiny), c is that float.
    """
    c = math.sqrt(near) * math.sqrt(far) * math.sqrt(v) * math.sqrt(v * (near / far) + width)
    return max(c, _TINY)


def _mrl_tail(p: EgwgParams, t: float) -> float:
    """m(t) for one t, as one integral over (t, inf)."""
    if not t >= 0.0:
        raise DomainError(f"mean residual life requires t >= 0, got {t}")
    rt = dist.survival(p, t)
    if rt < _TINY:
        raise TailOverflowError(f"survival {rt!r} is below the smallest normal float "
                                f"at t = {t!r}")
    x_w = dist.quantile(p, _WIDTH_Q)
    return integrate(lambda x: dist.survival(p, x) / rt, t, math.inf, scale=max(x_w, t))


def mean_past_life(p: EgwgParams, t):
    """P(t) = integral of F(x) / F(t) over (0, t); satisfies 0 < P(t) < t.

    t may be a scalar (a float is returned) or an array (an array of the same
    shape is returned).  An array is swept once, as in mean_residual_life
    but from the left: its distinct t_1 < ... < t_N are sorted, P(t_1) is
    the scalar value, F(x) / c is integrated over every gap in one batched
    ``integrate`` call, and P(t_i) = (P(t_1) F(t_1) / c + the gaps below
    t_i) * c / F(t_i), from prefix sums.

    Raises:
        DomainError: t <= 0.
        LeftTailUnderflowError: F(t) is below the smallest normal float,
            where the ratio F(x) / F(t) would keep too few bits.
    """
    if np.ndim(t) == 0:
        return _mpl_head(p, float(t))
    u, back, shape = _distinct(t, "mean past life requires t > 0", lambda v: v > 0.0)
    if u.size == 0:
        return np.empty(shape)
    f = dist.cdf(p, u)
    p_1 = _mpl_head(p, float(u[0]))
    c = _sweep_scale(p_1, f[0], f[-1], u[-1] - u[0])
    gaps = integrate(lambda x: dist.cdf(p, x) / c, u[:-1], u[1:])
    prefix = np.cumsum(np.insert(gaps, 0, p_1 * (f[0] / c)))
    return (prefix * (c / f))[back].reshape(shape)


def _mpl_head(p: EgwgParams, t: float) -> float:
    """P(t) for one t, as one integral over (0, t)."""
    if not t > 0.0:
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
    i, n = _whole(i, "i"), _whole(n, "n")
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
            total = total + (n - i) * dist._log1mexp(-lf)
    return dist._ret(np.exp(total), scalar)
