"""Closed-form numpy reference of the five-parameter lifetime law.

The benchmark makes its inputs and checks the program's outputs with this
module alone, so that a change to the package under test cannot change
either.  Parameters are plain tuples ``(a, b, c, d, theta)`` with CDF
``F(x) = [1 - exp(-a x^b (e^{c x^d} - 1))]^theta``.
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)


def _log_expm1(y):
    """log(e^y - 1) for y > 0."""
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(y > 30.0, y + np.log1p(-np.exp(-np.minimum(y, 700.0))),
                        np.log(np.expm1(np.minimum(y, 30.0))))


def _log1mexp(z):
    """log(1 - e^{-z}) for z >= 0."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(z <= _LN2, np.log(-np.expm1(-z)), np.log1p(-np.exp(-z)))


def _log_z(p, x):
    a, b, c, d, _ = p
    lx = np.log(np.asarray(x, dtype=float))
    return math.log(a) + b * lx + _log_expm1(c * np.exp(d * lx))


def log_cdf(p, x):
    logz = _log_z(p, x)
    # for z below 1e-17, log(1 - e^{-z}) is log z to double precision
    with np.errstate(over="ignore"):
        inner = np.where(logz < -40.0, logz, _log1mexp(np.exp(np.minimum(logz, 700.0))))
    return p[4] * inner


def cdf(p, x):
    return np.exp(log_cdf(p, x))


def survival(p, x):
    return -np.expm1(log_cdf(p, x))


def log_pdf(p, x):
    """log f(x) = log theta + (theta - 1) log(1 - e^{-z}) - z + log z'(x)."""
    a, b, c, d, th = p
    x = np.asarray(x, dtype=float)
    lx = np.log(x)
    s = np.exp(d * lx)
    cs = c * s
    logz = _log_z(p, x)
    z = np.exp(np.minimum(logz, 700.0))
    # z'(x) = a x^{b-1} e^{cs} [b (1 - e^{-cs}) + c d s]
    log_dz = math.log(a) + (b - 1.0) * lx + cs + np.log(b * -np.expm1(-cs) + c * d * s)
    lf = log_cdf(p, x) / th
    return math.log(th) + (th - 1.0) * lf - z + log_dz


def pdf(p, x):
    return np.exp(log_pdf(p, x))


def hazard(p, x):
    return pdf(p, x) / survival(p, x)


def loglik(p, x) -> float:
    return float(np.sum(log_pdf(p, x)))


def quantile(p, u):
    """Inverse CDF for u in (0, 1): solves x^b (e^{c x^d} - 1) = t(u).

    Works in v = log x, where the left side is strictly increasing; the
    root is bracketed, bisected to a width below double precision, then
    polished with two Newton steps.
    """
    a, b, c, d, th = p
    u = np.asarray(u, dtype=float)
    lw = np.log(u) / th                               # log u^{1/theta}
    with np.errstate(divide="ignore"):
        t = np.where(lw < -_LN2, -np.log1p(-np.exp(lw)), -np.log(-np.expm1(lw)))
    target = np.log(t) - math.log(a)

    def g(v):
        return b * v + _log_expm1(c * np.exp(d * v))

    lo = np.full(u.shape, -40.0)
    hi = np.full(u.shape, 40.0)
    while np.any(g(lo) > target):
        lo = np.where(g(lo) > target, 2.0 * lo, lo)
    while np.any(g(hi) < target):
        hi = np.where(g(hi) < target, 2.0 * hi, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        up = g(mid) >= target
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    v = 0.5 * (lo + hi)
    for _ in range(2):
        s = np.exp(d * v)
        slope = b + d * c * s / -np.expm1(-c * s)
        v = v - (g(v) - target) / slope
    return np.exp(v)


def philox_uniforms(n: int, seed: int) -> np.ndarray:
    """The uniform stream the program's sampler documents as its contract."""
    return np.random.Generator(np.random.Philox(seed)).random(n)


def mttf(p) -> float:
    """Mean lifetime as the integral of R over (0, inf), by Simpson's rule in log x.

    R(e^v) e^v is smooth in v; below the 1e-12 quantile R is 1 to that
    accuracy, so that piece contributes its length, and above the
    1 - 1e-16 quantile the integrand is negligible.
    """
    v_lo = math.log(float(quantile(p, np.array([1e-12]))[0]))
    v_hi = math.log(float(quantile(p, np.array([1.0 - 1e-16]))[0])) + 0.5
    m = 40000                                      # even number of panels
    v = np.linspace(v_lo, v_hi, m + 1)
    y = survival(p, np.exp(v)) * np.exp(v)
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(math.exp(v_lo) + (v_hi - v_lo) / m / 3.0 * np.dot(w, y))
