"""Shared numerical kernels.

Adaptive quadrature on finite and semi-infinite intervals, bracketed root
finding for strictly monotone functions, and finite-difference Hessians.
The quadrature and root-finding engines are QUADPACK (``scipy.integrate.quad``)
and Brent's method (``scipy.optimize.brentq``), each imported inside the
function that calls it, so importing this module loads no scipy; this module
owns the interval transformation, bracketing, error policy and stencil logic.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import (
    BracketError,
    InvalidIntegrandError,
    QuadratureAccuracyError,
    StencilError,
)

__all__ = [
    "QuadratureConfig",
    "RootConfig",
    "default_quadrature_config",
    "integrate",
    "find_root_increasing",
    "numerical_hessian",
]

_ENV_RTOL = "EGWG_QUAD_RTOL"


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for adaptive quadrature.

    Moments computed from these defaults are trusted to >= 8 digits and serve
    as the oracle for the reliability metrics, hence the tight rel_tol.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not (self.abs_tol >= 0.0):
            raise ValueError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


@dataclass(frozen=True)
class RootConfig:
    """Tolerance and budget for bracketed root finding.

    The default absolute tolerance is far below any representable root
    scale, so termination is governed by the fixed relative tolerance
    (4 ulp) at any root magnitude.
    """

    x_tol: float = 1e-300
    max_iterations: int = 256

    def __post_init__(self):
        if not (self.x_tol > 0.0):
            raise ValueError(f"x_tol must be > 0, got {self.x_tol}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


def default_quadrature_config() -> QuadratureConfig:
    """Default quadrature tolerances, honouring the EGWG_QUAD_RTOL override."""
    rtol = os.environ.get(_ENV_RTOL)
    if rtol is None:
        return QuadratureConfig()
    return QuadratureConfig(rel_tol=float(rtol))


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: QuadratureConfig | None = None,
    *,
    scale: float = 1.0,
) -> float:
    """Integrate ``f`` over ``(lo, hi)``; ``hi`` may be ``math.inf``.

    A semi-infinite upper limit is mapped onto the unit interval through
    ``x = lo + scale * u / (1 - u)``; ``scale`` should be a characteristic
    width of the integrand (it changes only convergence speed, never the
    value).  Integrable endpoint singularities are handled by the adaptive
    engine's extrapolation.

    Raises:
        InvalidIntegrandError: ``f`` returned NaN inside the interval.
        QuadratureAccuracyError: subdivision budget exhausted before the
            tolerances were met; the error carries the best estimate.
    """
    from scipy.integrate import quad

    if cfg is None:
        cfg = default_quadrature_config()
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")

    def checked(x: float) -> float:
        v = f(x)
        if math.isnan(v):
            raise InvalidIntegrandError(f"integrand returned NaN at x={x!r}")
        return v

    if math.isinf(hi):
        def transformed(u: float) -> float:
            if u >= 1.0:
                return 0.0
            om = 1.0 - u
            x = lo + scale * u / om
            if not math.isfinite(x):
                return 0.0
            v = checked(x)
            if v == 0.0:
                return 0.0  # avoid 0 * inf from the Jacobian near u = 1
            return v * scale / (om * om)

        a, b, fn = 0.0, 1.0, transformed
    else:
        a, b, fn = lo, hi, checked

    out = quad(fn, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
               limit=cfg.max_subdivisions, full_output=1)
    if len(out) > 3:
        raise QuadratureAccuracyError(str(out[3]).replace("\n", " "),
                                      estimate=out[0], error_bound=out[1])
    return out[0]


_X_OVERFLOW_GUARD = 1e300
_X_UNDERFLOW_GUARD = 1e-300


def find_root_increasing(
    g: Callable[[float], float],
    target: float,
    cfg: RootConfig | None = None,
    *,
    x0: float = 1.0,
) -> float:
    """Solve ``g(x) = target`` for strictly increasing ``g`` on (0, inf).

    The bracket is grown geometrically from ``x0`` (doubling upward, halving
    downward), then closed with Brent's method, so no prior scale is assumed.

    Raises:
        BracketError: the target lies below ``g(0+)`` / above ``g``'s range,
            or the expansion hit the overflow/underflow guards, or ``g``
            returned a non-finite value while bracketing.
    """
    if cfg is None:
        cfg = RootConfig()

    def h(x: float) -> float:
        v = g(x) - target
        if math.isnan(v):
            raise BracketError(f"function returned NaN at x={x!r}")
        return v

    lo = hi = x0
    flo = fhi = h(x0)
    while fhi < 0.0:
        hi *= 2.0
        if hi > _X_OVERFLOW_GUARD:
            raise BracketError(f"target {target!r} above the function range "
                               f"(bracket expansion exceeded {_X_OVERFLOW_GUARD:g})")
        fhi = h(hi)
    while flo > 0.0:
        lo *= 0.5
        if lo < _X_UNDERFLOW_GUARD:
            raise BracketError(f"target {target!r} below the function value at 0+ "
                               f"(bracket contraction passed {_X_UNDERFLOW_GUARD:g})")
        flo = h(lo)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    from scipy.optimize import brentq

    return brentq(h, lo, hi, xtol=cfg.x_tol, rtol=4.0 * np.finfo(float).eps,
                  maxiter=cfg.max_iterations)


def numerical_hessian(
    f: Callable[[np.ndarray], float],
    point: Sequence[float],
    step_scale: float = 1e-4,
    *,
    floor: float = 1e-8,
) -> np.ndarray:
    """Central-difference Hessian of a scalar function, symmetrised.

    Per-coordinate steps are ``step_scale * max(|p_i|, floor)``, balancing
    truncation against round-off for log-likelihoods of ~50-point samples.

    Raises:
        StencilError: ``f`` was non-finite at a stencil point; the error
            names the offending coordinate.
    """
    p = np.asarray(point, dtype=float)
    n = p.size
    h = step_scale * np.maximum(np.abs(p), floor)

    def ev(q: np.ndarray, coord) -> float:
        v = float(f(q))
        if not math.isfinite(v):
            raise StencilError(f"objective non-finite at stencil point {q.tolist()}", coord)
        return v

    f0 = ev(p, "center")
    H = np.empty((n, n), dtype=float)
    with np.errstate(over="ignore"):   # h*h may overflow for huge coordinates
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h[i]
            H[i, i] = (ev(p + ei, i) - 2.0 * f0 + ev(p - ei, i)) / (h[i] * h[i])
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h[i]
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h[j]
                val = (ev(p + ei + ej, (i, j)) - ev(p + ei - ej, (i, j))
                       - ev(p - ei + ej, (i, j)) + ev(p - ei - ej, (i, j)))
                H[i, j] = H[j, i] = val / (4.0 * h[i] * h[j])
    return 0.5 * (H + H.T)
