"""Shared numerical kernels.

Adaptive quadrature on finite and semi-infinite intervals, bracketed root
finding for strictly monotone functions, and finite-difference Hessians.
The quadrature engine is global-adaptive Gauss-Kronrod G10/K21 in numpy,
the rule and error estimate of QUADPACK's qk21; its integrands take and
return arrays.  Every integral is computed to one purely relative
tolerance, 1e-10, within 2000 subintervals, and the engine raises typed
errors instead of returning an estimate whose error bound misses it, so an
integral whose value is zero raises.  Root finding closes its bracket with
Brent's method (the package's port of scipy's ``brentq`` in ``optimize``,
imported inside the function that calls it); this module owns the interval
transformation, bracketing, error policy and stencil logic.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .exceptions import (
    BracketError,
    InvalidIntegrandError,
    QuadratureAccuracyError,
    StencilError,
)

__all__ = [
    "integrate",
    "find_root_increasing",
    "numerical_hessian",
]


# integrals are returned once their error bound is at most _REL_TOL * |I|;
# no absolute floor, which would accept any answer for an integral below it
_REL_TOL = 1e-10
_MAX_INTERVALS = 2000

# Gauss-Kronrod G10/K21, the rule of QUADPACK's qk21 (Piessens et al.,
# QUADPACK, Springer 1983): the 21 Kronrod abscissae on [-1, 1], whose
# odd-indexed entries are the 10 Gauss-Legendre points, and both weight sets.
_GK21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003])
_GK21_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192])
_G10_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332])
_GK21_WG = np.zeros(21)
_GK21_WG[1::2] = _G10_W
_EPS50 = 50.0 * np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _gk21(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """K21 estimates and QUADPACK error estimates on the intervals [lo_i, hi_i].

    The 21 nodes of every interval go to ``f`` in one call.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fv = f((c[:, None] + h[:, None] * _GK21_X).ravel()).reshape(-1, _GK21_X.size)
    k = fv @ _GK21_WK
    err = h * np.abs(k - fv @ _GK21_WG)
    resabs = h * (np.abs(fv) @ _GK21_WK)
    resasc = h * (np.abs(fv - 0.5 * k[:, None]) @ _GK21_WK)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    # the rule cannot resolve below the round-off of its own sum
    err = np.where(resabs > _UFLOW / _EPS50, np.maximum(err, _EPS50 * resabs), err)
    return h * k, err


def _layout(own: np.ndarray):
    """(integrals, interval counts, row of each interval's integral, its place
    in the row, rows(values)) of intervals grouped by owner in ascending order.

    rows lays values out one integral per row, in their order, zero-padded
    to the longest row; a single integral is one row, unpadded.
    """
    if own[0] == own[-1]:   # one open integral, as in every scalar call: no scatter
        return own[:1], np.array([own.size]), np.zeros(own.size, dtype=np.intp), \
            np.arange(own.size), lambda v: v[None, :]
    counts = np.bincount(own)
    ids = np.flatnonzero(counts)
    counts = counts[ids]
    seg = np.repeat(np.arange(ids.size), counts)
    rank = np.arange(own.size) - (np.cumsum(counts) - counts)[seg]

    def rows(v: np.ndarray) -> np.ndarray:
        m = np.zeros((ids.size, counts.max()))
        m[seg, rank] = v
        return m

    return ids, counts, seg, rank, rows


def _adapt(fn, lo_i: np.ndarray, hi_i: np.ndarray, own: np.ndarray, name) -> np.ndarray:
    """Integrals of ``fn`` over the unions of [lo_i, hi_i] of each owner, as an array.

    ``own`` numbers the integral each starting interval belongs to, 0, 1, ...
    in ascending order; ``name(k)`` says where integral k lies, for errors.
    Each round splits intervals of every open integral, and ``fn`` gets the
    nodes of all of them in one call.  Per integral the arithmetic is that of
    one integral alone: its intervals keep their order, and their estimates
    are summed, sorted and accumulated in a row of their own.
    """
    res, err = _gk21(fn, lo_i, hi_i)
    out = np.empty(int(own[-1]) + 1)
    while True:
        ids, counts, seg, rank, rows = _layout(own)
        total, bound = rows(res).sum(axis=1), rows(err).sum(axis=1)
        finite = np.isfinite(total) & np.isfinite(bound)
        if not finite.all():
            j = int(np.argmin(finite))
            raise QuadratureAccuracyError(
                f"non-finite quadrature estimate {float(total[j])!r} {name(ids[j])}",
                estimate=float(total[j]), error_bound=float(bound[j]))
        tol = _REL_TOL * np.abs(total)
        done = bound <= tol
        if done.any():
            out[ids[done]] = total[done]
            if done.all():
                return out
            live = ~done[seg]
            own, lo_i, hi_i, res, err = own[live], lo_i[live], hi_i[live], res[live], err[live]
            ids, counts, seg, rank, rows = _layout(own)
            total, bound, tol = total[~done], bound[~done], tol[~done]
        full = np.flatnonzero(counts >= _MAX_INTERVALS)
        if full.size:
            j = full[0]
            raise QuadratureAccuracyError(
                f"{_MAX_INTERVALS} subintervals reached with error bound "
                f"{float(bound[j]):.3g} above the tolerance {float(tol[j]):.3g} {name(ids[j])}",
                estimate=float(total[j]), error_bound=float(bound[j]))
        # in each integral, largest errors first, until what stays unsplit
        # sums to <= tol / 2
        order = np.lexsort((-err, own))
        unsplit = bound[:, None] - np.cumsum(rows(err[order]), axis=1)
        n = np.minimum((unsplit > 0.5 * tol[:, None]).sum(axis=1) + 1,
                       np.minimum(_MAX_INTERVALS - counts, counts))
        chosen = rank < n[seg]
        split, keep = order[chosen], order[~chosen]
        mid = 0.5 * (lo_i[split] + hi_i[split])
        new_lo = np.concatenate([lo_i[split], mid])
        new_hi = np.concatenate([mid, hi_i[split]])
        new_res, new_err = _gk21(fn, new_lo, new_hi)
        # kept intervals first, then the halves, and each integral's together
        own = np.concatenate([own[keep], own[split], own[split]])
        lo_i = np.concatenate([lo_i[keep], new_lo])
        hi_i = np.concatenate([hi_i[keep], new_hi])
        res = np.concatenate([res[keep], new_res])
        err = np.concatenate([err[keep], new_err])
        if ids.size > 1:
            grouped = np.argsort(own, kind="stable")
            own, lo_i, hi_i = own[grouped], lo_i[grouped], hi_i[grouped]
            res, err = res[grouped], err[grouped]


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    *,
    scale: float = 1.0,
) -> float | np.ndarray:
    """Integrate ``f`` over ``(lo, hi)``; ``hi`` may be ``math.inf``.

    With 1-d arrays of finite limits ``lo`` and ``hi``, of one length,
    integrates ``f`` over each ``(lo[k], hi[k])`` and returns one value per
    interval, as an array.  Each integral of a batch is held to the
    tolerance of its own value within its own 2000-interval budget, exactly
    as if it were integrated alone; the batch only shares the integrand
    calls.  A batch of one returns the scalar call's value bit for bit.

    ``f`` takes a 1-d array of points and returns the integrand's values as
    an array of the same shape.  The engine is global-adaptive Gauss-Kronrod
    G10/K21: each round bisects the intervals with the largest error
    estimates, largest first, until the estimates left unsplit sum to at most
    half the tolerance, and evaluates the 21 nodes of all new intervals, of
    every integral still open, in one call of ``f``.  The error estimate of
    an interval is QUADPACK's ``resasc * min(1, (200 |K21 - G10| / resasc)^1.5)``,
    floored at 50 ulp of the rule's absolute sum.  An integral is returned
    once its estimates sum to at most ``1e-10 * |I|``.  There is no absolute
    tolerance: a tiny integral is computed to the same relative accuracy as
    any other, and an integral whose value is zero cannot meet the tolerance
    and raises (unless ``f`` is zero at every node, when 0.0 is returned).

    A semi-infinite upper limit is mapped onto the unit interval through
    ``x = lo + scale * u / (1 - u)``, integrated in u below u = 1/2 and in
    ``1 - u`` above, so that nodes keep full precision both near ``lo`` and
    far out; ``scale`` should be a characteristic width of the integrand
    (it changes convergence speed, and the value only within the error
    estimate).  No node lies on an endpoint, and integrable endpoint
    singularities are resolved by bisection towards them.

    Raises:
        InvalidIntegrandError: ``f`` returned NaN inside an interval; the
            error names the point and the interval.
        QuadratureAccuracyError: splitting an integral further would exceed
            2000 intervals, or its estimate is not finite; the error names
            the interval and carries its estimate and error bound.
        ValueError: ``f`` returned an array of another shape, or the limits
            are out of order, or a batch's limits are not finite 1-d arrays
            of one length.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    batch = np.ndim(lo) > 0 or np.ndim(hi) > 0
    lo_a, hi_a = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    if batch and not (lo_a.ndim == 1 and lo_a.shape == hi_a.shape
                      and np.isfinite(lo_a).all() and np.isfinite(hi_a).all()):
        raise ValueError(f"batched limits must be finite 1-d arrays of one length, got "
                         f"shapes {lo_a.shape} and {hi_a.shape}")
    bad = ~(lo_a < hi_a)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"need lo < hi, got [{lo_a[k]}, {hi_a[k]}]")
    if lo_a.size == 0:
        return np.empty(0)

    def name(k: int) -> str:
        return f"on [{lo_a[k]}, {hi_a[k]}]" + (f" (interval {k} of the batch)" if batch else "")

    def checked(x: np.ndarray) -> np.ndarray:
        v = np.asarray(f(x), dtype=float)
        if v.shape != x.shape:
            raise ValueError(f"integrand returned shape {v.shape} for points of shape "
                             f"{x.shape}; it must return one value per point")
        nan = np.isnan(v)
        if nan.any():
            at = float(x[np.argmax(nan)])
            k = int(np.argmax((lo_a <= at) & (at <= hi_a)))   # an interval holding the node
            raise InvalidIntegrandError(f"integrand returned NaN at x={at!r} {name(k)}")
        return v

    if batch or not math.isinf(hi):
        out = _adapt(checked, lo_a, hi_a, np.arange(lo_a.size), name)
    else:
        # w = u for u <= 1/2 and w = u - 1 = -s for u > 1/2: the floats are
        # dense, and the nodes exact, both as x -> lo (w -> 0+) and as
        # x -> inf (w -> 0-)
        def transformed(w: np.ndarray) -> np.ndarray:
            neg = w < 0.0
            u = np.where(neg, 1.0 + w, w)
            s = np.where(neg, -w, 1.0 - w)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                x = lo + scale * u / s
                ok = np.isfinite(x)
                v = np.zeros_like(w)
                if ok.all():
                    v = checked(x)
                elif ok.any():
                    v[ok] = checked(x[ok])
                # v = 0 where the Jacobian is huge: no 0 * inf
                return np.where(v == 0.0, 0.0, v * scale / (s * s))

        out = _adapt(transformed, np.array([-0.5, 0.0]), np.array([0.0, 0.5]),
                     np.zeros(2, dtype=int), name)
    return out if batch else float(out[0])


_X_OVERFLOW_GUARD = 1e300
_X_UNDERFLOW_GUARD = 1e-300


def find_root_increasing(g: Callable[[float], float], target: float) -> float:
    """Solve ``g(x) = target`` for strictly increasing ``g`` on (0, inf).

    The bracket is grown geometrically from x = 1 (doubling upward, halving
    downward), then closed with Brent's method, so no prior scale is assumed.
    Brent stops at a relative tolerance of 4 ulp (the absolute tolerance
    1e-300 is below any representable root scale) or after 256 iterations.

    Raises:
        BracketError: the target lies below ``g(0+)`` / above ``g``'s range,
            or the expansion hit the overflow/underflow guards, or ``g``
            returned a non-finite value while bracketing.
    """
    def h(x: float) -> float:
        v = g(x) - target
        if math.isnan(v):
            raise BracketError(f"function returned NaN at x={x!r}")
        return v

    lo = hi = 1.0
    flo = fhi = h(1.0)
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
    from .optimize import brentq

    return brentq(h, lo, hi, xtol=1e-300, maxiter=256)


_STEP_SCALE = 1e-4   # a stencil step is this fraction of max(|p_i|, _STEP_FLOOR)
_STEP_FLOOR = 1e-8   # smallest |p_i| a stencil step is scaled by


def numerical_hessian(f: Callable[[np.ndarray], float], point: Sequence[float]) -> np.ndarray:
    """Central-difference Hessian of a scalar function, exactly symmetric.

    Per-coordinate steps are ``_STEP_SCALE * max(|p_i|, _STEP_FLOOR)``, balancing
    truncation against round-off for log-likelihoods of ~50-point samples.

    Raises:
        StencilError: ``f`` was non-finite at a stencil point; the error
            names the offending coordinate.
    """
    p = np.asarray(point, dtype=float)
    n = p.size
    h = _STEP_SCALE * np.maximum(np.abs(p), _STEP_FLOOR)

    def ev(q: np.ndarray, coord) -> float:
        v = float(f(q))
        if not math.isfinite(v):
            raise StencilError(f"objective non-finite at stencil point {q.tolist()}", coord)
        return v

    f0 = ev(p, "center")
    H = np.empty((n, n), dtype=float)
    e = np.diag(h)   # e[i] steps coordinate i alone
    with np.errstate(over="ignore"):   # h*h may overflow for huge coordinates
        for i in range(n):
            H[i, i] = (ev(p + e[i], i) - 2.0 * f0 + ev(p - e[i], i)) / (h[i] * h[i])
        for i in range(n):
            for j in range(i + 1, n):
                val = (ev(p + e[i] + e[j], (i, j)) - ev(p + e[i] - e[j], (i, j))
                       - ev(p - e[i] + e[j], (i, j)) + ev(p - e[i] - e[j], (i, j)))
                H[i, j] = H[j, i] = val / (4.0 * h[i] * h[j])
    return H
