"""Exact evaluation of the five-parameter lifetime distribution.

The family has CDF ``F(x) = [1 - exp(-a x^b (e^{c x^d} - 1))]^theta`` on
x >= 0.  Everything here is computed through two log-space kernels: the inner
exponent ``z(x) = a x^b (e^{c x^d} - 1)`` (carried as log z so it never
underflows) and a stable ``log(1 - e^{-z})``.  All evaluators accept scalars
or arrays of evaluation points and are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import (
    BracketError,
    DomainError,
    InvalidParametersError,
    LeftTailUnderflowError,
    TailOverflowError,
)
from .numerics import find_root_increasing  # noqa: F401  (perfbench's tracer wraps this name)

__all__ = [
    "EgwgParams",
    "cdf",
    "log_cdf",
    "pdf",
    "log_pdf",
    "survival",
    "log_survival",
    "hazard",
    "reversed_hazard",
    "quantile",
    "median",
    "mode",
    "sample",
]

_LN2 = math.log(2.0)
_LOG_TINY = math.log(1e-300)   # left-tail clamp threshold on log F
_LOG_MAX = 709.0               # exp() overflow edge


@dataclass(frozen=True)
class EgwgParams:
    """Parameter vector (a, b, c, d, theta).

    b, theta and d are shape parameters, a is a scale-like rate and c an
    acceleration parameter.  b = 0 selects the analytic limit sub-family
    (all evaluators use the rewritten form below, never 0/0 arithmetic).
    """

    a: float
    b: float
    c: float
    d: float
    theta: float

    def __post_init__(self):
        for name in ("a", "c", "d", "theta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise InvalidParametersError(f"{name} must be a finite positive number, got {v!r}")
        if not (isinstance(self.b, (int, float)) and math.isfinite(self.b) and self.b >= 0.0):
            raise InvalidParametersError(f"b must be a finite number >= 0, got {self.b!r}")

    def to_dict(self) -> dict:
        return {k: float(v) for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "EgwgParams":
        try:
            return cls(a=float(d["a"]), b=float(d["b"]), c=float(d["c"]),
                       d=float(d["d"]), theta=float(d["theta"]))
        except KeyError as exc:
            raise InvalidParametersError(f"missing parameter field {exc}") from exc


# ---------------------------------------------------------------------------
# log-space kernels
# ---------------------------------------------------------------------------

def _log_expm1(y, logy=None):
    """log(e^y - 1) for y > 0, elementwise, without over- or underflow (given log y, at y = 0)."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    tiny = y < 1e-8
    big = y > 33.0
    mid = ~(tiny | big)
    with np.errstate(divide="ignore"):
        out[tiny] = (np.log(y[tiny]) if logy is None else logy[tiny]) + 0.5 * y[tiny]
    out[mid] = np.log(np.expm1(y[mid]))
    out[big] = y[big]          # correction log(1 - e^{-y}) < 5e-15 here
    return out


def _log1mexp(z, logz):
    """log(1 - e^{-z}) for z > 0, using log z when z itself underflows."""
    out = np.empty_like(z)
    deep = logz < -36.7       # z below 1.1e-16: log(1 - e^{-z}) = log z to 1 ulp
    small = (~deep) & (z <= _LN2)
    big = (~deep) & (z > _LN2)
    out[deep] = logz[deep]
    out[small] = np.log(-np.expm1(-z[small]))
    out[big] = np.log1p(-np.exp(-z[big]))
    return out


def _inner(a: float, b: float, c: float, d: float, x):
    """Return (log x, s = x^d, c*s, log g, log z, z) for x > 0, all elementwise.

    g = x^b (e^{c s} - 1) and z = a g, summed as log z = log a + log g.
    Where c*s underflows to 0, log(e^{c s} - 1) is carried as log c + d log x,
    so log z stays finite wherever it is representable.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        lnx = np.log(x)
        s = x ** d
        cs = c * s
        lg = b * lnx + _log_expm1(cs)
        under = cs == 0.0
        if under.any():
            lg = np.where(under, b * lnx + (math.log(c) + d * lnx), lg)
        logz = math.log(a) + lg
        z = np.exp(logz)
    return lnx, s, cs, lg, logz, z


def _as_x_array(x, *, allow_zero: bool) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(~np.isfinite(arr)):
        raise DomainError("evaluation points must be finite")
    bad = arr < 0.0 if allow_zero else arr <= 0.0
    if np.any(bad):
        side = "x >= 0" if allow_zero else "x > 0"
        raise DomainError(f"evaluation requires {side}, got {arr[bad][0]!r}")
    return arr, scalar


def _ret(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------

def _log_F(p: EgwgParams, x) -> tuple[np.ndarray, bool]:
    """(log F(x) for x >= 0, scalar flag); log F(0) = -inf."""
    xs, scalar = _as_x_array(x, allow_zero=True)
    out = np.full(xs.shape, -np.inf)
    pos = xs > 0.0
    _, _, _, _, logz, z = _inner(p.a, p.b, p.c, p.d, xs[pos])
    out[pos] = p.theta * _log1mexp(z, logz)
    return out, scalar


def log_cdf(p: EgwgParams, x):
    """log F(x) for x >= 0 (log of 0 at x = 0 is -inf)."""
    return _ret(*_log_F(p, x))


def cdf(p: EgwgParams, x):
    """F(x) = [1 - e^{-a x^b (e^{c x^d} - 1)}]^theta, for x >= 0."""
    lf, scalar = _log_F(p, x)
    return _ret(np.exp(lf), scalar)


def log_survival(p: EgwgParams, x):
    """log R(x), evaluated as its own expression (not via 1 - cdf)."""
    lf, scalar = _log_F(p, x)
    with np.errstate(divide="ignore"):
        return _ret(np.log(-np.expm1(lf)), scalar)


def survival(p: EgwgParams, x):
    """R(x) = 1 - F(x), keeping full precision for values near 1."""
    lf, scalar = _log_F(p, x)
    return _ret(-np.expm1(lf), scalar)


def _log_density(p: EgwgParams, x) -> tuple[np.ndarray, np.ndarray, bool]:
    """(log f(x), unclamped log F(x), scalar flag) for x > 0, from one kernel pass.

    Uses the rewrite a*b*x^{b-1}*(1 + (c d / b) x^d - e^{-c x^d})
    = a x^{b-1} * [b (1 - e^{-c x^d}) + c d x^d], which evaluates the b -> 0
    limit directly instead of producing 0 * inf.  For theta < 1, where f
    blows up as x -> 0+, log f is clamped at the point where F = 1e-300.
    """
    xs, scalar = _as_x_array(x, allow_zero=False)
    lnx, s, cs, _, logz, z = _inner(p.a, p.b, p.c, p.d, xs)
    l1mez = _log1mexp(z, logz)
    log_F = p.theta * l1mez
    if p.theta < 1.0 and np.any(log_F < _LOG_TINY):
        try:
            xs = np.maximum(xs, quantile(p, 1e-300))
        except BracketError:   # no clamp below the float range
            pass
        else:
            lnx, s, cs, _, logz, z = _inner(p.a, p.b, p.c, p.d, xs)
            l1mez = _log1mexp(z, logz)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logw = np.log(p.b * (-np.expm1(-cs)) + p.c * p.d * s)
        under = cs == 0.0
        if under.any():
            # where c x^d underflows, w = (b + d) c x^d to within a factor 1 + c x^d
            logw = np.where(under, math.log(p.c) + p.d * lnx + math.log(p.b + p.d), logw)
        out = (math.log(p.a) + math.log(p.theta) + (p.b - 1.0) * lnx
               + cs - z + logw + (p.theta - 1.0) * l1mez)
    out[np.isnan(out)] = -np.inf   # deep right tail: cs - z -> -inf, not inf - inf
    return np.minimum(out, _LOG_MAX), log_F, scalar


def log_pdf(p: EgwgParams, x):
    """log f(x) for x > 0, finite in the b -> 0 limit (see _log_density)."""
    lp, _, scalar = _log_density(p, x)
    return _ret(lp, scalar)


def pdf(p: EgwgParams, x):
    """f(x) = exp(log_pdf(x)); density defined on the open positive half-line."""
    lp = log_pdf(p, x)   # by name, so perfbench's tracer still counts these points
    return _ret(np.exp(np.atleast_1d(lp)), np.ndim(lp) == 0)


def _largest_representable_x(p: EgwgParams) -> float:
    """x beyond which R(x) underflows to exactly zero.

    R = theta e^{-z} underflows once z passes about 745.13 + min(0, log theta);
    at z = 744.4 + min(0, log theta), e^{-z} rounded to the subnormal grid
    stays nonzero after the product with theta.
    """
    log_t = math.log(744.4 + min(0.0, math.log(p.theta))) - math.log(p.a)
    try:
        return float(np.exp(_solve_log_x(p, np.array([log_t]))[0]))
    except BracketError:
        return math.inf


def hazard(p: EgwgParams, x):
    """h(x) = f(x) / R(x), computed as exp(log f - log R) for tail stability."""
    lp, lf, scalar = _log_density(p, x)
    if np.any(lf == 0.0):   # R = 1 - e^{log F} = 0
        raise TailOverflowError(
            "survival underflowed to 0; largest representable point is about "
            f"x = {_largest_representable_x(p):.6g}")
    return _ret(np.exp(lp - np.log(-np.expm1(lf))), scalar)


def reversed_hazard(p: EgwgParams, x):
    """r(x) = f(x) / F(x) for x > 0 with F(x) > 0."""
    lp, lf, scalar = _log_density(p, x)
    if np.any(lf < _LOG_TINY):
        raise LeftTailUnderflowError("CDF underflowed in the extreme left tail")
    return _ret(np.exp(lp - lf), scalar)


# ---------------------------------------------------------------------------
# quantiles, mode, sampling
# ---------------------------------------------------------------------------

def _log_target(p: EgwgParams, q: np.ndarray) -> np.ndarray:
    """log of t(q) = -ln(1 - q^{1/theta}) / a with u = q^{1/theta}, for q > 0.

    Three branches keep full relative precision: u negligible (t = u),
    u below 1/2 (log1p on -u), and u near 1 (1 - u formed by expm1 so it
    survives u rounding to 1.0).
    """
    lnu = np.log(q) / p.theta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        small = np.log(-np.log1p(-np.exp(lnu)))
        near1 = np.log(-np.log(-np.expm1(lnu)))
    return np.where(lnu < -36.0, lnu, np.where(lnu < -_LN2, small, near1)) - math.log(p.a)


_LOG_X_GUARD = 996 * _LN2   # roots lie in 2^-996 ... 2^996, find_root_increasing's bracket range
_NEWTON_MAX_ITER = 64       # the fit's box corners take at most 13 steps


def _quantile_g(p: EgwgParams, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g(v) = b v + log(e^y - 1), y = c e^{d v}, and g'(v) = b + d y e^y / (e^y - 1);
    both finite where y underflows, g = inf where y overflows."""
    logy = math.log(p.c) + p.d * v
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.exp(logy)
        lem = _log_expm1(y, logy)
        return p.b * v + lem, p.b + p.d * np.exp(logy + y - lem)


def _solve_log_x(p: EgwgParams, log_t: np.ndarray) -> np.ndarray:
    """v = log x with g(v) = log t, elementwise, by Newton's method.

    g is increasing and convex, and log(e^y - 1) >= log y puts
    v_R = (log t - log c) / (b + d) on or right of the root (on it while y
    is small), so Newton descends monotonically from there, with no bracket;
    each element stops at its first step that does not decrease v.  In the
    large-y tail, y = |log t| + 1 is a closer start wherever g >= log t there.
    Raises BracketError if a root lies outside x = 2^-996 ... 2^996.
    """
    v = np.minimum((log_t - math.log(p.c)) / (p.b + p.d), _LOG_X_GUARD)
    v_tail = (np.log1p(np.abs(log_t)) - math.log(p.c)) / p.d
    g0 = _quantile_g(p, np.concatenate(([-_LOG_X_GUARD, _LOG_X_GUARD], v_tail)))[0]
    if np.any(log_t < g0[0]) or np.any(log_t > g0[1]):
        raise BracketError(f"a quantile root lies outside x = 2^-996 ... 2^996 for {p}")
    v = np.where((v_tail < v) & (g0[2:] >= log_t), v_tail, v)
    del v_tail, g0   # not held through the iteration
    todo = np.arange(v.size)
    for _ in range(_NEWTON_MAX_ITER):
        vt = v[todo]
        g, dg = _quantile_g(p, vt)
        with np.errstate(invalid="ignore"):   # where y overflows (g = inf) the step tends to 1/d
            v_next = vt - np.where(np.isfinite(g), (g - log_t[todo]) / dg, 1.0 / p.d)
        down = v_next < vt
        todo = todo[down]
        v[todo] = v_next[down]
        if not todo.size:
            break
    else:
        raise RuntimeError(f"quantile Newton solve did not converge in {_NEWTON_MAX_ITER} steps")
    return v


def _batch_quantile(p: EgwgParams, q) -> np.ndarray:
    """Inverse CDF at each q in [0, 1): the root of g(log x) = log t(q) (see _solve_log_x)."""
    q = np.asarray(q, dtype=float)
    bad = ~((q >= 0.0) & (q < 1.0))
    if np.any(bad):
        raise DomainError(f"quantile requires 0 <= q < 1, got {float(q[bad][0])!r}")
    out = np.zeros(q.shape)
    pos = q > 0.0
    out[pos] = np.exp(_solve_log_x(p, _log_target(p, q[pos])))
    return out


def quantile(p: EgwgParams, q) -> float:
    """Inverse CDF, unique for q in (0, 1), and 0 at q = 0 (see _batch_quantile)."""
    return float(_batch_quantile(p, np.array([float(q)]))[0])


def median(p: EgwgParams) -> float:
    """The distribution median; alias of quantile(p, 0.5)."""
    return quantile(p, 0.5)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MODE_GRID = 512   # points in mode's log-spaced scan


def _golden_max(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Golden-section maximiser of a unimodal fn on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if hi - lo <= 1e-14 * (abs(lo) + abs(hi)):
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
    return 0.5 * (lo + hi)


def mode(p: EgwgParams) -> float:
    """Maximiser of the density over (0, inf); 0.0 denotes a boundary mode.

    Scans a 512-point log-spaced grid between the 1e-6 and 1 - 1e-6
    quantiles, then refines with golden-section search.  When the supremum
    is approached as x -> 0+ (e.g. theta < 1, or decreasing sub-family
    densities), the boundary mode 0.0 is reported.  Flat ties resolve to the
    leftmost point.
    """
    lo, hi = _batch_quantile(p, np.array([1e-6, 1.0 - 1e-6]))
    grid = np.geomspace(lo, hi, _MODE_GRID)
    lp = np.atleast_1d(log_pdf(p, grid))
    i = int(np.argmax(lp))
    if i == 0:
        # probe toward 0: nondecreasing log-density as x shrinks => boundary
        probes = grid[0] / np.array([4.0, 16.0, 64.0])
        lp_probe = np.atleast_1d(log_pdf(p, probes))
        if lp_probe[0] >= lp[0] and np.all(np.diff(lp_probe) >= 0.0):
            return 0.0
        bracket = (probes[0], grid[1])
    elif i == _MODE_GRID - 1:
        bracket = (grid[i - 1], hi)
    else:
        bracket = (grid[i - 1], grid[i + 1])
    return _golden_max(lambda x: float(log_pdf(p, x)), *bracket)


def sample(p: EgwgParams, n: int, seed: int) -> np.ndarray:
    """n inverse-transform draws from a seeded Philox4x64 uniform stream.

    The generator (numpy's Philox counter-based bit generator seeded through
    SeedSequence(seed)) is fixed as part of the I/O contract: identical seed
    and parameters always reproduce the identical sequence.  The quantile
    equation is solved for the whole batch by one Newton solve in log x (see
    _batch_quantile), so the draws are bit-reproducible too.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random(n)
    return _batch_quantile(p, u)
