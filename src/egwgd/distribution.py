"""Exact evaluation of the five-parameter lifetime distribution.

The family has CDF ``F(x) = [1 - exp(-a x^b (e^{c x^d} - 1))]^theta`` on
x >= 0.  Everything here is computed from one log-space kernel pass, which
gives the inner exponent ``z(x) = a x^b (e^{c x^d} - 1)`` (carried as log z
so it never underflows) and a stable ``log(1 - e^{-z})``.  All evaluators
accept scalars or arrays of points and are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

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

class _Workspace:
    """Arrays reused by repeated kernel passes over one fixed array x > 0.

    log x is computed once.  Every other array is made on first use under
    the name its function gives it, and each pass rewrites all of its
    elements, so no value survives from the pass before.  The arrays are
    shaped like x, or (k, n) after ``rows(k)``, when a pass evaluates k > 1
    laws given as (k, 1) parameter columns, one law per row (see _Laws).
    The kernel functions take ``ws=None`` from the public evaluators and
    then make fresh arrays.
    """

    def __init__(self, x: np.ndarray):
        self.x = x
        self.lnx = np.log(x)
        self._k = self._cap = 1
        self._full = {}        # name -> (cap, n) array, cap the most laws a pass has had
        self._arrays = {}      # name -> its view for the current pass
        self._clamped = None

    def rows(self, k: int) -> None:
        """Shape the arrays for a pass of k laws: (k, n), or like x for one law."""
        if k == self._k:
            return
        if k > self._cap:
            self._full, self._cap = {}, k
        self._k = k
        self._arrays = {name: self._view(a) for name, a in self._full.items()}

    def _view(self, a: np.ndarray) -> np.ndarray:
        return a[0] if self._k == 1 else a[:self._k]

    def array(self, name: str, dtype=float) -> np.ndarray:
        """The array called name, of the current shape (made on first use)."""
        out = self._arrays.get(name)
        if out is None:
            a = self._full[name] = np.empty((self._cap, self.x.size), dtype)
            out = self._arrays[name] = self._view(a)
        return out

    def clamped(self, lo: float) -> "_Workspace":
        """The workspace over max(x, lo), shaped like x, whose arrays are apart from these."""
        ws = self._clamped
        if ws is None:
            ws = self._clamped = _Workspace(np.maximum(self.x, lo))
        else:
            np.maximum(self.x, lo, out=ws.x)
            np.log(ws.x, out=ws.lnx)
        return ws


class _Laws(NamedTuple):
    """k laws as (k, 1) parameter columns: the rows of one fit-objective pass.

    The kernel functions take these in place of one law's floats and then
    work on a workspace's (k, n) arrays.  Each row comes out bit for bit as
    its own law alone would give it: every array operation acts on each
    element alone, and the per-law scalars that are not plain arithmetic
    (logarithms, the x ** 0.5 rule, the theta < 1 clamp) are taken row by
    row as for one law.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    theta: np.ndarray

    def law(self, i: int) -> EgwgParams:
        return EgwgParams(*(v[i, 0] for v in self))


def _scratch(ws, name: str, like: np.ndarray, dtype=float) -> np.ndarray:
    """ws's array called name, or a fresh array shaped like `like` when ws is None."""
    return np.empty(like.shape, dtype) if ws is None else ws.array(name, dtype)


def _log(v):
    """math.log of a float, or of each entry of a (k, 1) column, row by row.

    numpy's log may differ from the C library's in the last bit, so a
    column's rows take the one-law path's function.
    """
    if isinstance(v, np.ndarray):
        return np.array([[math.log(t)] for t in v[:, 0]])
    return math.log(v)


def _power(x: np.ndarray, d, out: np.ndarray) -> np.ndarray:
    """x ** d written into out; numpy's ``x ** 0.5`` is sqrt, so that exponent is too.

    A (k, 1) column d writes row i of out from d[i], with the same rule.
    """
    if not isinstance(d, np.ndarray):
        return np.sqrt(x, out=out) if d == 0.5 else np.power(x, d, out=out)
    np.power(x, d, out=out)
    for i in np.flatnonzero(d[:, 0] == 0.5):
        np.sqrt(x, out=out[i])
    return out


def _log_expm1(y, logy=None, out=None, ws=None):
    """log(e^y - 1) for y > 0, elementwise, without over- or underflow (given log y, at y = 0).

    Written into out (fresh when None); ws lends the scratch arrays.
    """
    y = np.asarray(y, dtype=float)
    if out is None:
        out = np.empty_like(y)
    m = _scratch(ws, "lem.mask", y, bool)
    with np.errstate(divide="ignore"):
        np.copyto(out, y)          # y > 33: the correction log(1 - e^{-y}) < 5e-15
        np.less_equal(y, 33.0, out=m)
        np.log(np.expm1(y, out=out, where=m), out=out, where=m)
        if np.less(y, 1e-8, out=m).any():   # log y + y / 2
            half = np.multiply(0.5, y, out=_scratch(ws, "lem.half", y), where=m)
            if logy is None:
                np.log(y, out=out, where=m)
            else:
                np.copyto(out, logy, where=m)
            np.add(out, half, out=out, where=m)
    return out


def _inner(a: float, b: float, c: float, d: float, x, ws=None):
    """Return (log x, s = x^d, c*s, log g, log z, z, log(1 - e^{-z})) for x > 0, elementwise.

    g = x^b (e^{c s} - 1) and z = a g, summed as log z = log a + log g.
    Where c*s underflows to 0, log(e^{c s} - 1) is carried as log c + d log x,
    so log z stays finite wherever it is representable, as does log(1 - e^{-z}).
    With a _Workspace ws over x, log x is ws's and every result is one of its arrays.
    a, b, c and d may be (k, 1) columns of k laws (see _Laws); ws's arrays are then (k, n).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        lnx = np.log(x) if ws is None else ws.lnx
        s = _power(x, d, _scratch(ws, "s", x))
        cs = np.multiply(c, s, out=_scratch(ws, "cs", x))
        lg = _log_expm1(cs, out=_scratch(ws, "lg", x), ws=ws)
        blnx = np.multiply(b, lnx, out=_scratch(ws, "t", x))
        np.add(blnx, lg, out=lg)
        under = np.equal(cs, 0.0, out=_scratch(ws, "mask", x, bool))
        if under.any():
            np.multiply(d, lnx, out=lg, where=under)
            np.add(_log(c), lg, out=lg, where=under)
            np.add(blnx, lg, out=lg, where=under)
        logz = np.add(_log(a), lg, out=_scratch(ws, "logz", x))
        z = np.exp(logz, out=_scratch(ws, "z", x))
        # log(1 - e^{-z}) is log1p(-e^{-z}) above z = ln 2 and log(-expm1(-z))
        # up to it; below z = 1.1e-16 it equals log z to 1 ulp
        lnP = np.negative(z, out=_scratch(ws, "lnP", x))
        m = np.greater(z, _LN2, out=under)
        np.exp(lnP, out=lnP, where=m)
        np.log1p(np.negative(lnP, out=lnP, where=m), out=lnP, where=m)
        np.invert(m, out=m)
        np.expm1(lnP, out=lnP, where=m)
        np.log(np.negative(lnP, out=lnP, where=m), out=lnP, where=m)
        np.copyto(lnP, logz, where=np.less(logz, -36.7, out=m))
    return lnx, s, cs, lg, logz, z, lnP


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
    out[pos] = p.theta * _inner(p.a, p.b, p.c, p.d, xs[pos])[6]
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


def _log_f(p, xs: np.ndarray, k: tuple, ws=None) -> tuple[np.ndarray, np.ndarray]:
    """(log f, unclamped log F) at the points xs > 0, given their kernel k = _inner(..., xs, ws).

    Uses the rewrite a*b*x^{b-1}*(1 + (c d / b) x^d - e^{-c x^d})
    = a x^{b-1} * [b (1 - e^{-c x^d}) + c d x^d], which evaluates the b -> 0
    limit directly instead of producing 0 * inf.  For theta < 1, where f
    blows up as x -> 0+, log f is clamped at the point where F = 1e-300;
    only then is the kernel evaluated a second time, at the clamped points
    (given ws, in its clamped workspace, so that k stays intact).  p is one
    law, or k laws as _Laws columns over ws's (k, n) arrays; a row that
    needs the clamp gets it alone, as its law would.
    """
    log_F = np.multiply(p.theta, k[6], out=_scratch(ws, "log_F", xs))
    out = _scratch(ws, "log_f", xs)

    def tiny():
        return np.less(log_F, _LOG_TINY, out=_scratch(ws, "log_F.tiny", xs, bool))

    if not isinstance(p, _Laws):
        lo = _clamp_point(p) if p.theta < 1.0 and tiny().any() else None
        if lo is not None:
            if ws is None:
                xs = np.maximum(xs, lo)
            else:
                ws = ws.clamped(lo)
                xs = ws.x
            k = _inner(p.a, p.b, p.c, p.d, xs, ws=ws)
        return _log_f_terms(p, k, ws, out), log_F
    _log_f_terms(p, k, ws, out)
    clamp = p.theta[:, 0] < 1.0
    if clamp.any():
        clamp &= tiny().any(axis=1)
    for i in np.flatnonzero(clamp):
        q = p.law(i)
        lo = _clamp_point(q)
        if lo is not None:
            cws = ws.clamped(lo)
            _log_f_terms(q, _inner(q.a, q.b, q.c, q.d, cws.x, ws=cws), cws, out[i])
    return out, log_F


def _clamp_point(p: EgwgParams) -> float | None:
    """x where F = 1e-300, below which log f is clamped; None below the float range."""
    try:
        return quantile(p, 1e-300)
    except BracketError:
        return None


def _log_f_terms(p, k: tuple, ws, out: np.ndarray) -> np.ndarray:
    """log f from the kernel k, written into out (see _log_f); ws lends the scratch arrays."""
    lnx, s, cs, _, _, z, l1mez = k
    t = _scratch(ws, "t", out)
    mask = _scratch(ws, "mask", out, bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # log w = log(b (1 - e^{-c x^d}) + c d x^d)
        logw = np.negative(cs, out=_scratch(ws, "logw", out))
        np.negative(np.expm1(logw, out=logw), out=logw)
        np.add(np.multiply(p.b, logw, out=logw), np.multiply(p.c * p.d, s, out=t), out=logw)
        np.log(logw, out=logw)
        under = np.equal(cs, 0.0, out=mask)
        if under.any():
            # where c x^d underflows, w = (b + d) c x^d to within a factor 1 + c x^d
            np.multiply(p.d, lnx, out=logw, where=under)
            np.add(_log(p.c), logw, out=logw, where=under)
            np.add(logw, _log(p.b + p.d), out=logw, where=under)
        # log a + log theta + (b - 1) log x + c x^d - z + log w + (theta - 1) log(1 - e^{-z})
        np.add(_log(p.a) + _log(p.theta), np.multiply(p.b - 1.0, lnx, out=out), out=out)
        np.add(out, cs, out=out)
        np.subtract(out, z, out=out)
        np.add(out, logw, out=out)
        np.add(out, np.multiply(p.theta - 1.0, l1mez, out=t), out=out)
    # deep right tail: cs - z -> -inf, not inf - inf
    np.copyto(out, -np.inf, where=np.isnan(out, out=mask))
    return np.minimum(out, _LOG_MAX, out=out)


def _log_density(p: EgwgParams, x) -> tuple[np.ndarray, np.ndarray, bool]:
    """(log f(x), unclamped log F(x), scalar flag) for x > 0, from one kernel pass (see _log_f)."""
    xs, scalar = _as_x_array(x, allow_zero=False)
    return *_log_f(p, xs, _inner(p.a, p.b, p.c, p.d, xs)), scalar


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
_GOLDEN_ITERS = 200   # 0.618^200 = 1e-42: the 1e-14 width test stops the search first


def _golden_max(fn, lo: float, hi: float) -> float:
    """Golden-section maximiser of a unimodal fn on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(_GOLDEN_ITERS):
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
