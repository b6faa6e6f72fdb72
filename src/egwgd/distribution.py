"""Exact evaluation of the five-parameter lifetime distribution.

The family has CDF ``F(x) = [1 - exp(-a x^b (e^{c x^d} - 1))]^theta`` on
x >= 0.  Everything here is computed from one log-space kernel pass, which
gives the inner exponent ``z(x) = a x^b (e^{c x^d} - 1)`` (carried as log z
so it never underflows) and a stable ``log(1 - e^{-z})``, whose one rule,
``_log1mexp``, also gives log R.  All evaluators accept scalars or arrays of
points and are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .exceptions import (
    BracketError,
    DomainError,
    InvalidParametersError,
    LeftTailUnderflowError,
    TailOverflowError,
    _whole,
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
            return cls(**{k: float(d[k]) for k in _PARAM_NAMES})
        except KeyError as exc:
            raise InvalidParametersError(f"missing parameter field {exc}") from exc


_PARAM_NAMES = tuple(f.name for f in fields(EgwgParams))


# ---------------------------------------------------------------------------
# log-space kernels
# ---------------------------------------------------------------------------

class _Workspace:
    """Arrays reused by repeated kernel passes over one fixed array x > 0.

    log x and its sum are computed once.  Every other array is made on first
    use under the name its function gives it, and each pass rewrites all of
    its elements, so no value survives from the pass before.  The arrays are
    shaped like x, or (k, n) after ``rows(k)``, when a pass evaluates k > 1
    laws given as (k, 1) parameter columns, one law per row (see _Laws).
    The kernel functions take ``ws=None`` from the public evaluators and
    then make fresh arrays, as does the theta < 1 clamp's pass over its one
    point (see _log_f).
    """

    def __init__(self, x: np.ndarray):
        self.x = x
        self.lnx = np.log(x)
        self.lnx_sum = self.lnx.sum()
        self._k = self._cap = 1
        self._full = {}        # name -> (cap, n) array, cap the most laws a pass has had
        self._arrays = {}      # name -> its view for the current pass

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


class _Laws(NamedTuple):
    """k laws as (k, 1) parameter columns: the rows of one fit-objective pass.

    The kernel functions take these in place of one law's floats and then
    work on a workspace's (k, n) arrays.  Each row comes out bit for bit as
    its own law alone would give it: every array operation acts on each
    element alone, each weighted sum runs along its row in the order of the
    one-row sum, and the per-law scalars that are not plain arithmetic
    (logarithms, the theta < 1 clamp) are taken row by row as for one law.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    theta: np.ndarray

    def law(self, i: int) -> EgwgParams:
        return EgwgParams(*(v[i, 0] for v in self))


class _Kernel(NamedTuple):
    """The columns of one kernel pass over x > 0 (see _inner)."""

    lnx: np.ndarray     # log x
    s: np.ndarray       # x^d = e^{d log x}
    ncs: np.ndarray     # -c s, the argument of expm1
    em: np.ndarray      # e^{-c s} - 1, in [-1, 0]
    logz: np.ndarray    # log z, z = a x^b (e^{c s} - 1)
    z: np.ndarray
    lnP: np.ndarray     # log(1 - e^{-z})
    under: np.ndarray | None   # where c s underflows to 0; None where it never does


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


def _log1mexp(z: np.ndarray, ws=None) -> np.ndarray:
    """log(1 - e^{-z}) for z >= 0, elementwise, in ws's array "lnP" (or a fresh one).

    log1p(-e^{-z}) above z = ln 2 and log(-expm1(-z)) up to it keep full
    relative precision at every z (Maechler, "Accurately computing
    log(1 - exp(-|a|))", 2012); z = 0 gives -inf, z = inf a zero.  ws also
    lends the masks "mask" and "mask2".  It opens no np.errstate, which would
    cost each kernel pass about 3 us: a caller where z can be 0 ignores
    "divide" itself.
    """
    out = np.negative(z, out=_scratch(ws, "lnP", z))
    big = np.greater(z, _LN2, out=_scratch(ws, "mask", z, bool))
    small = np.less_equal(z, _LN2, out=_scratch(ws, "mask2", z, bool))
    np.exp(out, out=out, where=big)
    np.expm1(out, out=out, where=small)
    np.negative(out, out=out)
    np.log1p(out, out=out, where=big)
    np.log(out, out=out, where=small)
    return out


def _log_expm1(y: np.ndarray, logy: np.ndarray) -> np.ndarray:
    """log(e^y - 1) for y > 0, elementwise, without over- or underflow, given log y."""
    out = y.copy()   # y > 33: the correction log(1 - e^{-y}) < 5e-15
    with np.errstate(divide="ignore"):
        m = y <= 33.0
        np.log(np.expm1(y, out=out, where=m), out=out, where=m)
        m = y < 1e-8
        if m.any():   # log y + y / 2
            np.copyto(out, logy + 0.5 * y, where=m)
    return out


def _inner(a: float, b: float, c: float, d: float, x: np.ndarray, ws=None) -> _Kernel:
    """The kernel columns (see _Kernel) at the points x > 0, each transcendental taken once.

    s = e^{d log x}, and log z = log a + b log x + c s + log(-em), since
    log(e^{c s} - 1) = c s + log(1 - e^{-c s}).  Where c s underflows to 0,
    log(e^{c s} - 1) is carried as log c + d log x, so log z stays finite
    wherever it is representable, as does log(1 - e^{-z}).
    With a _Workspace ws over x, log x is ws's and every column is one of its arrays.
    a, b, c and d may be (k, 1) columns of k laws (see _Laws); ws's arrays are then (k, n).
    It opens no np.errstate: its callers ignore at least "over" and "divide".
    """
    lnx = np.log(x) if ws is None else ws.lnx
    s = np.multiply(d, lnx, out=_scratch(ws, "s", x))
    np.exp(s, out=s)
    ncs = np.multiply(-c, s, out=_scratch(ws, "ncs", x))
    em = np.expm1(ncs, out=_scratch(ws, "em", x))
    logz = np.negative(em, out=_scratch(ws, "logz", x))
    np.log(logz, out=logz)
    np.subtract(logz, ncs, out=logz)
    blnx = np.multiply(b, lnx, out=_scratch(ws, "t", x))
    np.add(logz, blnx, out=logz)
    under = np.equal(ncs, 0.0, out=_scratch(ws, "under", x, bool))
    if under.any():
        np.multiply(d, lnx, out=logz, where=under)
        np.add(_log(c), logz, out=logz, where=under)
        np.add(blnx, logz, out=logz, where=under)
    else:
        under = None
    np.add(_log(a), logz, out=logz)
    z = np.exp(logz, out=_scratch(ws, "z", x))
    lnP = _log1mexp(z, ws)
    # below z = 1.1e-16, log(1 - e^{-z}) is log z, which stays finite where z underflows
    tiny = np.less(logz, -36.7, out=_scratch(ws, "mask", x, bool))
    if tiny.any():
        np.copyto(lnP, logz, where=tiny)
    return _Kernel(lnx, s, ncs, em, logz, z, lnP, under)


def _as_x_array(x, *, allow_zero: bool) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(~np.isfinite(arr)):
        raise DomainError("evaluation points must be finite")
    bad = arr < 0.0 if allow_zero else arr <= 0.0
    if np.any(bad):
        side = "x >= 0" if allow_zero else "x > 0"
        raise DomainError(f"evaluation requires {side}, got {float(arr[bad][0])!r}")
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
    with np.errstate(over="ignore", divide="ignore"):
        k = _inner(p.a, p.b, p.c, p.d, xs[pos])
    out[pos] = p.theta * k.lnP
    return out, scalar


def log_cdf(p: EgwgParams, x):
    """log F(x) for x >= 0 (log of 0 at x = 0 is -inf)."""
    return _ret(*_log_F(p, x))


def cdf(p: EgwgParams, x):
    """F(x) = [1 - e^{-a x^b (e^{c x^d} - 1)}]^theta, for x >= 0."""
    lf, scalar = _log_F(p, x)
    return _ret(np.exp(lf), scalar)


def log_survival(p: EgwgParams, x):
    """log R(x) = log(1 - e^{log F(x)}), precise in both tails (not via 1 - cdf)."""
    lf, scalar = _log_F(p, x)
    with np.errstate(divide="ignore"):
        return _ret(_log1mexp(-lf), scalar)


def survival(p: EgwgParams, x):
    """R(x) = 1 - F(x), keeping full precision for values near 1."""
    lf, scalar = _log_F(p, x)
    return _ret(-np.expm1(lf), scalar)


def _log_f(p, xs: np.ndarray, k: _Kernel, ws=None) -> tuple[np.ndarray, np.ndarray]:
    """(log f, unclamped log F) at the points xs > 0, given their kernel k = _inner(..., xs, ws).

    log f is read off the kernel's columns (see _log_f_terms), in a form
    that evaluates the b -> 0 limit directly instead of producing 0 * inf.
    For theta < 1, where f blows up as x -> 0+, log f is clamped at the
    point x_c where F = 1e-300: log f(x_c) comes from a kernel pass over
    that one point, and every x < x_c takes it.  p is one law, or k laws as
    _Laws columns over ws's (k, n) arrays; a row that needs the clamp gets
    it alone, as its law would.  Each operation acts on each element alone,
    so the one-point value is the one a pass over all the clamped points
    would give.
    """
    log_F = np.multiply(p.theta, k.lnP, out=_scratch(ws, "log_F", k.lnP))
    out = _log_f_terms(p, k, ws, _scratch(ws, "log_f", k.lnP))
    clamp = np.ravel(p.theta) < 1.0
    if clamp.any():
        tiny = np.atleast_2d(np.less(log_F, _LOG_TINY, out=_scratch(ws, "log_F.tiny", k.lnP, bool)))
        clamp &= tiny.any(axis=1)
    for i in np.flatnonzero(clamp):
        q = p.law(i) if isinstance(p, _Laws) else p
        lo = _clamp_point(q)
        if lo is not None:
            at = np.array([lo])
            f_lo = _log_f_terms(q, _inner(q.a, q.b, q.c, q.d, at), None, np.empty(1))
            np.copyto(np.atleast_2d(out)[i], f_lo, where=np.less(xs, lo, out=tiny[i]))
    return out, log_F


def _clamp_point(p: EgwgParams) -> float | None:
    """x where F = 1e-300, below which log f is clamped; None below the float range."""
    try:
        return quantile(p, 1e-300)
    except BracketError:
        return None


def _log_f_terms(p, k: _Kernel, ws, out: np.ndarray) -> np.ndarray:
    """log f from the kernel k, written into out (see _log_f); ws lends the scratch arrays.

    f = theta a x^{b-1} e^{c s - z} w (1 - e^{-z})^{theta - 1}, and
    a x^{b-1} e^{c s} = z / (x (1 - e^{-c s})), so
    log f = log theta + log z - log x - z + log v + (theta - 1) log(1 - e^{-z})
    with v = w / (1 - e^{-c s}) = b + d c s / (1 - e^{-c s}), which is b + d
    where c s underflows.  Its callers ignore "over", "divide" and "invalid".
    """
    lnx, _, ncs, em, logz, z, l1mez, under = k
    logv = np.divide(ncs, em, out=_scratch(ws, "logv", out))
    np.add(np.multiply(p.d, logv, out=logv), p.b, out=logv)
    if under is not None:
        np.copyto(logv, p.b + p.d, where=under)
    np.log(logv, out=logv)
    np.add(logz, _log(p.theta), out=out)
    np.subtract(out, lnx, out=out)
    np.subtract(out, z, out=out)
    np.add(out, logv, out=out)
    np.add(out, np.multiply(p.theta - 1.0, l1mez, out=_scratch(ws, "t", out)), out=out)
    # deep right tail: log z - z -> -inf, not inf - inf
    nan = np.isnan(out, out=_scratch(ws, "mask", out, bool))
    if nan.any():
        np.copyto(out, -np.inf, where=nan)
    return np.minimum(out, _LOG_MAX, out=out)


def _log_density(p: EgwgParams, x) -> tuple[np.ndarray, np.ndarray, bool]:
    """(log f(x), unclamped log F(x), scalar flag) for x > 0, from one kernel pass (see _log_f)."""
    xs, scalar = _as_x_array(x, allow_zero=False)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
    return _ret(np.exp(lp - _log1mexp(-lf)), scalar)


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

    log(1 - u) = _log1mexp(-log u) keeps full relative precision, also for
    u near 1 where u itself rounds to 1.0; where u is negligible, t = u.
    """
    lnu = np.log(q) / p.theta
    with np.errstate(divide="ignore"):
        return np.where(lnu < -36.0, lnu, np.log(-_log1mexp(-lnu))) - math.log(p.a)


_LOG_X_GUARD = 996 * _LN2   # roots lie in 2^-996 ... 2^996
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


_MODE_GRID = 512   # points in mode's log-spaced scan


def mode(p: EgwgParams) -> float:
    """Maximiser of the density over (0, inf); 0.0 denotes a boundary mode.

    Scans a 512-point log-spaced grid between the 1e-6 and 1 - 1e-6
    quantiles, then refines with bounded Brent (``optimize``'s port of
    scipy's) to Brent's own relative tolerance.  When the supremum
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
    from .optimize import minimize_scalar_bounded   # here: eval and sample never load it
    return minimize_scalar_bounded(lambda x: -float(log_pdf(p, x)), *bracket, xatol=0.0)


def sample(p: EgwgParams, n: int, seed: int) -> np.ndarray:
    """n inverse-transform draws from a seeded Philox4x64 uniform stream.

    The generator (numpy's Philox counter-based bit generator seeded through
    SeedSequence(seed)) is fixed as part of the I/O contract: identical seed
    and parameters always reproduce the identical sequence.  The quantile
    equation is solved for the whole batch by one Newton solve in log x (see
    _batch_quantile), so the draws are bit-reproducible too.
    """
    n = _whole(n, "n")
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random(n)
    return _batch_quantile(p, u)
