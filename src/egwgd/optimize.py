"""The package's optimisers: box-constrained L-BFGS-B, bounded Brent and brentq.

``minimize`` runs L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput.
16, 1190, 1995; version 3.0 of the subspace step, Morales & Nocedal, ACM
TOMS 38, 7, 2011) with the More-Thuente line search (ACM TOMS 20, 286,
1994) of MINPACK-2's ``dcsrch``/``dcstep``.  It follows the iteration of
scipy.optimize's L-BFGS-B step for step: the generalized Cauchy point
along the projected-gradient path, a Newton step on the variables that are
free there, a line search from the unit step, ``maxcor = 10`` curvature
pairs and the stop tests in scipy's order, with fit's settings as constants
(500 iterations, ftol 1e-14, gtol 1e-12).  A point where the objective's
value or gradient is not finite is untenable: the line search backs off
from it halfway to its best step, and a run that starts at one ends at
once (ABNORMAL).  The linear algebra also differs: the problems solved here have a handful of variables, so the
matrix N = W M W' of the compact representation B = theta I - N is
formed densely, once per update, and the Cauchy point and the subspace
step apply it directly.  The iterates therefore agree with scipy's to
rounding, not bit for bit.

``minimize_scalar_bounded`` is scipy's ``_minimize_scalar_bounded``
(Brent's golden-section search with parabolic steps) and ``brentq`` is
scipy's C ``brentq``, both ported operation for operation so that they
return scipy's results bit for bit.  The ports follow scipy (BSD-3-Clause,
Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy Developers)
and MINPACK-2 (Argonne National Laboratory, More & Thuente).

An L-BFGS-B run is a generator (``_lbfgsb``): it yields each point it
needs evaluated and is sent the objective's value and gradient there.  One
driver, ``_lockstep``, runs any number of such generators: each round, the
points they ask for are the rows of one block, evaluated together.
``minimize`` is a pool of one run; ``estimation.fit`` pools its restarts,
each a generator that owns its retry.

Nothing here is public API: ``estimation`` and ``submodels`` import it,
and ``numerics.find_root_increasing`` and ``distribution.mode`` import
``brentq`` and the bounded Brent when they run.
"""

from __future__ import annotations

import math
from operator import mul
from types import SimpleNamespace

import numpy as np

_EPS = float(np.finfo(float).eps)
_LBFGSB_MAX_ITER = 500   # caps each L-BFGS-B run
_LBFGSB_FTOL = 1e-14     # scipy's ftol: the relative-reduction stop
_LBFGSB_GTOL = 1e-12     # scipy's gtol: the projected-gradient stop
_BRENT_MAX_ITER = 500    # caps the bounded Brent's calls of func
_BRENTQ_RTOL = 4 * _EPS  # brentq's relative tolerance


# ---------------------------------------------------------------------------
# L-BFGS-B
# ---------------------------------------------------------------------------

def minimize(fun, x0, bounds):
    """Minimise ``fun`` over a box with L-BFGS-B: ``_lockstep`` on one ``_lbfgsb`` run.

    ``fun(x)`` returns ``(f, gradient)``; a point where either is not
    finite is untenable, and the line search backs off from it.
    ``bounds`` gives a finite ``(lo, hi)`` pair with lo < hi for every
    variable, and x0 is clipped into the box.  The stop tests are
    ``_lbfgsb``'s constants.

    Returns a namespace with ``x``, ``fun`` and ``jac`` (the objective's own
    value and gradient at x), ``nfev`` (objective calls), ``nit`` (accepted
    steps) and ``message`` (scipy's wording).
    """
    lo = [float(b[0]) for b in bounds]
    hi = [float(b[1]) for b in bounds]
    if len(lo) != len(x0) or not all(-math.inf < l < h < math.inf for l, h in zip(lo, hi)):
        raise ValueError("bounds must be one finite (lo, hi) pair with lo < hi per variable")
    run = _lbfgsb(x0, lo, hi)
    return _lockstep([run], lambda block: zip(*map(fun, block)))[0]   # (values, gradients)


def _lockstep(runs, evaluate):
    """Drive runs, generators that each yield at least one point, in lock-step.

    Each round, the unfinished runs' points are the rows of one block, in run
    order; ``evaluate(block)`` returns their values and gradients, and each
    run is sent its row's ``(f, gradient)``.  Returns the results in run order.
    """
    results = [None] * len(runs)
    active = [(k, run, next(run)) for k, run in enumerate(runs)]   # (index, run, its point)
    while active:
        f, g = evaluate(np.array([u for _, _, u in active]))
        asking, active = active, []
        for (k, run, _), fk, gk in zip(asking, f, g):
            try:
                active.append((k, run, run.send((fk, gk))))
            except StopIteration as done:
                results[k] = done.value
    return results


def _lbfgsb(x0, lo, hi):
    """One L-BFGS-B run as a generator from x0 in the box lo, hi (lists).

    It yields each point it needs evaluated, as an array, and is sent back
    ``(f, gradient)`` there; it returns minimize's namespace.  ``_lockstep``
    drives it, alone or beside other runs.  It reads ``_LBFGSB_MAX_ITER`` as it starts.
    """
    n = len(lo)
    maxiter, maxfun, maxls = _LBFGSB_MAX_ITER, 15000, 20
    tol = _LBFGSB_FTOL / _EPS * _EPS   # scipy's factr * epsmch
    x = [min(max(float(v), l), h) for v, l, h in zip(x0, lo, hi)]
    nfev = 0
    last = None                        # (x, f, g as list, g as array) of the latest call

    def evaluate(x):
        # like scipy, a point equal to the one evaluated last is not evaluated again
        nonlocal nfev, last
        if last is None or x != last[0]:
            f, g = yield np.array(x)
            nfev += 1
            g = np.asarray(g, dtype=float)
            last = (x, float(f), g.tolist(), g)
        return last

    x, f, g, jac = yield from evaluate(x)
    iwhere = [0] * n
    memory = _Memory(n)
    nit = 0
    message = ""
    if not _tenable(f, g):
        message = "ABNORMAL: NON-FINITE VALUE OR GRADIENT AT THE START"
    elif _projgr(x, g, lo, hi) <= _LBFGSB_GTOL:
        message = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    while not message:
        theta, N = memory.theta, memory.N
        xcp, Nz = _cauchy(x, g, lo, hi, theta, N, iwhere)
        free = [i for i in range(n) if iwhere[i] <= 0]
        z = _subspace_step(x, g, xcp, Nz, free, lo, hi, theta, N) if memory.col and free else xcp
        if z is None:                  # singular subspace system: refresh the memory
            memory.clear()
            continue
        d = [zi - xi for zi, xi in zip(z, x)]

        # line search from the unit step; the first iteration may not leave
        # the unit box around x, later ones stop at the box
        stpmax = 1.0 if nit == 0 else _step_to_box(x, d, lo, hi, range(n), 1e10)[0]
        xk, f0, g0, jac0 = x, f, g, jac    # the iterate the line search starts from
        stp = 1.0
        gd0 = sum(map(mul, g, d))
        search = _Dcsrch(f, gd0, stp, stpmax) if gd0 < 0.0 else None
        ok = False
        if search is not None and not search.error:
            for _ in range(maxls):
                x = z if stp == 1.0 else [stp * di + xi for di, xi in zip(d, xk)]
                x, f, g, jac = yield from evaluate(x)
                if not _tenable(f, g):
                    stp = search.back_off(stp)
                    continue
                gd = sum(map(mul, g, d))
                stp, ok = search(stp, f, gd)
                if ok:
                    break
        if not ok:
            x, f, g, jac = xk, f0, g0, jac0
            if not memory.col:
                message = "ABNORMAL: "
            memory.clear()
            continue

        nit += 1
        if nit >= maxiter:
            message = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
        elif nfev > maxfun:
            message = "STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT"
        elif _projgr(x, g, lo, hi) <= _LBFGSB_GTOL:
            message = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
        elif f0 - f <= tol * max(abs(f0), abs(f), 1.0):
            message = "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
        if message:
            break

        # curvature pair s = stp d, y = g - g0; skipped unless s'y > eps * (-g0's)
        if stp == 1.0:
            dr, ddum = gd - gd0, -gd0
        else:
            dr, ddum = (gd - gd0) * stp, -gd0 * stp
            d = [stp * di for di in d]
        if dr > _EPS * ddum:
            memory.add(d, [gi - g0i for gi, g0i in zip(g, g0)], dr)
    return SimpleNamespace(x=np.array(x), fun=f, jac=jac, nfev=nfev, nit=nit, message=message)


def _tenable(f, g):
    """Whether the value f and the gradient g (a list) are all finite."""
    return math.isfinite(f) and all(map(math.isfinite, g))


def _projgr(x, g, lo, hi):
    """Infinity norm of the projected gradient."""
    out = 0.0
    for xi, gi, l, h in zip(x, g, lo, hi):
        gi = max(xi - h, gi) if gi < 0.0 else min(xi - l, gi)
        out = max(out, abs(gi))
    return out


def _step_to_box(x, d, lo, hi, idx, cap):
    """The longest step t <= cap from x along d that keeps the variables idx
    in the box, with d[k] the direction of variable idx[k].

    Returns t and the position k in idx of the variable whose bound sets it
    (-1 when cap does); t is 0 where d points out of the box at a variable
    already on its bound.
    """
    t, hit = cap, -1
    for k, i in enumerate(idx):
        dk = d[k]
        if dk < 0.0:
            room = lo[i] - x[i]
            if room >= 0.0:
                tk = 0.0
            elif dk * t < room:
                tk = room / dk
            else:
                continue
        elif dk > 0.0:
            room = hi[i] - x[i]
            if room <= 0.0:
                tk = 0.0
            elif dk * t > room:
                tk = room / dk
            else:
                continue
        else:
            continue
        if tk < t:
            t, hit = tk, k
    return t, hit


class _Memory:
    """The last m = 10 curvature pairs and the dense L-BFGS matrix they define.

    With the pairs as the columns of S and Y, D = diag(S'Y) and L the
    strictly lower part of S'Y (pairs in the order they were made), the
    L-BFGS matrix is B = theta I - N, N = W M W' with W = [Y, theta S] and
    M = [[-D, L'], [L, theta S'S]]^-1; scipy applies M through a Cholesky
    factor of T = theta S'S + L D^-1 L'.  The block inverse of M gives
    N = U T^-1 U' - Y D^-1 Y' with U = Y D^-1 L' + theta S.  Here U T^-1 U'
    comes from one Cholesky factor of A = [L; Y] D^-1 [L; Y]' +
    theta [S'; I] [S'; I]' = [[T, U'], [U, Y D^-1 Y' + theta I]]: its lower
    left block is V' = U J'^-1, J J' = T, and U T^-1 U' = V'V.  A is
    positive definite when T and B are; when it is not, the memory is
    cleared, as scipy clears it when T is not.

    The pairs sit in the trailing columns of [L; Y] and the trailing rows
    of [S'; I], oldest first; a new pair shifts the others one slot back,
    and the oldest drops out once there are m, as in scipy's matupd.
    ``N`` is the matrix as nested lists, zero when the memory is empty
    (then B = I and theta = 1).
    """

    m = 10

    def __init__(self, n):
        m = self.m
        self.LY = np.zeros((m + n, m))              # [L; Y]
        self.St = np.concatenate((np.empty((m, n)), np.eye(n)))   # [S'; I]
        self.D = np.empty(m)
        self.clear()

    def clear(self):
        n = self.St.shape[1]
        self.col, self.theta, self.N = 0, 1.0, [[0.0] * n for _ in range(n)]

    def add(self, s, y, sy):
        """Store the pair (s, y) with s'y = sy and rebuild N (or clear the memory)."""
        m = self.m
        col = self.col = min(self.col + 1, m)
        lo = m - col
        LY, St, D = self.LY, self.St, self.D
        LY[lo:m - 1, lo:m - 1] = LY[lo + 1:m, lo + 1:m]
        LY[m:, lo:m - 1] = LY[m:, lo + 1:m]
        St[lo:m - 1] = St[lo + 1:m]
        D[lo:m - 1] = D[lo + 1:m]
        LY[m:, m - 1] = y
        St[m - 1] = s
        LY[m - 1, lo:] = np.dot(s, LY[m:, lo:])
        LY[lo:m, m - 1] = 0.0
        D[m - 1] = sy
        theta = sum(map(mul, y, y)) / sy
        M1, M2 = LY[lo:, lo:], St[lo:]
        A = (M1 / D[lo:]) @ M1.T
        YDY = A[col:, col:].copy()
        A += theta * (M2 @ M2.T)
        try:
            Vt = np.linalg.cholesky(A)[col:, :col]
        except np.linalg.LinAlgError:
            self.clear()
            return
        self.theta = theta
        self.N = (Vt @ Vt.T - YDY).tolist()


def _cauchy(x, g, lo, hi, theta, N, iwhere):
    """Generalized Cauchy point: the first local minimiser of the quadratic
    model along the projected steepest-descent path x(t) = P(x - t g).

    The model's matrix is B = theta I - N.  Returns the point and
    N (xcp - x), accumulated along the path as scipy accumulates
    W'(xcp - x).  Sets iwhere[i] to 1 (2) for a variable held at its lower
    (upper) bound, -3 for one with zero gradient and 0 for a free one.
    """
    n = len(x)
    d = [0.0] * n
    f1 = 0.0
    breaks = []
    for i in range(n):
        neggi = -g[i]
        tl, tu = x[i] - lo[i], hi[i] - x[i]
        if tl <= 0.0:
            w = 1 if neggi <= 0.0 else 0
        elif tu <= 0.0:
            w = 2 if neggi >= 0.0 else 0
        else:
            w = -3 if abs(neggi) <= 0.0 else 0
        iwhere[i] = w
        if w == 0:
            d[i] = neggi
            f1 -= neggi * neggi
            breaks.append((tl / -neggi if neggi < 0.0 else tu / neggi, i))
    xcp = list(x)
    Nz = [0.0] * n
    if not breaks:
        return xcp, Nz
    Nd = [sum(map(mul, row, d)) for row in N]
    f2 = -theta * f1 - sum(map(mul, Nd, d))
    f2_org = f2
    dtm = _div(-f1, f2)
    tsum = tj = 0.0
    nleft = len(breaks)
    breaks.sort()
    for tb, ibp in breaks:
        tj0, tj = tj, tb
        dt = tj - tj0
        if dtm < dt:
            break
        tsum += dt
        nleft -= 1
        dibp = d[ibp]
        d[ibp] = 0.0
        if dibp > 0.0:
            zibp = hi[ibp] - x[ibp]
            xcp[ibp], iwhere[ibp] = hi[ibp], 2
        else:
            zibp = lo[ibp] - x[ibp]
            xcp[ibp], iwhere[ibp] = lo[ibp], 1
        Nz = [a + dt * b for a, b in zip(Nz, Nd)]
        if nleft == 0 and len(breaks) == n:
            return xcp, Nz
        # slope f1 and curvature f2 of the model along the new direction
        dibp2 = dibp * dibp
        f1 = f1 + dt * f2 + dibp2 - theta * dibp * zibp
        f2 = f2 - theta * dibp2
        wmc, wmp, wmw = Nz[ibp], Nd[ibp], N[ibp][ibp]
        Nd = [a - dibp * b for a, b in zip(Nd, N[ibp])]
        f1 = f1 + dibp * wmc
        f2 = f2 + 2.0 * dibp * wmp - dibp2 * wmw
        f2 = max(_EPS * f2_org, f2)
        dtm = _div(-f1, f2) if nleft > 0 else 0.0
    if dtm <= 0.0:
        dtm = 0.0
    tsum += dtm
    xcp = [tsum * di + xc for xc, di in zip(xcp, d)]
    Nz = [a + dtm * b for a, b in zip(Nz, Nd)]
    return xcp, Nz


def _subspace_step(x, g, xcp, Nz, free, lo, hi, theta, N):
    """Minimise the model over the variables free at the Cauchy point.

    Nz is N (xcp - x) from the Cauchy search.  The Newton step from xcp on
    the free variables is projected onto the box; if the projected point
    is not a descent direction from x, the step is instead truncated at the
    box (the version 3.0 rule).  Returns None when the reduced matrix is
    not positive definite.
    """
    r = [-theta * (xcp[i] - x[i]) - g[i] + Nz[i] for i in free]
    du = _spd_solve([[(theta if i == j else 0.0) - N[i][j] for j in free] for i in free], r)
    if du is None:
        return None
    z = list(xcp)
    hit = False
    for k, i in enumerate(free):
        z[i] = min(hi[i], max(lo[i], xcp[i] + du[k]))
        hit = hit or z[i] == lo[i] or z[i] == hi[i]
    if not hit or sum((zi - xi) * gi for zi, xi, gi in zip(z, x, g)) <= 0.0:
        return z
    alpha, ibd = _step_to_box(xcp, du, lo, hi, free, 1.0)
    z = list(xcp)
    if alpha < 1.0:
        i = free[ibd]
        z[i] = hi[i] if du[ibd] > 0.0 else lo[i]
        du[ibd] = 0.0
    for k, i in enumerate(free):
        z[i] += alpha * du[k]
    return z


def _spd_solve(A, b):
    """Solve A v = b by Gaussian elimination without pivoting (A small and
    symmetric, taken as nested lists; A and b are overwritten); None unless
    every pivot is positive, that is unless A is positive definite."""
    n = len(b)
    for k in range(n):
        rowk = A[k]
        p = rowk[k]
        if not p > 0.0:
            return None
        for i in range(k + 1, n):
            rowi = A[i]
            r = rowi[k] / p
            for j in range(k + 1, n):
                rowi[j] -= r * rowk[j]
            b[i] -= r * b[k]
    for k in range(n - 1, -1, -1):
        rowk = A[k]
        b[k] = (b[k] - sum(map(mul, rowk[k + 1:], b[k + 1:]))) / rowk[k]
    return b


def _div(a, b):
    """a / b with IEEE results where b is zero."""
    if b != 0.0:
        return a / b
    return math.nan if a == 0.0 or a != a else math.copysign(math.inf, a) * math.copysign(1.0, b)


def _sqrt(v):
    return math.sqrt(v) if v >= 0.0 else math.nan


class _Dcsrch:
    """MINPACK-2 dcsrch with L-BFGS-B's settings (ftol 1e-3, gtol 0.9,
    xtol 0.1, stpmin 0): a step meeting the strong Wolfe conditions.

    Construct it with f(0), f'(0) < 0, the first step and stpmax; then
    call it with each step and its f and f'.  It returns the next step and
    whether the search has ended (converged, or stopped with a warning at
    its best step).  ``error`` is set when the first step exceeds stpmax.
    A step where f or f' is not finite is not passed in: ``back_off`` gives
    the step to try instead (Nocedal & Wright, Numerical Optimization,
    ch. 3, safeguarded backtracking).
    """

    ftol, gtol, xtol = 1e-3, 0.9, 0.1
    backoff = 0.5

    def __init__(self, f, g, stp, stpmax):
        self.error = stp > stpmax
        self.stpmax = stpmax
        self.brackt = False
        self.stage = 1
        self.finit, self.ginit = f, g
        self.gtest = self.ftol * g
        self.width = stpmax
        self.width1 = self.width / 0.5
        self.stx, self.fx, self.gx = 0.0, f, g
        self.sty, self.fy, self.gy = 0.0, f, g
        self.stmin, self.stmax = 0.0, stp + 4.0 * stp

    def __call__(self, stp, f, g):
        ftest = self.finit + stp * self.gtest
        if self.stage == 1 and f <= ftest and g >= 0.0:
            self.stage = 2
        brackt = self.brackt
        if (brackt and (stp <= self.stmin or stp >= self.stmax)
                or brackt and self.stmax - self.stmin <= self.xtol * self.stmax
                or stp == self.stpmax and f <= ftest and g <= self.gtest
                or stp == 0.0 and (f > ftest or g >= self.gtest)
                or f <= ftest and abs(g) <= self.gtol * -self.ginit):
            return stp, True
        # in stage 1, below the best value but above the sufficient-decrease
        # line, the modified function psi(stp) = f - stp * gtest predicts the step
        shift = self.gtest if self.stage == 1 and f <= self.fx and f > ftest else 0.0
        stx, fxm, gxm, sty, fym, gym, stp, self.brackt = _dcstep(
            self.stx, self.fx - self.stx * shift, self.gx - shift,
            self.sty, self.fy - self.sty * shift, self.gy - shift,
            stp, f - stp * shift, g - shift, brackt, self.stmin, self.stmax)
        self.fx, self.fy = fxm + stx * shift, fym + sty * shift
        self.gx, self.gy = gxm + shift, gym + shift
        self.stx, self.sty = stx, sty
        if self.brackt:
            if abs(sty - stx) >= 0.66 * self.width1:
                stp = stx + 0.5 * (sty - stx)
            self.width1 = self.width
            self.width = abs(sty - stx)
            self.stmin, self.stmax = min(stx, sty), max(stx, sty)
        else:
            self.stmin = stp + 1.1 * (stp - stx)
            self.stmax = stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), self.stpmax)
        if self.brackt and (stp <= self.stmin or stp >= self.stmax
                            or self.stmax - self.stmin <= self.xtol * self.stmax):
            stp = stx
        return stp, False

    def back_off(self, stp):
        """The step to try after the untenable step stp: a fixed fraction of
        the way from the best step so far, which becomes the longest step the
        search may take when stp lies beyond it."""
        stp = self.stx + self.backoff * (stp - self.stx)
        if stp > self.stx:
            self.stpmax = stp
        return stp


def _cubic(fa, fb, dt, da, db):
    """theta, s and r of dcstep's cubic through two steps dt apart, with
    values fa, fb and slopes da, db: theta = 3 (fa - fb) / dt + da + db,
    and gamma = +-s sqrt(r) with the radicand theta^2 - da db scaled to r
    by s = max(|theta|, |da|, |db|) against overflow."""
    theta = 3.0 * (fa - fb) / dt + da + db
    s = max(abs(theta), abs(da), abs(db))
    return theta, s, (theta / s) ** 2 - (da / s) * (db / s)


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 dcstep: a safeguarded cubic or quadratic step, and the
    update of the interval (stx, sty) that brackets a step meeting the
    Wolfe conditions."""
    opposite = (dp < 0.0 < dx) or (dx < 0.0 < dp)
    if fp > fx:
        # a higher function value: the minimum is bracketed
        theta, s, r = _cubic(fx, fp, stp - stx, dx, dp)
        gamma = (-s if stp < stx else s) * _sqrt(r)
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + _div(p, q) * (stp - stx)
        stpq = stx + (_div(dx, (fx - fp) / (stp - stx) + dx) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # a lower value and derivatives of opposite sign: bracketed
        theta, s, r = _cubic(fx, fp, stp - stx, dx, dp)
        gamma = (-s if stp > stx else s) * _sqrt(r)
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + _div(p, q) * (stx - stp)
        stpq = stp + _div(dp, dp - dx) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # a lower value, same-sign derivatives, and the slope decreases
        theta, s, r = _cubic(fx, fp, stp - stx, dx, dp)
        gamma = (-s if stp > stx else s) * math.sqrt(max(0.0, r))   # 0 where no real root
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = _div(p, q)
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + _div(dp, dp - dx) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif brackt:
        # a lower value, same-sign derivatives, the slope does not decrease
        theta, s, r = _cubic(fp, fy, sty - stp, dy, dp)
        gamma = (-s if stp > sty else s) * _sqrt(r)
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + _div(p, q) * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


# ---------------------------------------------------------------------------
# one-dimensional: bounded Brent minimiser and Brent's root finder
# ---------------------------------------------------------------------------

def minimize_scalar_bounded(func, lo, hi, xatol):
    """Minimiser of func on [lo, hi]: scipy's ``minimize_scalar(method="bounded")``.

    Brent's golden-section search with parabolic interpolation, ported
    operation for operation from scipy's ``_minimize_scalar_bounded``.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > (tol2 - 0.5 * (b - a)):
            break
        golden = True
        if abs(e) > tol1:          # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign1(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + _sign1(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        if num >= _BRENT_MAX_ITER:
            break
    return xf


def _sign1(v):
    """numpy's sign(v) + (v == 0): -1 for negative v, else 1."""
    return -1.0 if v < 0.0 else 1.0


def brentq(f, a, b, xtol=2e-12, maxiter=100):
    """Root of f in [a, b], where f(a) and f(b) differ in sign: scipy's ``brentq``.

    Brent's method, ported operation for operation from scipy's C brentq.
    Raises ValueError when f(a) and f(b) have the same sign or f returns
    NaN, and RuntimeError when maxiter iterations do not converge.
    """
    def call(x):
        v = float(f(x))
        if v != v:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return v

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), _BRENTQ_RTOL
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                                      # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:                                                 # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry                           # good short step
            else:
                spre = scur = sbis                                # bisect
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")
