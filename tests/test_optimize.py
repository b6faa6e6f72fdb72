"""The package's optimisers against scipy.optimize, which serves as the oracle.

The one-dimensional ports (bounded Brent, brentq) must return scipy's
results bit for bit.  L-BFGS-B must reach known minimisers, keep scipy's
result contract, and give ``fit`` the optimum scipy's L-BFGS-B gives it.
"""

import math

import numpy as np
import pytest
import scipy.optimize as sp

from egwgd import AARSET, Dataset, FitConfig, fit, sample
from egwgd import distribution as dist
from egwgd import estimation, optimize, submodels
from egwgd.numerics import find_root_increasing
from egwgd.optimize import _Dcsrch, _lbfgsb, _lockstep, brentq, minimize, minimize_scalar_bounded
from conftest import random_params

# Aarset and three samples of laws drawn as the property tests draw them
SAMPLES = [np.asarray(AARSET, dtype=float)] + [
    sample(random_params(np.random.default_rng(seed)), n, seed)
    for seed, n in ((3, 40), (5, 200), (8, 1000))]


def scipy_bounded(func, lo, hi, xatol=1e-5, maxiter=500):
    r = sp.minimize_scalar(func, bounds=(lo, hi), method="bounded",
                           options={"xatol": xatol, "maxiter": maxiter})
    return r.x


class TestBoundedBrent:
    @pytest.mark.parametrize("kind", ["ged", "gd", "iw", "giw", "egiw"])
    @pytest.mark.parametrize("k", range(len(SAMPLES)))
    def test_competitor_fits_are_scipys(self, kind, k, monkeypatch):
        ours = submodels.fit_competitor(kind, SAMPLES[k])
        monkeypatch.setattr(submodels, "minimize_scalar_bounded", scipy_bounded)
        assert ours == submodels.fit_competitor(kind, SAMPLES[k])

    @pytest.mark.parametrize("xatol", [1e-5, 1e-12])
    def test_functions_with_flat_and_kinked_minima(self, xatol):
        for f, lo, hi in [(lambda x: (x - 0.3) ** 4, -1.0, 2.0),
                          (lambda x: abs(x - math.pi), 0.0, 10.0),
                          (lambda x: math.cos(x), 0.0, 2.0 * math.pi),
                          (lambda x: x, 1.0, 2.0)]:
            assert (minimize_scalar_bounded(f, lo, hi, xatol=xatol)
                    == scipy_bounded(f, lo, hi, xatol=xatol))

    def test_iteration_cap(self, monkeypatch):
        f = lambda x: (x - 0.3) ** 2   # noqa: E731
        monkeypatch.setattr(optimize, "_BRENT_MAX_ITER", 3)
        assert minimize_scalar_bounded(f, 0.0, 1.0, 1e-5) == scipy_bounded(f, 0.0, 1.0, maxiter=3)


class TestBrentq:
    @pytest.mark.parametrize("k", range(len(SAMPLES)))
    def test_anchors_are_scipys(self, k, monkeypatch):
        ours = estimation._anchors(SAMPLES[k], 8)
        monkeypatch.setattr(estimation, "brentq", sp.brentq)
        monkeypatch.setattr(submodels, "minimize_scalar_bounded", scipy_bounded)
        assert ours == estimation._anchors(SAMPLES[k], 8)

    def test_roots_at_find_root_increasings_settings(self, monkeypatch):
        import egwgd.optimize

        # quantiles through the CDF, and points of given -log R(x)
        laws = [random_params(np.random.default_rng(seed)) for seed in range(12)]
        cases = [(dist.cdf, law, q) for law in laws for q in (1e-9, 1e-4, 0.1, 0.5, 0.9, 1 - 1e-6)]
        cases += [(dist.log_survival, law, -h) for law in laws for h in (1e-6, 1.0, 30.0)]

        def roots():
            return [find_root_increasing(lambda x: fn(law, x) if fn is dist.cdf else -fn(law, x),
                                         abs(q))
                    for fn, law, q in cases]

        ours = roots()
        monkeypatch.setattr(egwgd.optimize, "brentq", sp.brentq)
        assert ours == roots()

    def test_errors(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.2 else x - 0.5, 0.0, 1.0)
        with pytest.raises(RuntimeError, match="converge"):
            brentq(lambda x: (x - 0.3) ** 5, 0.0, 1.0, maxiter=2)

    def test_endpoint_roots(self):
        assert brentq(lambda x: x, 0.0, 1.0) == 0.0
        assert brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def rosenbrock(x):
    """n-dimensional Rosenbrock function and its gradient."""
    t = x[1:] - x[:-1] ** 2
    f = float(np.sum(100.0 * t * t + (1.0 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * t
    return f, g


# the L-BFGS-B settings, fit's, as scipy's options
TIGHT = {"maxiter": optimize._LBFGSB_MAX_ITER, "ftol": optimize._LBFGSB_FTOL,
         "gtol": optimize._LBFGSB_GTOL}


class TestLbfgsb:
    def test_box_constrained_rosenbrock(self):
        # with x <= 0.5, the minimiser of (1 - x)^2 + 100 (y - x^2)^2 is (0.5, 0.25)
        r = minimize(rosenbrock, np.array([-1.2, 1.0]),
                     bounds=[(-1.5, 0.5), (-1.5, 2.0)])
        assert np.allclose(r.x, [0.5, 0.25], rtol=0.0, atol=1e-9)
        assert r.message.startswith("CONVERGENCE")

    def test_rosenbrock_interior_minimum(self):
        r = minimize(rosenbrock, np.array([-1.2, 1.0, -0.5, 0.3]),
                     bounds=[(-2.0, 2.0)] * 4)
        assert np.allclose(r.x, 1.0, rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_quadratic_with_active_bounds(self, seed):
        # a diagonal quadratic's minimiser over a box is its centre clipped to the box
        rng = np.random.default_rng(seed)
        h = np.exp(rng.uniform(-4.0, 4.0, 4))
        c = rng.normal(0.0, 2.0, 4)
        lo, hi = rng.uniform(-2.0, -0.5, 4), rng.uniform(0.5, 2.0, 4)

        def f(x):
            return 0.5 * float(np.sum(h * (x - c) ** 2)), h * (x - c)

        r = minimize(f, rng.uniform(lo, hi), bounds=list(zip(lo, hi)))
        assert np.allclose(r.x, np.clip(c, lo, hi), rtol=0.0, atol=1e-8)
        assert np.any((c < lo) | (c > hi))   # some bound is active

    def test_result_is_the_objectives_value_at_x(self, monkeypatch):
        calls = []

        def f(x):
            calls.append((x.copy(), *rosenbrock(x)))
            return calls[-1][1:]

        monkeypatch.setattr(optimize, "_LBFGSB_MAX_ITER", 7)
        r = minimize(f, np.array([0.3, -0.4, 0.8]), bounds=[(-1.0, 1.0)] * 3)
        assert r.nit == 7 and r.message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
        assert r.nfev == len(calls)
        x, fx, gx = next(c for c in reversed(calls) if np.array_equal(c[0], r.x))
        assert r.fun == fx and r.jac is gx

    def test_failed_line_search_returns_the_last_iterate(self):
        # the gradient points uphill, so no step decreases f: scipy's ABNORMAL
        def f(x):
            return float(x @ x), -2.0 * x

        x0 = np.array([0.5, -0.25])
        r = minimize(f, x0, bounds=[(-1.0, 1.0)] * 2)
        assert r.message.startswith("ABNORMAL")
        assert np.array_equal(r.x, x0) and r.fun == f(x0)[0] and r.nit == 0

    def test_start_is_clipped_into_the_box(self):
        r = minimize(rosenbrock, np.array([5.0, -5.0]),
                     bounds=[(-1.5, 0.5), (-1.5, 2.0)])
        assert np.allclose(r.x, [0.5, 0.25], rtol=0.0, atol=1e-9)

    def test_backs_off_from_an_untenable_step(self):
        # the first step from -1 lands at 2, where f is not finite; the
        # search halves it, which lands on the minimiser 0.5
        trials = []

        def f(x):
            trials.append(float(x[0]))
            if x[0] > 1.0:
                return math.inf, np.array([math.nan])
            return float((x[0] - 0.5) ** 2), 2.0 * (x - 0.5)

        r = minimize(f, np.array([-1.0]), bounds=[(-2.0, 3.0)])
        assert trials == [-1.0, 2.0, 0.5]
        assert r.x[0] == 0.5 and r.message.startswith("CONVERGENCE") and r.nit == 1

    def test_a_backed_off_step_caps_the_search(self):
        # after an untenable unit step the search tries half of it, and a
        # descent there ends the search instead of stepping out again
        search = _Dcsrch(0.0, -1.0, 1.0, 10.0)
        assert search.back_off(1.0) == 0.5
        assert search(0.5, -0.5, -1.0) == (0.5, True)

    @pytest.mark.parametrize("f0", [math.inf, math.nan, 1.0])
    def test_an_untenable_start_ends_the_run(self, f0):
        # a non-finite value or gradient at the start ends the run at once
        r = minimize(lambda x: (f0, np.array([math.inf, 0.0])), np.zeros(2),
                     bounds=[(-1.0, 1.0)] * 2)
        assert r.message.startswith("ABNORMAL") and r.nfev == 1 and r.nit == 0

    def test_reaches_the_minimiser_past_untenable_steps(self):
        # Rosenbrock's function, undefined above y = 1.1, where some of the
        # search's steps land: the run still reaches the minimiser (1, 1)
        seen = []

        def f(x):
            if x[1] > 1.1:
                return math.inf, np.full(2, math.nan)
            seen.append(x.copy())
            return rosenbrock(x)

        r = minimize(f, np.array([-1.2, 1.0]), bounds=[(-2.0, 2.0)] * 2)
        assert len(seen) < r.nfev   # some trials were untenable
        assert np.isfinite(r.fun) and np.allclose(r.x, 1.0, rtol=0.0, atol=1e-6)

    def test_only_lbfgsb_and_finite_boxes(self):
        with pytest.raises(ValueError, match="bounds"):
            minimize(rosenbrock, np.zeros(2), bounds=[(-1, 1), (0, math.inf)])

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_scipy_on_bounded_problems(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(4, 4))
        h = q @ q.T + 0.1 * np.eye(4)
        c = rng.normal(0.0, 2.0, 4)

        def f(x):
            dx = x - c
            v = float(dx @ h @ dx)
            return 0.5 * v + 0.1 * v * v, (1.0 + 0.4 * v) * (h @ dx)

        bounds = list(zip(rng.uniform(-2.0, -0.5, 4), rng.uniform(0.5, 2.0, 4)))
        x0 = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
        ours = minimize(f, x0, bounds=bounds)
        ref = sp.minimize(f, x0, jac=True, method="L-BFGS-B", bounds=bounds, options=TIGHT)
        assert abs(ours.fun - ref.fun) <= 1e-12 * max(1.0, abs(ref.fun))
        assert np.allclose(ours.x, ref.x, rtol=0.0, atol=1e-6)


def _asks(points):
    """A toy run: it asks for each point in turn and returns what it was sent."""
    got = []
    for p in points:
        f, g = yield np.array(p, dtype=float)
        got.append((float(f), np.asarray(g).tolist()))
    return got


def _double(block):
    """The toy objective: f is the row's sum and the gradient twice the row."""
    return block.sum(axis=1), 2.0 * block


class TestLockstep:
    def test_each_block_holds_the_unfinished_runs_points_in_run_order(self):
        blocks = []

        def evaluate(block):
            blocks.append(block.tolist())
            return _double(block)

        runs = [_asks([[1.0], [2.0]]), _asks([[10.0]]), _asks([[100.0], [200.0], [300.0]])]
        _lockstep(runs, evaluate)
        assert blocks == [[[1.0], [10.0], [100.0]], [[2.0], [200.0]], [[300.0]]]

    def test_results_come_back_in_input_order(self):
        # the runs finish third, first, second; each is sent its own rows
        runs = [_asks([[3.0], [4.0], [5.0]]), _asks([[6.0]]), _asks([[7.0], [8.0]])]
        assert _lockstep(runs, _double) == [
            [(3.0, [6.0]), (4.0, [8.0]), (5.0, [10.0])],
            [(6.0, [12.0])],
            [(7.0, [14.0]), (8.0, [16.0])],
        ]

    def test_a_run_that_returns_after_its_first_point(self):
        assert _lockstep([_asks([[1.5, 2.0]])], _double) == [[(3.5, [3.0, 4.0])]]

    def test_minimize_is_a_pool_of_one(self):
        x0, bounds = np.array([-1.2, 1.0, -0.5, 0.3]), [(-2.0, 2.0)] * 4
        ours = minimize(rosenbrock, x0, bounds)
        lo, hi = map(list, zip(*bounds))

        def evaluate(block):
            rows = [rosenbrock(u) for u in block]
            return [f for f, _ in rows], [g for _, g in rows]

        [alone] = _lockstep([_lbfgsb(x0, lo, hi)], evaluate)
        np.testing.assert_array_equal(ours.x, alone.x)
        assert (ours.fun, ours.nfev, ours.nit, ours.message) == (
            alone.fun, alone.nfev, alone.nit, alone.message)


def finite(value_grad):
    """value_grad with a finite stand-in where a point is untenable, for
    scipy, whose line search does not back off from non-finite values."""
    def fun(u):
        f, g = value_grad(u)
        return (f, g) if np.isfinite(f) and np.all(np.isfinite(g)) else (1e13, np.zeros(4))
    return fun


@pytest.mark.parametrize("law", range(3))
@pytest.mark.parametrize("n", [30, 100])
def test_fit_reaches_scipys_optimum(law, n):
    # laws and samples of the 72-law sweep (seed 1); scipy's L-BFGS-B runs
    # from each of fit's starts on fit's objective, with fit's settings
    rng = np.random.default_rng(1)
    p = [random_params(rng) for _ in range(8)][law]
    data = Dataset(sample(p, n, 1000 + 10 * law + n))
    ours = fit(data, FitConfig())
    lo, hi = np.log(estimation._BOX).T
    fun = finite(estimation._Objective(data).value_grad)
    ref = min(sp.minimize(fun, np.clip(np.log(anchor), lo, hi), jac=True, method="L-BFGS-B",
                          bounds=list(zip(lo, hi)), options=TIGHT).fun
              for anchor in estimation._anchors(data.values, 8))
    assert ours.converged
    assert abs(-ours.loglik - ref) <= 1e-9 * abs(ref)
