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
from egwgd import estimation, submodels
from egwgd.numerics import find_root_increasing
from egwgd.optimize import brentq, minimize, minimize_scalar_bounded
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

    def test_iteration_cap(self):
        f = lambda x: (x - 0.3) ** 2   # noqa: E731
        assert minimize_scalar_bounded(f, 0.0, 1.0, maxiter=3) == scipy_bounded(f, 0.0, 1.0, maxiter=3)


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


TIGHT = {"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12}


class TestLbfgsb:
    def test_box_constrained_rosenbrock(self):
        # with x <= 0.5, the minimiser of (1 - x)^2 + 100 (y - x^2)^2 is (0.5, 0.25)
        r = minimize(rosenbrock, np.array([-1.2, 1.0]), method="L-BFGS-B",
                     bounds=[(-1.5, 0.5), (-1.5, 2.0)], options=TIGHT)
        assert np.allclose(r.x, [0.5, 0.25], rtol=0.0, atol=1e-9)
        assert r.message.startswith("CONVERGENCE")

    def test_rosenbrock_interior_minimum(self):
        r = minimize(rosenbrock, np.array([-1.2, 1.0, -0.5, 0.3]), method="L-BFGS-B",
                     bounds=[(-2.0, 2.0)] * 4, options=TIGHT)
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

        r = minimize(f, rng.uniform(lo, hi), method="L-BFGS-B", bounds=list(zip(lo, hi)),
                     options=TIGHT)
        assert np.allclose(r.x, np.clip(c, lo, hi), rtol=0.0, atol=1e-8)
        assert np.any((c < lo) | (c > hi))   # some bound is active

    def test_result_is_the_objectives_value_at_x(self):
        calls = []

        def f(x):
            calls.append((x.copy(), *rosenbrock(x)))
            return calls[-1][1:]

        r = minimize(f, np.array([0.3, -0.4, 0.8]), method="L-BFGS-B",
                     bounds=[(-1.0, 1.0)] * 3, options={"maxiter": 7})
        assert r.nit == 7 and r.message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
        assert r.nfev == len(calls)
        x, fx, gx = next(c for c in reversed(calls) if np.array_equal(c[0], r.x))
        assert r.fun == fx and r.jac is gx

    def test_failed_line_search_returns_the_last_iterate(self):
        # the gradient points uphill, so no step decreases f: scipy's ABNORMAL
        def f(x):
            return float(x @ x), -2.0 * x

        x0 = np.array([0.5, -0.25])
        r = minimize(f, x0, method="L-BFGS-B", bounds=[(-1.0, 1.0)] * 2)
        assert r.message.startswith("ABNORMAL")
        assert np.array_equal(r.x, x0) and r.fun == f(x0)[0] and r.nit == 0

    def test_start_is_clipped_into_the_box(self):
        r = minimize(rosenbrock, np.array([5.0, -5.0]), method="L-BFGS-B",
                     bounds=[(-1.5, 0.5), (-1.5, 2.0)], options=TIGHT)
        assert np.allclose(r.x, [0.5, 0.25], rtol=0.0, atol=1e-9)

    def test_only_lbfgsb_and_finite_boxes(self):
        with pytest.raises(ValueError, match="L-BFGS-B"):
            minimize(rosenbrock, np.zeros(2), method="Nelder-Mead", bounds=[(-1, 1)] * 2)
        with pytest.raises(ValueError, match="bounds"):
            minimize(rosenbrock, np.zeros(2), method="L-BFGS-B", bounds=[(-1, 1), (0, math.inf)])

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
        ours = minimize(f, x0, method="L-BFGS-B", bounds=bounds, options=TIGHT)
        ref = sp.minimize(f, x0, jac=True, method="L-BFGS-B", bounds=bounds, options=TIGHT)
        assert abs(ours.fun - ref.fun) <= 1e-12 * max(1.0, abs(ref.fun))
        assert np.allclose(ours.x, ref.x, rtol=0.0, atol=1e-6)


def scipy_lbfgsb(fun, x0, *, method, bounds, options):
    return sp.minimize(fun, x0, jac=True, method=method, bounds=bounds, options=options)


@pytest.mark.parametrize("law", range(3))
@pytest.mark.parametrize("n", [30, 100])
def test_fit_reaches_scipys_optimum(law, n, monkeypatch):
    # laws and samples of the 72-law sweep (seed 1)
    rng = np.random.default_rng(1)
    p = [random_params(rng) for _ in range(8)][law]
    data = Dataset(sample(p, n, 1000 + 10 * law + n))
    ours = fit(data, FitConfig())
    monkeypatch.setattr(estimation, "minimize", scipy_lbfgsb)
    ref = fit(data, FitConfig())
    assert ours.converged and ref.converged
    assert abs(ours.loglik - ref.loglik) <= 1e-9 * abs(ref.loglik)
