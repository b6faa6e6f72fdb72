import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from egwgd import loglik, numerics
from egwgd.exceptions import (
    BracketError,
    InvalidIntegrandError,
    QuadratureAccuracyError,
    StencilError,
)
from egwgd.numerics import find_root_increasing, integrate, numerical_hessian
from conftest import PRINTED_MLE

# 100-point Gauss-Legendre value of int_0^inf x e^-x dx on the u/(1-u)
# transform, computed independently before the adaptive engine existed
GL100_X_EXP = 1.0000000000000042
# fixed-point iterate of x = (x + ln(1/x))/2 for x e^x = 1
LAMBERT_POINT = 0.5671432904097838


class TestIntegrate:
    def test_constant(self):
        assert_allclose(integrate(np.ones_like, 0.0, 1.0), 1.0, rtol=1e-12)

    def test_exponential_halfline(self):
        assert_allclose(integrate(lambda x: np.exp(-x), 0.0, math.inf), 1.0,
                        rtol=1e-10)

    def test_x_exp_against_fixed_rule_oracle(self):
        val = integrate(lambda x: x * np.exp(-x), 0.0, math.inf)
        assert abs(val - GL100_X_EXP) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            a0, a1, b0, b1 = rng.uniform(0.2, 2.0, size=4)
            alpha, beta = rng.uniform(-3.0, 3.0, size=2)
            f = lambda x: a0 * np.exp(-a1 * x)
            g = lambda x: b0 * x * np.exp(-b1 * x)
            combo = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, math.inf)
            parts = alpha * integrate(f, 0.0, math.inf) + beta * integrate(g, 0.0, math.inf)
            assert_allclose(combo, parts, rtol=1e-8, atol=1e-10)

    def test_tiny_integral_to_relative_accuracy(self):
        # an absolute tolerance of 1e-12 would accept an answer off by 100%
        val = integrate(lambda x: 1e-20 * np.exp(-(x - 50.0) ** 2), 0.0, math.inf)
        assert_allclose(val, 1e-20 * math.sqrt(math.pi), rtol=1e-12)

    def test_nan_integrand(self):
        with pytest.raises(InvalidIntegrandError):
            integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)

    def test_accuracy_failure_carries_estimate(self):
        # too oscillatory to resolve within the 2000-interval budget
        with pytest.raises(QuadratureAccuracyError) as err:
            integrate(lambda x: np.sin(200.0 * x) ** 2 / np.sqrt(x), 1e-9, 1e6)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0.0

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            integrate(np.ones_like, 0.0, math.inf, scale=0.0)
        with pytest.raises(ValueError):
            integrate(np.ones_like, 1.0, 0.0)


class TestFindRoot:
    def test_identity(self):
        assert_allclose(find_root_increasing(lambda x: x, 2.0), 2.0, rtol=1e-12)

    def test_expm1(self):
        assert_allclose(find_root_increasing(lambda x: math.expm1(x), 1.0),
                        math.log(2.0), rtol=1e-12)

    def test_lambert_point(self):
        root = find_root_increasing(lambda x: x * math.exp(x), 1.0)
        assert abs(root - LAMBERT_POINT) < 1e-12

    def test_round_trip_random_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q, r = rng.uniform(0.1, 3.0, size=3)
            g = lambda x: p * x + q * x ** 3 + r * math.log1p(x)
            target = float(rng.uniform(0.01, 50.0))
            x = find_root_increasing(g, target)
            assert abs(g(x) - target) < 1e-9 * max(1.0, abs(target))

    def test_target_below_range(self):
        with pytest.raises(BracketError):
            find_root_increasing(lambda x: math.exp(x), -1.0)

    def test_target_above_range(self):
        with pytest.raises(BracketError):
            find_root_increasing(lambda x: math.atan(x), 2.0)


class TestNumericalHessian:
    def test_quadratic(self):
        H = numerical_hessian(lambda p: float(np.sum(p ** 2)), np.ones(5))
        assert_allclose(H, 2.0 * np.eye(5), rtol=1e-6, atol=1e-6)

    def test_bilinear(self):
        H = numerical_hessian(lambda p: p[0] * p[1], np.ones(5))
        expected = np.zeros((5, 5))
        expected[0, 1] = expected[1, 0] = 1.0
        assert_allclose(H, expected, rtol=1e-6, atol=1e-7)

    def test_polynomial_six_digits(self):
        # f = p0^3 p1 + 2 p2^2 p3 - p4^2; analytic Hessian known exactly
        def f(p):
            return p[0] ** 3 * p[1] + 2.0 * p[2] ** 2 * p[3] - p[4] ** 2

        pt = np.array([1.3, 0.7, 0.9, 1.1, 0.6])
        H = numerical_hessian(f, pt)
        expected = np.zeros((5, 5))
        expected[0, 0] = 6.0 * pt[0] * pt[1]
        expected[0, 1] = expected[1, 0] = 3.0 * pt[0] ** 2
        expected[2, 2] = 4.0 * pt[3]
        expected[2, 3] = expected[3, 2] = 4.0 * pt[2]
        expected[4, 4] = -2.0
        assert_allclose(H, expected, rtol=1e-6, atol=1e-6)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(3)

        def f(p):
            return float(np.sum(np.exp(0.3 * p) * p ** 2))

        H = numerical_hessian(f, rng.uniform(0.5, 2.0, size=5))
        assert np.array_equal(H, H.T)

    def test_loglik_hessian_step_halving(self, aarset_data, monkeypatch):
        def negL(v):
            from egwgd.distribution import EgwgParams
            return -loglik(EgwgParams(*v), aarset_data)

        pt = np.array([PRINTED_MLE.a, PRINTED_MLE.b, PRINTED_MLE.c,
                       PRINTED_MLE.d, PRINTED_MLE.theta])
        H1 = numerical_hessian(negL, pt)
        monkeypatch.setattr(numerics, "_STEP_SCALE", numerics._STEP_SCALE / 2.0)
        H2 = numerical_hessian(negL, pt)
        scale = np.maximum(np.abs(H2), 1e-12)
        assert np.max(np.abs(H1 - H2) / scale) < 5e-4   # 3+ significant digits

    def test_stencil_failure_names_coordinate(self):
        def f(p):
            with np.errstate(invalid="ignore"):
                return float(np.sqrt(p[1] - 0.99995))   # nan once the stencil crosses

        # steps of 1e-4 at p = 1: p[1] - h = 0.9999 lies outside the domain
        with pytest.raises(StencilError) as err:
            numerical_hessian(f, np.ones(3))
        assert err.value.coordinate == 1
