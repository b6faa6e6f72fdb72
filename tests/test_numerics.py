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


class TestBatchedIntegrate:
    def test_monomials_are_exact_on_each_interval(self):
        lo = np.array([0.0, 0.5, 1.0, 2.0, -3.0])
        hi = np.array([1.0, 0.75, 4.0, 2.001, -1.0])
        for k in range(20):
            got = integrate(lambda x: x ** k, lo, hi)
            want = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            assert got.shape == lo.shape
            assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=f"degree {k}")

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0),          # splits towards 0 for 60 rounds
        (lambda x: np.sin(30.0 * x) ** 2, 1e-9, 10.0),
        (lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0),
        (lambda x: np.exp(-x), 0.1, 0.2),
    ])
    def test_a_batch_of_one_is_the_scalar_call_bit_for_bit(self, f, lo, hi):
        got = integrate(f, np.array([lo]), np.array([hi]))
        assert got.shape == (1,)
        assert got[0].tobytes() == np.float64(integrate(f, lo, hi)).tobytes()

    def test_each_integral_meets_its_own_tolerance(self):
        # values 13 decades apart, one needing many rounds: each is held to
        # 1e-10 of its own value, as when integrated alone
        f = lambda x: 1.0 / np.sqrt(x)
        lo, hi = np.array([0.0, 1.0, 4e26]), np.array([1.0, 4.0, 9e26])
        got = integrate(f, lo, hi)
        alone = [integrate(f, a, b) for a, b in zip(lo, hi)]
        assert_allclose(got, alone, rtol=1e-14, atol=0.0)
        assert_allclose(got, 2.0 * (np.sqrt(hi) - np.sqrt(lo)), rtol=1e-10, atol=0.0)

    def test_the_batch_calls_the_integrand_once_per_round(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return 1.0 / np.sqrt(x)

        integrate(f, np.array([0.0, 2.0]), np.array([1.0, 3.0]))
        # round 0 holds both intervals; after that only (0, 1) is open
        assert calls[0] == 2 * 21 and all(n % 21 == 0 for n in calls)
        alone = []
        integrate(lambda x: alone.append(x.size) or 1.0 / np.sqrt(x), 0.0, 1.0)
        assert len(calls) == len(alone)

    def test_empty_batch(self):
        got = integrate(np.ones_like, np.array([]), np.array([]))
        assert got.shape == (0,)

    def test_nan_names_the_interval(self):
        with pytest.raises(InvalidIntegrandError, match=r"on \[4\.0, 6\.0\] \(interval 1 of"):
            integrate(lambda x: np.where(x > 5.0, np.nan, 1.0),
                      np.array([0.0, 4.0]), np.array([1.0, 6.0]))

    def test_accuracy_failure_names_the_interval(self):
        with pytest.raises(QuadratureAccuracyError,
                           match=r"on \[1e-09, 1000000\.0\] \(interval 1 of") as err:
            integrate(lambda x: np.sin(200.0 * x) ** 2 / np.sqrt(x),
                      np.array([0.0, 1e-9]), np.array([1.0, 1e6]))
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0.0

    @pytest.mark.parametrize("lo, hi", [
        (np.array([0.0, 1.0]), np.array([1.0])),          # lengths differ
        (np.zeros((2, 2)), np.ones((2, 2))),               # not 1-d
        (np.array([0.0]), np.array([math.inf])),           # not finite
        (np.array([0.0, 2.0]), np.array([1.0, 1.0])),      # out of order
    ])
    def test_bad_limits(self, lo, hi):
        with pytest.raises(ValueError):
            integrate(np.ones_like, lo, hi)


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
