import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from egwgd import (
    EgwgParams,
    cdf,
    hazard,
    integrate,
    log_cdf,
    log_pdf,
    log_survival,
    median,
    mode,
    order_stat_pdf,
    pdf,
    quantile,
    reversed_hazard,
    sample,
    survival,
)
from egwgd import distribution
from egwgd.distribution import _batch_quantile, _log_target
from egwgd.exceptions import (
    BracketError,
    DomainError,
    EgwgError,
    InvalidParametersError,
    LeftTailUnderflowError,
    TailOverflowError,
)
from egwgd.gof import ks_statistic
from conftest import BOX_LAWS, FIT_BOX_LAWS, random_params

GOMPERTZ = EgwgParams(1.0, 0.0, 1.0, 1.0, 1.0)
LN2 = math.log(2.0)

# the benchmark's bathtub, increasing and decreasing hazards and its
# recovery truth
BENCH_PARAMS = [
    EgwgParams(0.000085, 0.128, 0.401, 0.69901, 0.246),
    EgwgParams(0.5, 0.2, 0.3, 0.5, 1.5),
    EgwgParams(3.0, 0.1, 0.5, 0.3, 0.6),
    EgwgParams(0.001, 0.5, 0.3, 0.8, 0.5),
]

# theta < 1 law whose c x^d underflows to 0 at its F = 1e-300 point, x = 1.57e-151
UNDERFLOW_LAW = EgwgParams(3.8493535490808457e-4, 1.627668684951657, 0.2417870420636666,
                           2.370463612209023, 0.4942615254589158)


def _small_z_clamp_v(p):
    """log x where F = 1e-300, from log F = theta (log a + log c + (b + d) log x)."""
    return (math.log(1e-300) / p.theta - math.log(p.a * p.c)) / (p.b + p.d)


def clamp_point(p):
    """x where F = 1e-300, below which log f is clamped when theta < 1, or None
    where that point is outside the floating-point range."""
    v = _small_z_clamp_v(p)
    if p.theta < 1.0 and v > -600.0:
        return quantile(p, 1e-300)
    return None


def params_and_points():
    """(p, x): the benchmark laws and random ones, each at 40 quantile points
    plus, for theta < 1 where it exists, points around the clamp point."""
    rng = np.random.default_rng(31)
    for p in BENCH_PARAMS + [random_params(rng) for _ in range(20)]:
        xs = [quantile(p, float(q)) for q in np.geomspace(1e-6, 0.999, 40)]
        xc = clamp_point(p)
        if xc is not None:
            xs += [xc * 1e-9, xc * 0.5, xc, xc * 2.0]
        yield p, np.array(xs)


def clamp_laws():
    """(p, clamp point) for theta < 1 laws where the clamp point exists."""
    rng = np.random.default_rng(32)
    laws = [EgwgParams(1.0, 2.0, 1.0, 2.0, 0.5), EgwgParams(0.5, 3.0, 0.2, 1.5, 0.9)]
    laws += [random_params(rng) for _ in range(200)]
    for p in laws:
        xc = clamp_point(p)
        if xc is not None:
            yield p, xc


LEFT_TAIL_QUANTILES = np.array([1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5])


def assert_matches_scalar_calls(fn, p, xs):
    got = np.atleast_1d(fn(p, np.asarray(xs)))
    assert all(g == fn(p, float(x)) for g, x in zip(got, xs))


class TestParams:
    @pytest.mark.parametrize("bad", [
        dict(a=0.0), dict(a=-1.0), dict(c=0.0), dict(d=-2.0),
        dict(theta=0.0), dict(b=-0.1), dict(a=math.nan), dict(d=math.inf),
    ])
    def test_invalid(self, bad):
        kw = dict(a=1.0, b=0.5, c=1.0, d=1.0, theta=1.0)
        kw.update(bad)
        with pytest.raises(InvalidParametersError):
            EgwgParams(**kw)

    def test_b_zero_is_legal(self):
        assert EgwgParams(1.0, 0.0, 1.0, 1.0, 1.0).b == 0.0

    def test_json_round_trip(self):
        p = EgwgParams(0.000085, 0.128, 0.401, 0.69901, 0.246)
        assert EgwgParams.from_dict(p.to_dict()) == p

    def test_missing_field(self):
        with pytest.raises(InvalidParametersError):
            EgwgParams.from_dict({"a": 1.0, "b": 0.0})


class TestCdf:
    def test_gompertz_closed_form(self):
        assert_allclose(cdf(GOMPERTZ, LN2), 1.0 - math.exp(-1.0), rtol=1e-14)

    def test_zero_at_origin(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_params(rng)
            assert cdf(p, 0.0) == 0.0
            xs = [0.0, quantile(p, 0.3), quantile(p, 0.8)]
            assert log_cdf(p, xs)[0] == -math.inf
            assert_matches_scalar_calls(log_cdf, p, xs)
            assert_matches_scalar_calls(cdf, p, xs)

    def test_negative_domain(self):
        with pytest.raises(DomainError):
            cdf(GOMPERTZ, -0.5)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_params(rng)
            grid = np.geomspace(quantile(p, 1e-4), quantile(p, 1.0 - 1e-4), 200)
            F = np.atleast_1d(cdf(p, grid))
            assert np.all(np.diff(F) >= 0.0)
            R = np.atleast_1d(survival(p, grid))
            assert np.all(np.diff(R) <= 0.0)

    def test_printed_mle_matches_density_quadrature(self, printed_mle):
        # independent route: integrate the density up to x = 50
        direct = cdf(printed_mle, 50.0)
        via_quad = integrate(lambda x: pdf(printed_mle, x), 0.0, 50.0)
        assert abs(direct - via_quad) < 1e-8


class TestPdf:
    def test_theta_below_one_clamps_left_of_the_clamp_point(self):
        n = 0
        for p, xc in clamp_laws():
            at = log_pdf(p, xc)
            got = log_pdf(p, np.array([xc * 1e-12, xc * 0.5, xc, xc * 2.0]))
            assert list(got[:3]) == [at] * 3
            assert got[3] == log_pdf(p, xc * 2.0) != at   # not clamped right of it
            assert log_pdf(p, xc * 1e-12) == log_pdf(p, xc * 0.5) == at
            n += 1
        assert n >= 10

    def test_the_clamp_evaluates_the_kernel_at_one_point(self):
        p, xc = next(clamp_laws())
        xs = np.array([xc * 1e-12, xc * 0.5, xc, xc * 2.0, quantile(p, 0.5)])
        with mock.patch.object(distribution, "_inner", wraps=distribution._inner) as spy:
            log_pdf(p, xs)
        # one pass over xs, then one over the clamp point
        assert [np.size(call.args[4]) for call in spy.call_args_list] == [xs.size, 1]

    @pytest.mark.parametrize("x", [1.5698228573767515e-151, 1.57e-151, 1e-140])
    def test_finite_where_the_kernel_underflows(self, x):
        # y = c x^d underflows to 0 here, while log y = log c + d log x does not;
        # to first order in y, e^y - 1 = y, 1 - e^{-z} = z e^{-z/2} and
        # w = b (1 - e^{-y}) + c d x^d = (b + d) y
        p = UNDERFLOW_LAW
        lnx = math.log(x)
        logy = math.log(p.c) + p.d * lnx
        assert math.exp(logy) == 0.0
        logz = math.log(p.a) + p.b * lnx + logy
        z = math.exp(logz)
        log1mez = logz - z / 2.0
        want_lf = p.theta * log1mez
        want_lp = (math.log(p.a) + math.log(p.theta) + (p.b - 1.0) * lnx - z
                   + logy + math.log(p.b + p.d) + (p.theta - 1.0) * log1mez)
        assert_allclose(log_cdf(p, x), want_lf, rtol=1e-14)
        assert_allclose(log_pdf(p, x), want_lp, rtol=1e-14)

    def test_array_is_the_scalar_calls(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            p = random_params(rng)
            xs = _batch_quantile(p, np.linspace(1e-3, 0.999, 40)).tolist()
            for fn in (log_pdf, pdf):
                assert_matches_scalar_calls(fn, p, xs)

    def test_gompertz_closed_form(self):
        expected = math.e * math.exp(-(math.e - 1.0))
        assert_allclose(pdf(GOMPERTZ, 1.0), expected, rtol=1e-13)
        assert_allclose(expected, 0.487589, atol=5e-7)

    def test_vanishes_at_origin_for_b_two(self):
        p = EgwgParams(1.0, 2.0, 1.0, 1.0, 1.0)
        assert pdf(p, 1e-8) < 1e-7
        assert pdf(p, 1e-12) < 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            pdf(GOMPERTZ, 0.0)
        with pytest.raises(DomainError):
            pdf(GOMPERTZ, -1.0)

    def test_matches_cdf_derivative(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            p = random_params(rng)
            qs = np.linspace(0.05, 0.95, 20)
            for q in qs:
                x = quantile(p, float(q))
                h = 1e-6 * x
                fd = (cdf(p, x + h) - cdf(p, x - h)) / (2.0 * h)
                assert_allclose(pdf(p, x), fd, rtol=1e-6)

    def test_b_zero_limit_continuity(self):
        # the b -> 0 analytic limit agrees with b = 1e-8 on a fixed grid
        grid = np.array([0.1, 0.3, 0.7, 1.0, 1.5, 2.5])
        rng = np.random.default_rng(14)
        for _ in range(5):
            q = random_params(rng)
            p0 = EgwgParams(q.a, 0.0, q.c, q.d, q.theta)
            p1 = EgwgParams(q.a, 1e-8, q.c, q.d, q.theta)
            f0 = np.atleast_1d(pdf(p0, grid))
            f1 = np.atleast_1d(pdf(p1, grid))
            assert_allclose(f1, f0, rtol=1e-5)


class TestSurvival:
    def test_one_at_origin(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            p = random_params(rng)
            assert survival(p, 0.0) == 1.0
            xs = [0.0, quantile(p, 0.3), quantile(p, 0.8)]
            assert log_survival(p, xs)[0] == 0.0
            for fn in (log_survival, survival):
                assert_matches_scalar_calls(fn, p, xs)

    def test_gompertz_closed_form(self):
        assert_allclose(survival(GOMPERTZ, LN2), math.exp(-1.0), rtol=1e-14)

    def test_complement_identity(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            p = random_params(rng)
            x = quantile(p, float(rng.uniform(0.01, 0.99)))
            assert abs(survival(p, x) + cdf(p, x) - 1.0) < 1e-14

    @given(BOX_LAWS)
    @example(EgwgParams(0.5, 0.2, 0.3, 0.5, 1.5))
    def test_log_is_full_precision_in_the_left_tail(self, p):
        # where F is small, log R = log1p(-F); forming 1 - F first keeps only
        # the bits of F above 2^-53 (1.8e-7 relative at this law's x = 1e-8)
        try:
            xs = _batch_quantile(p, LEFT_TAIL_QUANTILES)
        except BracketError:
            return
        want = np.log1p(-cdf(p, xs))
        assert np.all(np.abs(log_survival(p, xs) - want) <= 1e-13 * np.abs(want))


class TestLog1mexp:
    """distribution._log1mexp, the package's one log(1 - e^{-z})."""

    # across the range, and ln 2 with the floats on either side of it
    ZS = np.array([1e-300, 1e-20, 1e-8, 0.3, np.nextafter(LN2, 0.0), LN2,
                   np.nextafter(LN2, 1.0), 1.0, 5.0, 40.0, 700.0, 800.0])

    def test_branches_bit_for_bit(self):
        got = distribution._log1mexp(self.ZS)
        with np.errstate(divide="ignore"):
            want = np.where(self.ZS > LN2, np.log1p(-np.exp(-self.ZS)),
                            np.log(-np.expm1(-self.ZS)))
        assert got.tobytes() == want.tobytes()

    def test_ends_of_the_range(self):
        with np.errstate(divide="ignore"):
            assert distribution._log1mexp(np.array([0.0]))[0] == -math.inf
        assert distribution._log1mexp(np.array([math.inf]))[0] == 0.0

    def test_scalar_is_the_array_element(self):
        batch = distribution._log1mexp(self.ZS)
        for z, want in zip(self.ZS, batch):
            one = distribution._log1mexp(z)   # a numpy float64, as a * x at one x gives
            assert np.ndim(one) == 0 and np.float64(one).tobytes() == want.tobytes()


class TestHazard:
    def test_gompertz_is_exponential(self):
        for x in (0.3, 1.0, 1.7, 2.4):
            assert_allclose(hazard(GOMPERTZ, x), math.exp(x), rtol=1e-12)

    def test_array_is_the_scalar_calls(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            p = random_params(rng)
            assert_matches_scalar_calls(
                hazard, p, _batch_quantile(p, np.linspace(1e-3, 0.999, 40)).tolist())

    def test_ratio_identity_theta_one(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            q = random_params(rng)
            p = EgwgParams(q.a, q.b, q.c, q.d, 1.0)
            x = quantile(p, float(rng.uniform(0.05, 0.95)))
            assert_allclose(hazard(p, x), pdf(p, x) / survival(p, x), rtol=1e-12)

    def test_product_identity_general(self):
        # h * R = f wherever all factors are representable
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_params(rng)
            x = quantile(p, float(rng.uniform(0.05, 0.95)))
            assert_allclose(hazard(p, x) * survival(p, x), pdf(p, x), rtol=1e-12)

    def test_printed_mle_bathtub_on_grid(self, printed_mle):
        grid = np.arange(1.0, 81.0, 5.0)   # 1, 6, ..., 76 plus the 80 endpoint
        grid = np.append(grid, 80.0)
        h = np.atleast_1d(hazard(printed_mle, grid))
        d = np.diff(h)
        assert d[0] < 0.0 and d[-1] > 0.0
        signs = np.sign(d)
        assert np.sum(np.diff(signs) != 0) == 1   # decreasing then increasing

    def test_is_exp_of_log_pdf_minus_log_survival(self):
        for p, xs in params_and_points():
            want = np.exp(log_pdf(p, xs) - log_survival(p, xs))
            assert np.array_equal(hazard(p, xs), want)
            assert [hazard(p, float(x)) for x in xs] == list(want)

    def test_deep_tail_raises_named_limit(self, printed_mle):
        with pytest.raises(TailOverflowError) as err:
            hazard(printed_mle, 1e6)
        assert "largest representable" in str(err.value)

    @pytest.mark.parametrize("theta", [0.01, 0.246, 1.0, 1.5, 20.0])
    def test_named_limit_is_the_survival_edge(self, theta):
        # R = theta e^{-z} underflows sooner for theta < 1, so the edge moves left
        rng = np.random.default_rng(41)
        laws = [EgwgParams(0.5, 0.2, 0.3, 0.5, theta)]
        laws += [EgwgParams(q.a, q.b, q.c, q.d, theta)
                 for q in (random_params(rng) for _ in range(6))]
        for p in laws:
            edge = distribution._largest_representable_x(p)
            assert math.isfinite(hazard(p, edge))
            with pytest.raises(TailOverflowError, match=f"x = {edge:.6g}$"):
                hazard(p, 1.01 * edge)


class TestReversedHazard:
    def test_defining_identity(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            p = random_params(rng)
            x = quantile(p, float(rng.uniform(0.05, 0.95)))
            assert abs(reversed_hazard(p, x) * cdf(p, x) - pdf(p, x)) < 1e-12 * pdf(p, x) + 1e-300

    def test_gompertz_closed_form(self):
        # f(ln 2) / F(ln 2) = (2/e) / (1 - 1/e)
        expected = (2.0 / math.e) / (1.0 - math.exp(-1.0))
        assert_allclose(reversed_hazard(GOMPERTZ, LN2), expected, rtol=1e-12)

    def test_is_exp_of_log_pdf_minus_log_cdf(self):
        for p, xs in params_and_points():
            xs = xs[np.asarray(log_cdf(p, xs)) >= math.log(1e-300)]
            want = np.exp(log_pdf(p, xs) - log_cdf(p, xs))
            assert np.array_equal(reversed_hazard(p, xs), want)
            assert [reversed_hazard(p, float(x)) for x in xs] == list(want)

    def test_raises_where_cdf_below_1e300(self):
        n = 0
        for p, xc in clamp_laws():
            for x in (xc * 0.5, [xc * 0.5, xc * 2.0, quantile(p, 0.5)]):
                with pytest.raises(LeftTailUnderflowError):
                    reversed_hazard(p, x)
            n += 1
        assert n >= 10

    def test_consistency_with_hazard(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            p = random_params(rng)
            x = quantile(p, float(rng.uniform(0.1, 0.9)))
            lhs = reversed_hazard(p, x)
            rhs = hazard(p, x) * survival(p, x) / cdf(p, x)
            assert_allclose(lhs, rhs, rtol=1e-11)


class TestQuantile:
    def test_zero(self):
        assert quantile(GOMPERTZ, 0.0) == 0.0

    def test_gompertz_inverse(self):
        assert_allclose(quantile(GOMPERTZ, 1.0 - math.exp(-1.0)), LN2, rtol=1e-12)

    def test_domain(self):
        for q in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                quantile(GOMPERTZ, q)

    def test_round_trip_printed_median(self, printed_mle):
        x = quantile(printed_mle, 0.5)
        assert abs(cdf(printed_mle, x) - 0.5) < 1e-9

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(20)
        qs = np.arange(0.01, 1.0, 0.01)
        for _ in range(5):
            p = random_params(rng)
            err = max(abs(cdf(p, quantile(p, float(q))) - q) for q in qs)
            assert err <= 1e-9

    def test_clamp_root_where_the_kernel_underflows(self):
        # c x^d underflows at the root of F = 1e-300, which is then the small-z one
        p = UNDERFLOW_LAW
        v = _small_z_clamp_v(p)
        assert math.log(p.c) + p.d * v < -745.0
        assert_allclose(math.log(quantile(p, 1e-300)), v, rtol=1e-14)

    def test_bracket_error_just_outside_the_guard(self):
        # x = 2^-996 ... 2^996 is the root range; below it F(x) = x here
        p = EgwgParams(1.0, 0.0, 1.0, 1.0, 1.0)
        assert_allclose(quantile(p, 2.0 ** -995), 2.0 ** -995, rtol=1e-12)
        with pytest.raises(BracketError):
            quantile(p, 2.0 ** -997)
        # with d = 1e-3, g(log x) = log(e^{x^d} - 1) stays below 1.9 up to x = 2^996
        p = EgwgParams(1.0, 0.0, 1.0, 1e-3, 1.0)
        assert quantile(p, 0.5) < 2.0 ** 996
        with pytest.raises(BracketError):
            quantile(p, 1.0 - 1e-12)
        with pytest.raises(BracketError):
            _batch_quantile(p, np.array([0.5, 1.0 - 1e-12]))

    @pytest.mark.parametrize("p", BENCH_PARAMS)
    def test_batch_solver_matches_scalar(self, p):
        # u = q^(1/theta) on both sides of the target's branch edges
        # (u = e^-36 and u = 1/2) and close to 1
        lnu = [-36.0 * (1.0 + 1e-9), -36.0, -36.0 * (1.0 - 1e-9),
               -LN2 * (1.0 + 1e-9), -LN2, -LN2 * (1.0 - 1e-9), math.log1p(-1e-9)]
        q = np.exp(p.theta * np.array(lnu))
        want = [quantile(p, float(v)) for v in q]
        assert_allclose(_batch_quantile(p, q), want, rtol=1e-12, atol=0.0)


_GUARD_V = 996 * math.log(2.0)   # quantile roots must lie in x = 2^-996 ... 2^996
PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([5e-324, 1e-300, 1e-12, 1.0 - 1e-12, 1.0 - 2.0 ** -53]))


def _g(p, v):
    """b v + log(e^y - 1) with y = c e^{d v}: the quantile equation in v = log x."""
    logy = math.log(p.c) + p.d * v
    if logy < -20.0:
        return p.b * v + logy + 0.5 * math.exp(logy)
    if logy > 6.0:   # e^-y below 1e-175
        return p.b * v + (math.exp(logy) if logy < 709.0 else math.inf)
    return p.b * v + math.log(math.expm1(math.exp(logy)))


class TestQuantileProperties:
    @given(BOX_LAWS, PROBABILITIES)
    @example(EgwgParams(1e-12, 0.0, 1e-6, 0.05, 0.05), 1e-300)   # root far below 2^-996
    @example(EgwgParams(1e-12, 4.0, 50.0, 4.0, 20.0), 1.0 - 2.0 ** -53)   # the largest q
    def test_finite_or_bracket_error_outside_the_guard(self, p, q):
        if q == 0.0:
            assert quantile(p, q) == 0.0
            return
        log_t = float(_log_target(p, np.array([q]))[0])
        slack = 1e-9 * max(1.0, abs(log_t))
        try:
            x = quantile(p, q)
        except BracketError:
            assert _g(p, -_GUARD_V) > log_t - slack or _g(p, _GUARD_V) < log_t + slack
        else:
            assert math.isfinite(x) and x > 0.0
            assert _g(p, -_GUARD_V) <= log_t + slack and _g(p, _GUARD_V) >= log_t - slack

    @given(BOX_LAWS, st.floats(1e-12, 1.0 - 1e-12))
    def test_round_trip(self, p, q):
        try:
            x = quantile(p, q)
        except BracketError:
            return
        assert abs(cdf(p, x) - q) <= 1e-9

    @given(BOX_LAWS, PROBABILITIES)
    def test_scalar_is_the_batch_element(self, p, q):
        try:
            x = quantile(p, q)
        except BracketError:
            with pytest.raises(BracketError):
                _batch_quantile(p, np.full(9, q))
            return
        assert x == _batch_quantile(p, np.array([q]))[0]
        assert np.array_equal(_batch_quantile(p, np.full(9, q)), np.full(9, x))

    @pytest.mark.parametrize("fn", [
        cdf, pdf, log_cdf, log_pdf, survival, log_survival, hazard, reversed_hazard,
        lambda p, x: order_stat_pdf(p, 2, 5, x)],
        ids=["cdf", "pdf", "log_cdf", "log_pdf", "survival", "log_survival", "hazard",
             "reversed_hazard", "order_stat_pdf"])
    @given(p=BOX_LAWS, q=PROBABILITIES)
    def test_scalar_evaluator_is_the_batch_element(self, fn, p, q):
        try:
            x = quantile(p, q)
        except BracketError:
            return
        try:
            one = fn(p, x)
        except EgwgError as err:
            with pytest.raises(type(err)):
                fn(p, np.array([x]))
            return
        batch = fn(p, np.array([x]))
        assert type(one) is float and batch.shape == (1,)
        assert np.float64(one).tobytes() == batch[0].tobytes()

    @given(BOX_LAWS, st.integers(0, 2 ** 32 - 1))
    def test_sample_bits_repeat(self, p, seed):
        try:
            first = sample(p, 64, seed)
        except BracketError:
            with pytest.raises(BracketError):
                sample(p, 64, seed)
            return
        assert sample(p, 64, seed).tobytes() == first.tobytes()

    @given(BOX_LAWS, st.lists(PROBABILITIES, min_size=1, max_size=8))
    def test_newton_stays_far_below_its_cap(self, p, qs):
        # one evaluation places the start, then one per Newton step
        with mock.patch.object(distribution, "_quantile_g",
                               wraps=distribution._quantile_g) as g:
            try:
                _batch_quantile(p, np.array(qs))
            except BracketError:
                return
        assert g.call_count - 1 <= distribution._NEWTON_MAX_ITER // 2


# the fit's search box itself (b > 0), evaluated at quantiles from the far
# left tail to the far right one
BOX_QUANTILES = np.array([1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6])


def _box_points(p):
    """The law's BOX_QUANTILES points, or None where the quantile has no bracket."""
    try:
        return _batch_quantile(p, BOX_QUANTILES)
    except BracketError:
        return None


class TestBoxProperties:
    @given(FIT_BOX_LAWS)
    def test_log_pdf_is_finite(self, p):
        xs = _box_points(p)
        if xs is not None:
            assert np.all(np.isfinite(log_pdf(p, xs)))

    @given(FIT_BOX_LAWS)
    def test_cdf_plus_survival_is_one(self, p):
        xs = _box_points(p)
        if xs is not None:
            assert np.max(np.abs(cdf(p, xs) + survival(p, xs) - 1.0)) <= 4.5e-16

    @given(FIT_BOX_LAWS)
    def test_density_is_continuous_at_b_zero(self, p):
        xs = _box_points(p)
        if xs is None:
            return
        at_zero = log_pdf(EgwgParams(p.a, 0.0, p.c, p.d, p.theta), xs)
        near_zero = log_pdf(EgwgParams(p.a, 1e-12, p.c, p.d, p.theta), xs)
        assert np.all(np.abs(near_zero - at_zero) <= 1e-8 * np.maximum(1.0, np.abs(at_zero)))


class TestMedian:
    def test_gompertz_closed_form(self):
        # e^{c x} = 1 - ln(0.5) at theta = 1, b = 0, d = 1
        assert_allclose(median(GOMPERTZ), math.log(1.0 + math.log(2.0)), rtol=1e-12)

    def test_cdf_at_median(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            p = random_params(rng)
            assert abs(cdf(p, median(p)) - 0.5) < 1e-9

    def test_is_quantile_alias(self, printed_mle):
        assert median(printed_mle) == quantile(printed_mle, 0.5)


class TestMode:
    def test_gompertz_interior(self):
        p = EgwgParams(0.5, 0.0, 1.0, 1.0, 1.0)
        assert_allclose(mode(p), math.log(2.0), atol=1e-6)

    def test_gompertz_boundary(self):
        assert mode(EgwgParams(2.0, 0.0, 1.0, 1.0, 1.0)) == 0.0

    def test_printed_mle_against_dense_grid(self, printed_mle):
        m = mode(printed_mle)
        grid = np.geomspace(quantile(printed_mle, 1e-6),
                            quantile(printed_mle, 1.0 - 1e-6), 100_000)
        lp = np.atleast_1d(log_pdf(printed_mle, grid))
        i = int(np.argmax(lp))
        # density is unbounded toward 0 here: both routes must agree on the
        # left boundary within one grid spacing
        assert i == 0
        assert abs(m - 0.0) <= grid[1] - grid[0]

    def test_unimodal_interior_against_dense_grid(self):
        p = EgwgParams(0.2, 1.5, 0.8, 1.2, 1.3)
        m = mode(p)
        grid = np.geomspace(quantile(p, 1e-6), quantile(p, 1.0 - 1e-6), 100_000)
        lp = np.atleast_1d(log_pdf(p, grid))
        i = int(np.argmax(lp))
        spacing = grid[min(i + 1, grid.size - 1)] - grid[max(i - 1, 0)]
        assert abs(m - grid[i]) <= spacing


class TestSample:
    def test_deterministic(self):
        s1 = sample(GOMPERTZ, 5, 7)
        s2 = sample(GOMPERTZ, 5, 7)
        assert np.array_equal(s1, s2)

    def test_mean_against_quadrature(self):
        s = sample(GOMPERTZ, 100_000, 1)
        mean_quad = integrate(lambda x: x * pdf(GOMPERTZ, x), 0.0, math.inf,
                              scale=median(GOMPERTZ))
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert abs(s.mean() - mean_quad) < 3.0 * se

    def test_ks_self_consistency(self, printed_mle):
        s = sample(printed_mle, 10_000, 3)
        d = ks_statistic(lambda x: cdf(printed_mle, x), s)
        assert d < 1.63 / math.sqrt(10_000)

    def test_size_validation(self):
        with pytest.raises(DomainError):
            sample(GOMPERTZ, 0, 1)

    @pytest.mark.parametrize("value", [2.5, 3.7, math.nan, math.inf, "2", None])
    def test_a_size_that_is_not_whole_is_named(self, value):
        with pytest.raises(DomainError, match="^n must be a finite whole number"):
            sample(GOMPERTZ, value, 1)

    def test_whole_floats_and_numpy_integers_are_sizes(self):
        want = sample(GOMPERTZ, 3, 1)
        assert np.array_equal(sample(GOMPERTZ, 3.0, 1), want)
        assert np.array_equal(sample(GOMPERTZ, np.int64(3), 1), want)

    @pytest.mark.parametrize("seed, message", [
        (2.5, "^seed must be a finite whole number"),
        (-1, "^seed must be >= 0, got -1"),
    ])
    def test_a_seed_that_is_not_whole_or_is_negative_is_named(self, seed, message):
        with pytest.raises(DomainError, match=message):
            sample(GOMPERTZ, 3, seed)

    def test_whole_float_and_numpy_integer_seeds_draw_as_ints(self):
        want = sample(GOMPERTZ, 3, 7)
        assert sample(GOMPERTZ, 3, 7.0).tobytes() == want.tobytes()
        assert sample(GOMPERTZ, 3, np.int64(7)).tobytes() == want.tobytes()


class TestNormalization:
    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            p = random_params(rng)
            total = integrate(lambda x: pdf(p, x), 0.0, math.inf,
                              scale=median(p))
            assert abs(total - 1.0) < 1e-7
