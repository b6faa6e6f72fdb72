import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from egwgd import (
    EgwgParams,
    RepairableSystem,
    availability,
    cdf,
    find_root_increasing,
    integrate,
    maintainability,
    mean_past_life,
    mean_residual_life,
    median,
    mtbf,
    mttf,
    order_stat_pdf,
    pdf,
    quantile,
    raw_moment,
    sample,
    survival,
)
from egwgd import numerics
from egwgd.exceptions import (
    BracketError,
    DomainError,
    EgwgError,
    LeftTailUnderflowError,
    TailOverflowError,
)
from conftest import BOX_LAWS, PRINTED_MLE, OracleError, quad, random_params

GOMPERTZ = EgwgParams(1.0, 0.0, 1.0, 1.0, 1.0)
# e * E1(1), evaluated with 50-digit arithmetic before the build
GOMPERTZ_MEAN = 0.5963473623231941


def survival_integral(p, lo=0.0):
    return quad(lambda x: survival(p, x), lo, math.inf)


BREAK_Q = (1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-14)


def in_log_x(fn, p):
    """v -> fn(p, e^v) e^v: the integrand of dx in v = log x (0 where e^v is 0 or inf)."""
    def g(v):
        x = math.exp(v) if v < 709.0 else 0.0
        return fn(p, x) * x if x > 0.0 else 0.0
    return g


def log_x_integral(fn, p, lo, hi):
    """Integral of fn(p, x) dx over (e^lo, e^hi) by QUADPACK in v = log x.

    The range is cut at the law's BREAK_Q quantiles, so that QUADPACK sees
    where the mass is even when it spans hundreds of decades.
    """
    cuts = [lo]
    for q in BREAK_Q:
        try:
            v = math.log(quantile(p, q))
        except BracketError:
            continue
        if lo < v < hi:
            cuts.append(v)
    cuts.append(hi)
    g = in_log_x(fn, p)
    return sum(quad(g, a, b, abs_tol=0.0) for a, b in zip(cuts, cuts[1:]))


def oracle_mttf(p):
    """MTTF as the integral of R over (0, inf)."""
    return log_x_integral(survival, p, -math.inf, math.inf)


def oracle(p, t):
    """(MTTF, MRL(t), MPL(t)) by QUADPACK in v = log x, each None where QUADPACK warns."""
    def attempt(fn):
        try:
            return fn()
        except OracleError:
            return None

    def mrl():
        return log_x_integral(survival, p, math.log(t), math.inf) / survival(p, t)

    def mpl():
        return log_x_integral(cdf, p, -math.inf, math.log(t)) / cdf(p, t)

    return attempt(lambda: oracle_mttf(p)), attempt(mrl), attempt(mpl)


class TestRawMoment:
    def test_zeroth_is_one(self):
        rng = np.random.default_rng(41)
        for _ in range(3):
            assert raw_moment(random_params(rng), 0) == 1.0

    def test_gompertz_mean_against_mc_oracle(self):
        mean = raw_moment(GOMPERTZ, 1)
        assert_allclose(mean, GOMPERTZ_MEAN, rtol=1e-9)
        draws = sample(GOMPERTZ, 1_000_000, 5)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - mean) < 3.0 * se

    def test_printed_mle_mean_equals_survival_integral(self):
        m1 = raw_moment(PRINTED_MLE, 1)
        m2 = survival_integral(PRINTED_MLE)
        assert abs(m1 - m2) / m1 < 1e-6

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            raw_moment(GOMPERTZ, -1)

    def test_second_moment_exceeds_square_of_first(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            p = random_params(rng)
            assert raw_moment(p, 2) > raw_moment(p, 1) ** 2


class TestMttf:
    def test_equals_survival_integral(self):
        assert abs(mttf(GOMPERTZ) - survival_integral(GOMPERTZ)) < 1e-8

    def test_same_law_same_value(self):
        assert mttf(PRINTED_MLE) == mttf(PRINTED_MLE)

    def test_is_the_mean_residual_life_at_zero_bit_for_bit(self):
        # both integrate R over (0, inf) through the same map
        rng = np.random.default_rng(47)
        for p in [random_params(rng) for _ in range(5)] + [PRINTED_MLE, GOMPERTZ]:
            assert mttf(p) == mean_residual_life(p, 0.0)

    def test_stable_under_tolerance_tightening(self):
        loose = mttf(PRINTED_MLE)
        tight = quad(lambda x: x * pdf(PRINTED_MLE, x), 0.0, math.inf,
                     rel_tol=1e-11, abs_tol=0.0)
        assert abs(loose - tight) / tight < 1e-6


class TestMtbfAvailability:
    def test_symmetric_system_doubles(self):
        sysm = RepairableSystem(failure=GOMPERTZ, repair=GOMPERTZ)
        assert_allclose(mtbf(sysm), 2.0 * mttf(GOMPERTZ), rtol=1e-12)

    def test_negligible_repair_time(self):
        fast_repair = EgwgParams(500.0, 0.0, 1.0, 1.0, 1.0)
        sysm = RepairableSystem(failure=GOMPERTZ, repair=fast_repair)
        assert_allclose(mtbf(sysm), mttf(GOMPERTZ), rtol=1e-2)
        assert availability(sysm) > 0.99

    def test_additivity(self):
        f = EgwgParams(0.5, 0.2, 0.8, 1.1, 1.4)
        r = EgwgParams(2.0, 0.0, 1.5, 0.9, 0.7)
        sysm = RepairableSystem(failure=f, repair=r)
        assert abs(mtbf(sysm) - (mttf(f) + mttf(r))) < 1e-10

    def test_identical_laws_availability_half(self):
        sysm = RepairableSystem(failure=PRINTED_MLE, repair=PRINTED_MLE)
        assert availability(sysm) == 0.5

    def test_three_to_one_ratio(self):
        # construct a repair law with one third of the failure mean by
        # scaling its rate parameter (mean is strictly decreasing in a)
        target = mttf(GOMPERTZ) / 3.0
        a_star = find_root_increasing(
            lambda a: -mttf(EgwgParams(a, 0.0, 1.0, 1.0, 1.0)), -target)
        repair = EgwgParams(a_star, 0.0, 1.0, 1.0, 1.0)
        sysm = RepairableSystem(failure=GOMPERTZ, repair=repair)
        assert_allclose(availability(sysm), 0.75, atol=1e-6)

    def test_availability_in_unit_interval(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            f, r = random_params(rng), random_params(rng)
            a = availability(RepairableSystem(failure=f, repair=r))
            assert 0.0 < a < 1.0


class TestMaintainability:
    def test_zero_at_origin(self):
        assert maintainability(GOMPERTZ, 0.0) == 0.0

    def test_half_at_median(self):
        rng = np.random.default_rng(44)
        for _ in range(3):
            p = random_params(rng)
            assert abs(maintainability(p, median(p)) - 0.5) < 1e-9

    def test_gompertz_value(self):
        assert_allclose(maintainability(GOMPERTZ, math.log(2.0)),
                        1.0 - math.exp(-1.0), rtol=1e-12)

    def test_is_cdf_alias(self):
        for t in (0.2, 1.0, 3.7):
            assert maintainability(PRINTED_MLE, t) == cdf(PRINTED_MLE, t)


class TestMeanResidualLife:
    def test_at_zero_equals_mean(self):
        rng = np.random.default_rng(45)
        for _ in range(3):
            p = random_params(rng)
            assert abs(mean_residual_life(p, 0.0) - raw_moment(p, 1)) < 1e-8 * raw_moment(p, 1)

    def test_at_zero_equals_mttf_where_the_far_tail_hazard_decreases(self):
        for p in (
            # h ~ 1/x beyond the 1 - 1e-14 quantile: a tail term R/h taken
            # there would put m(0) 1.6e-4 below the mean
            EgwgParams(8674.79, 0.0, 9.4976e-5, 0.068906, 0.234309),
            # mass in [2.45, 2.66]: with the map's width at the 1 - 1e-6
            # quantile the error estimate under-reads and m(0) is 7.5e-10 low
            EgwgParams(6.258228557313562e-09, 0.004471070093299136, 0.5182153445135803,
                       3.8194771940484147, 4.534556094880192),
        ):
            m = mttf(p)
            assert abs(mean_residual_life(p, 0.0) - m) <= 1e-10 * m

    def test_mrl_plus_t_nondecreasing(self):
        p = PRINTED_MLE
        grid = np.linspace(0.0, quantile(p, 0.995), 25)
        vals = np.array([mean_residual_life(p, float(t)) for t in grid])
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals + grid) >= -1e-8)

    def test_array_solves_the_width_quantile_once(self, monkeypatch):
        from egwgd import distribution

        p = EgwgParams(0.5, 0.2, 0.3, 0.5, 1.5)
        ts = np.linspace(0.0, quantile(p, 0.99), 100)
        scalar = [mean_residual_life(p, float(t)) for t in ts]
        solves = []
        real = distribution.quantile
        monkeypatch.setattr(distribution, "quantile",
                            lambda *a: solves.append(a) or real(*a))
        got = mean_residual_life(p, ts)
        assert len(solves) == 1
        assert got.shape == ts.shape and list(got) == scalar
        assert type(mean_residual_life(p, ts[1])) is float

    def test_subnormal_survival_rejected(self):
        # Gompertz R(ln 741) = e^-740, a subnormal float
        with pytest.raises(TailOverflowError, match="smallest normal float"):
            mean_residual_life(GOMPERTZ, math.log(741.0))

    def test_printed_mle_riemann_oracle_at_18(self):
        # brute-force midpoint Riemann sum of the survival integral
        xs = np.linspace(18.0, 1e4, 1_000_001)
        mids = 0.5 * (xs[1:] + xs[:-1])
        riemann = float(np.sum(np.atleast_1d(survival(PRINTED_MLE, mids))) * (xs[1] - xs[0]))
        expected = riemann / survival(PRINTED_MLE, 18.0)
        got = mean_residual_life(PRINTED_MLE, 18.0)
        assert abs(got - expected) / expected < 1e-4


class TestMeanPastLife:
    def test_strictly_between_zero_and_t(self):
        rng = np.random.default_rng(46)
        for _ in range(6):
            p = random_params(rng)
            t = quantile(p, float(rng.uniform(0.2, 0.95)))
            val = mean_past_life(p, t)
            assert 0.0 < val < t

    def test_far_tail_asymptote(self):
        p = GOMPERTZ
        t = quantile(p, 1.0 - 1e-10)
        expected = t - raw_moment(p, 1)
        assert abs(mean_past_life(p, t) - expected) < 1e-6 * t

    def test_gompertz_median_riemann_oracle(self):
        t = median(GOMPERTZ)
        xs = np.linspace(0.0, t, 1_000_001)
        mids = 0.5 * (xs[1:] + xs[:-1])
        riemann = float(np.sum(np.atleast_1d(cdf(GOMPERTZ, mids))) * (xs[1] - xs[0]))
        expected = riemann / cdf(GOMPERTZ, t)
        assert abs(mean_past_life(GOMPERTZ, t) - expected) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            mean_past_life(GOMPERTZ, 0.0)
        # F(1e-320) is subnormal: too few bits for the ratio F(x) / F(t)
        with pytest.raises(LeftTailUnderflowError, match="smallest normal float"):
            mean_past_life(GOMPERTZ, 1e-320)

    def test_integral_of_f_below_the_smallest_normal_float(self):
        # F(t) ~ t is normal here, but the integral of F, ~ t^2 / 2, underflows
        t = 9.86e-305
        assert abs(mean_past_life(GOMPERTZ, t) / t - 0.5) <= 1e-12


class TestOrderStatistics:
    def test_single_sample_is_parent(self):
        for x in (0.3, 1.0, 2.2):
            assert_allclose(order_stat_pdf(GOMPERTZ, 1, 1, x), pdf(GOMPERTZ, x), rtol=1e-13)

    def test_minimum_of_five_closed_form(self):
        xs = np.linspace(0.1, 2.5, 9)
        got = order_stat_pdf(GOMPERTZ, 1, 5, xs)
        expected = 5.0 * np.atleast_1d(pdf(GOMPERTZ, xs)) * np.atleast_1d(survival(GOMPERTZ, xs)) ** 4
        assert_allclose(got, expected, rtol=1e-12)

    def test_normalisation_middle_order(self):
        rng = np.random.default_rng(47)
        p = random_params(rng)
        total = integrate(lambda x: order_stat_pdf(p, 3, 5, x), 0.0, math.inf,
                          scale=median(p))
        assert abs(total - 1.0) < 1e-7

    def test_exchangeability_mean(self):
        p = EgwgParams(0.5, 0.3, 0.9, 1.1, 1.2)
        m = median(p)
        avg = np.mean([
            integrate(lambda x, i=i: x * order_stat_pdf(p, i, 5, x),
                      0.0, math.inf, scale=m)
            for i in range(1, 6)])
        assert abs(avg - raw_moment(p, 1)) / raw_moment(p, 1) < 1e-6

    def test_index_domain(self):
        for i, n in ((0, 5), (6, 5), (1, 0)):
            with pytest.raises(DomainError):
                order_stat_pdf(GOMPERTZ, i, n, 1.0)


class TestWholeNumberArguments:
    @pytest.mark.parametrize("name, call", [
        ("r", lambda v: raw_moment(GOMPERTZ, v)),
        ("i", lambda v: order_stat_pdf(GOMPERTZ, v, 4, 1.0)),
        ("n", lambda v: order_stat_pdf(GOMPERTZ, 1, v, 1.0)),
    ], ids=["raw_moment-r", "order_stat_pdf-i", "order_stat_pdf-n"])
    @pytest.mark.parametrize("value", [2.5, 3.7, math.nan, math.inf, "2", None])
    def test_a_count_that_is_not_whole_is_named(self, name, call, value):
        with pytest.raises(DomainError, match=f"^{name} must be a finite whole number"):
            call(value)

    def test_whole_floats_and_numpy_integers_count(self):
        m2 = raw_moment(GOMPERTZ, 2)
        assert raw_moment(GOMPERTZ, 2.0) == raw_moment(GOMPERTZ, np.int64(2)) == m2
        f13 = order_stat_pdf(GOMPERTZ, 1, 3, 1.0)
        assert order_stat_pdf(GOMPERTZ, 1.0, np.int32(3), 1.0) == f13


class TestIntegralIdentities:
    def test_cdf_and_survival_partition_time(self):
        # integral of F over (0, t) = t - integral of R over (0, t)
        p = PRINTED_MLE
        for t in (5.0, 20.0, 60.0):
            int_f = quad(lambda x: cdf(p, x), 0.0, t)
            int_r = quad(lambda x: survival(p, x), 0.0, t)
            assert abs(int_f - (t - int_r)) < 1e-9 * t

    def test_mean_three_ways(self):
        p = EgwgParams(0.8, 0.6, 1.1, 0.9, 1.5)
        e1 = raw_moment(p, 1)
        e2 = survival_integral(p)
        e3 = mean_residual_life(p, 0.0)
        assert abs(e1 - e2) / e1 < 1e-6
        assert abs(e1 - e3) / e1 < 1e-6

    def test_relative_accuracy_at_extreme_scales(self):
        # a law supported around 1e-26: absolute tolerances alone would
        # declare convergence long before any relative accuracy exists
        p = EgwgParams(9e3, 0.002, 45.0, 0.2, 4.9)
        m1 = raw_moment(p, 1)
        assert 0.0 < m1 < 1e-20
        assert abs(mean_residual_life(p, 0.0) - m1) / m1 < 1e-6
        t = median(p)
        assert 0.0 < mean_past_life(p, t) < t
        t = 4.56715e-21
        want = oracle(p, t)[1]
        assert abs(mean_residual_life(p, t) - want) <= 1e-9 * want


class TestRepairableSystem:
    def test_construction_validates_means(self):
        sysm = RepairableSystem(failure=GOMPERTZ, repair=PRINTED_MLE)
        assert sysm.failure == GOMPERTZ


class TestGaussKronrodRule:
    def test_monomials_are_integrated_exactly(self):
        # K21 is exact up to degree 31 and its embedded G10 up to degree 19
        lo, hi = np.zeros(1), np.ones(1)
        for k in range(32):
            res, _ = numerics._gk21(lambda x: x ** k, lo, hi)
            assert abs(res[0] - 1.0 / (k + 1)) <= 1e-14, k
        nodes = 0.5 + 0.5 * numerics._GK21_X
        for k in range(20):
            assert abs(0.5 * (numerics._GK21_WG @ nodes ** k) - 1.0 / (k + 1)) <= 1e-14, k


class TestRoundOffNearZero:
    def test_mrl_just_above_zero_matches_the_mean(self):
        # QUADPACK stops on round-off for this integral over (4.2e-8, inf)
        p = EgwgParams(3.0, 0.1, 0.5, 0.3, 0.6)
        t = 4.19936e-08
        got = mean_residual_life(p, t)
        assert math.isfinite(got)
        want = (oracle_mttf(p) - quad(lambda x: survival(p, x), 0.0, t)) / survival(p, t)
        assert abs(got - want) <= 1e-9 * want


class TestAgainstQuadpack:
    def test_corner_of_the_box(self):
        # QUADPACK on x f(x) over (0, inf) stops on round-off here: the mean
        # lies five decades above the median
        p = EgwgParams(1e-12, 1e-3, 1e-6, 0.05, 0.05)
        m, t = mttf(p), 1.0
        assert abs(m - oracle_mttf(p)) <= 1e-9 * m
        mrl, mpl = mean_residual_life(p, t), mean_past_life(p, t)
        assert abs(t - cdf(p, t) * mpl + survival(p, t) * mrl - m) <= 1e-8 * m

    def test_mrl_whose_body_is_far_below_rt_times_the_range(self):
        # the mass sits some 50 decades below the 1 - 1e-14 quantile 4.6e-3:
        # an absolute tolerance scaled by R(t) times the range up to there
        # would stop the integral 4e-4 short
        p = EgwgParams(371.91884395338286, 0.0, 0.11846961757499047, 0.06315093118390538,
                       1.636289236566082)
        t = 1.1945974523098362e-50
        want = oracle(p, t)[1]
        assert abs(mean_residual_life(p, t) - want) <= 1e-9 * want

    @pytest.mark.parametrize("log_rt", [-30.0, -300.0, -700.0])
    def test_mrl_far_in_the_gompertz_tail(self, log_rt):
        # R(t) = e^-(e^t - 1); the last two t lie beyond the 1 - 1e-14 quantile
        t = math.log1p(-log_rt)
        want = oracle(GOMPERTZ, t)[1]
        assert abs(mean_residual_life(GOMPERTZ, t) - want) <= 1e-9 * want

    @settings(max_examples=40)
    @given(BOX_LAWS, st.floats(1e-6, 1.0 - 1e-6))
    @example(EgwgParams(1e-12, 1e-3, 1e-6, 0.05, 0.05), 0.5)
    # mttf once integrated x f(x) and missed the oracle here by 1.2e-9 relative
    @example(EgwgParams(0.008157, 0.0016335, 0.83462, 0.22927, 2.1828), 0.5)
    def test_agrees_with_the_oracle_or_keeps_the_identity(self, p, q):
        try:
            t = quantile(p, q)
            got = (mttf(p), mean_residual_life(p, t), mean_past_life(p, t))
        except EgwgError:
            return
        want = oracle(p, t)
        for g, w in zip(got, want):
            if w is not None:
                assert abs(g - w) <= 1e-9 * abs(w)
        if None in want:
            # mttf = integral of R over (0, t) + R(t) m(t), with the
            # integral t - F(t) P(t)
            m, mrl, mpl = got
            assert abs(t - cdf(p, t) * mpl + survival(p, t) * mrl - m) <= 1e-8 * m
