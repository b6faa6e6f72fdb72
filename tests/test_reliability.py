import math

import numpy as np
import pytest
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
from egwgd.exceptions import DomainError
from egwgd.numerics import QuadratureConfig
from conftest import PRINTED_MLE, random_params

GOMPERTZ = EgwgParams(1.0, 0.0, 1.0, 1.0, 1.0)
# e * E1(1), evaluated with 50-digit arithmetic before the build
GOMPERTZ_MEAN = 0.5963473623231941


def survival_integral(p, lo=0.0):
    return integrate(lambda x: float(survival(p, x)), lo, math.inf, scale=median(p))


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

    def test_stable_under_tolerance_tightening(self):
        loose = mttf(PRINTED_MLE)
        tight = integrate(lambda x: x * pdf(PRINTED_MLE, x), 0.0, math.inf,
                          QuadratureConfig(rel_tol=1e-11, abs_tol=0.0),
                          scale=median(PRINTED_MLE))
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

    def test_mrl_plus_t_nondecreasing(self):
        p = PRINTED_MLE
        grid = np.linspace(0.0, quantile(p, 0.995), 25)
        vals = np.array([mean_residual_life(p, float(t)) for t in grid])
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals + grid) >= -1e-8)

    def test_array_solves_the_tail_cap_once(self, monkeypatch):
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
        total = integrate(lambda x: float(order_stat_pdf(p, 3, 5, x)), 0.0, math.inf,
                          scale=median(p))
        assert abs(total - 1.0) < 1e-7

    def test_exchangeability_mean(self):
        p = EgwgParams(0.5, 0.3, 0.9, 1.1, 1.2)
        m = median(p)
        avg = np.mean([
            integrate(lambda x, i=i: x * float(order_stat_pdf(p, i, 5, x)),
                      0.0, math.inf, scale=m)
            for i in range(1, 6)])
        assert abs(avg - raw_moment(p, 1)) / raw_moment(p, 1) < 1e-6

    def test_index_domain(self):
        for i, n in ((0, 5), (6, 5), (1, 0)):
            with pytest.raises(DomainError):
                order_stat_pdf(GOMPERTZ, i, n, 1.0)


class TestIntegralIdentities:
    def test_cdf_and_survival_partition_time(self):
        # integral of F over (0, t) = t - integral of R over (0, t)
        p = PRINTED_MLE
        for t in (5.0, 20.0, 60.0):
            int_f = integrate(lambda x: float(cdf(p, x)), 0.0, t)
            int_r = integrate(lambda x: float(survival(p, x)), 0.0, t)
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


class TestRepairableSystem:
    def test_construction_validates_means(self):
        sysm = RepairableSystem(failure=GOMPERTZ, repair=PRINTED_MLE)
        assert sysm.failure == GOMPERTZ
