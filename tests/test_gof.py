import csv
import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from egwgd import AARSET, cdf, sample
from egwgd.exceptions import DomainError
from egwgd.gof import (
    CSV_HEADER,
    FittedModel,
    compare,
    info_criteria,
    ks_pvalue,
    ks_statistic,
    reports_to_csv,
)
from egwgd.submodels import competitor_cdf, competitor_loglik, fit_competitor
from conftest import PRINTED_MLE, RECOVERY_TRUTH

# mpmath evaluation at the closed-form exponential MLE, frozen pre-build
KS_ED_AARSET = 0.19107227403188
# Kolmogorov series at d = 0.191, n = 50 with the small-sample deviation
PVALUE_ED = 0.045221739081234


class TestKsStatistic:
    def test_midpoint_steps_attain_lower_bound(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        table = {1.0: 0.125, 2.0: 0.375, 3.0: 0.625, 4.0: 0.875}
        d = ks_statistic(lambda v: table[float(v)], data)
        assert_allclose(d, 1.0 / (2.0 * 4.0), rtol=1e-14)

    def test_ed_on_aarset(self):
        spec = fit_competitor("ed", AARSET)
        d = ks_statistic(lambda x: float(competitor_cdf(spec, x)), AARSET)
        assert_allclose(d, KS_ED_AARSET, rtol=1e-10)
        assert abs(d - 0.191) < 0.005

    def test_hand_enumerated_uniform(self):
        # data {1,2,3} against the uniform CDF on [0,4]: six candidate gaps,
        # enumerated by hand -> maximum 0.25
        d = ks_statistic(lambda v: v / 4.0, np.array([1.0, 2.0, 3.0]))
        assert_allclose(d, 0.25, rtol=1e-14)

    def test_ties_use_cumulative_counts(self):
        data = np.array([1.0, 1.0, 1.0, 2.0])
        # F(1) = 0.5: gaps |0.5 - 0| and |0.5 - 0.75|; F(2) = 0.6: |0.6 - 1|
        d = ks_statistic(lambda v: 0.5 if v == 1.0 else 0.6, data)
        assert_allclose(d, 0.5, rtol=1e-14)

    def test_time_axis_reparameterisation_invariance(self):
        rng = np.random.default_rng(61)
        data = np.sort(rng.uniform(0.5, 20.0, size=40))
        fn = lambda x: float(cdf(PRINTED_MLE, x))
        d1 = ks_statistic(fn, data)
        # apply x -> x^3 to both the data and the model's time axis
        d2 = ks_statistic(lambda y: fn(y ** (1.0 / 3.0)), data ** 3)
        assert_allclose(d1, d2, rtol=1e-12)


class TestKsPvalue:
    def test_zero_distance(self):
        assert ks_pvalue(0.0, 50) == 1.0

    def test_large_deviation_vanishes(self):
        assert ks_pvalue(0.6, 50) < 1e-12

    def test_published_cell(self):
        p = ks_pvalue(0.191, 50)
        assert_allclose(p, PVALUE_ED, rtol=1e-9)
        assert abs(p - 0.047) <= 0.01   # brackets the published 0.045

    def test_monotone_in_d(self):
        ps = [ks_pvalue(d, 50) for d in np.linspace(0.01, 0.5, 25)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            ks_pvalue(-0.1, 50)
        with pytest.raises(DomainError):
            ks_pvalue(0.5, 0)


class TestInfoCriteria:
    def test_ed_row(self):
        aic, caic, bic = info_criteria(241.09, 1, 50)
        assert abs(aic - 484.18) <= 0.02
        assert abs(caic - 484.26) <= 0.02
        assert abs(bic - 486.09) <= 0.02

    def test_gd_row(self):
        aic, caic, bic = info_criteria(235.39, 2, 50)
        assert abs(aic - 474.78) <= 0.02
        assert abs(caic - 475.024) <= 0.02
        assert abs(bic - 478.60) <= 0.02

    def test_ged_row(self):
        aic, caic, bic = info_criteria(240.36, 2, 50)
        assert abs(aic - 484.72) <= 0.02
        assert abs(caic - 484.96) <= 0.02
        assert abs(bic - 488.54) <= 0.02

    def test_degenerate_k_zero(self):
        aic, caic, bic = info_criteria(100.0, 0, 10)
        assert aic == 200.0 and caic == 200.0 and bic == 200.0

    def test_caic_undefined(self):
        with pytest.raises(DomainError):
            info_criteria(100.0, 5, 6)


class TestWholeNumberArguments:
    @pytest.mark.parametrize("name, call", [
        ("n", lambda v: ks_pvalue(0.191, v)),
        ("k", lambda v: info_criteria(10.0, v, 50)),
        ("n", lambda v: info_criteria(10.0, 2, v)),
    ], ids=["ks_pvalue-n", "info_criteria-k", "info_criteria-n"])
    @pytest.mark.parametrize("value", [2.5, 50.7, math.nan, math.inf, "2", None])
    def test_a_count_that_is_not_whole_is_named(self, name, call, value):
        with pytest.raises(DomainError, match=f"^{name} must be a finite whole number"):
            call(value)

    def test_whole_floats_and_numpy_integers_count(self):
        assert ks_pvalue(0.191, 50.0) == ks_pvalue(0.191, np.int64(50)) == ks_pvalue(0.191, 50)
        assert info_criteria(10.0, 2.0, np.int32(50)) == info_criteria(10.0, 2, 50)


def _fitted(name, values):
    spec = fit_competitor(name, values)
    return FittedModel(name=name, params=spec.as_dict(), k=spec.k,
                       cdf=lambda x, s=spec: competitor_cdf(s, x),
                       neg_loglik=-competitor_loglik(spec, values))


class TestCompare:
    def test_single_model(self):
        reports, rankings = compare(AARSET, [_fitted("ed", AARSET)])
        assert len(reports) == 1
        assert rankings["aic"] == ["ed"]

    def test_identical_models_stable_order(self):
        m1 = _fitted("ed", AARSET)
        m2 = FittedModel(name="ed2", params=m1.params, k=m1.k, cdf=m1.cdf,
                         neg_loglik=m1.neg_loglik)
        reports, rankings = compare(AARSET, [m1, m2])
        assert reports[0].model == "ed" and reports[1].model == "ed2"
        assert (reports[0].ks, reports[0].aic) == (reports[1].ks, reports[1].aic)
        assert rankings["ks"] == ["ed", "ed2"]   # ties keep input order

    def test_full_family_wins_every_column(self, aarset_data, aarset_egwgd_fit):
        models = [_fitted(k, AARSET) for k in ("ed", "ged", "gd")]
        models.append(FittedModel(
            name="egwgd", params=aarset_egwgd_fit.params.to_dict(), k=5,
            cdf=lambda x: cdf(aarset_egwgd_fit.params, x),
            neg_loglik=-aarset_egwgd_fit.loglik))
        reports, rankings = compare(AARSET, models)
        for crit in ("ks", "aic", "caic", "bic"):
            assert rankings[crit][0] == "egwgd"

    @pytest.mark.parametrize("values", [
        np.asarray(AARSET, dtype=float),                    # 50 lifetimes, 30 distinct
        np.round(sample(RECOVERY_TRUTH, 400, 5), 1) + 0.1,  # heavy ties
    ], ids=["aarset", "rounded"])
    def test_ks_is_ks_statistic_bit_for_bit(self, values):
        # compare evaluates each cdf once on the distinct values; ks_statistic
        # once per value: both give the same D for all seven models
        assert np.unique(values).size < values.size
        models = [_fitted(k, values) for k in ("ed", "ged", "gd", "iw", "giw", "egiw")]
        models.append(FittedModel(name="egwgd", params=PRINTED_MLE.to_dict(), k=5,
                                  cdf=lambda x: cdf(PRINTED_MLE, x), neg_loglik=0.0))
        reports, _ = compare(values, models)
        for m, r in zip(models, reports):
            assert r.ks == ks_statistic(m.cdf, values), m.name

    def test_cdf_that_takes_only_scalars_is_refused(self):
        m = _fitted("ed", AARSET)
        scalar = FittedModel(name="scalar", params=m.params, k=m.k,
                             cdf=lambda x: float(np.sum(m.cdf(x))), neg_loglik=m.neg_loglik)
        with pytest.raises(ValueError, match="must accept an array"):
            compare(AARSET, [scalar])

    def test_report_invariants(self):
        reports, _ = compare(AARSET, [_fitted("ed", AARSET), _fitted("gd", AARSET)])
        for r in reports:
            assert 0.0 <= r.ks <= 1.0
            assert_allclose(r.aic, 2 * r.k + 2 * r.neg_loglik, rtol=1e-14)
            assert_allclose(r.caic, r.aic + 2 * r.k * (r.k + 1) / (r.n - r.k - 1), rtol=1e-14)
            assert_allclose(r.bic, r.k * math.log(r.n) + 2 * r.neg_loglik, rtol=1e-14)


class TestCsv:
    def test_header_and_round_trip(self):
        reports, _ = compare(AARSET, [_fitted("ed", AARSET), _fitted("ged", AARSET)])
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == CSV_HEADER.split(",")
        for row, rep in zip(parsed[1:], reports):
            assert row[0] == rep.model
            assert float(row[2]) == rep.ks          # 17 significant digits
            assert float(row[3]) == rep.neg_loglik
            assert float(row[7]) == rep.p_value
            import json
            assert json.loads(row[1]) == rep.mle
