import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from egwgd import AARSET, EgwgParams, cdf, pdf
from egwgd.exceptions import DomainError, InvalidParametersError, NotEmbeddableError
from egwgd.submodels import (
    COMPETITOR_K,
    COMPETITOR_PARAM_NAMES,
    SUB_MODEL_PARAM_NAMES,
    CompetitorSpec,
    SubModelSpec,
    competitor_cdf,
    competitor_covariance,
    competitor_log_pdf,
    competitor_loglik,
    embed,
    fit_competitor,
)

# independent golden-section oracle values for the Gompertz fit on Aarset,
# computed before this module existed (rate-convention a = core_rate * c)
GD_FIT_NEGLOGLIK = 235.3308285
GD_FIT_A = 0.0097152776
GD_FIT_C = 0.0203002902


def assert_stationary(spec, x, coords=None, eps=1e-6):
    """No relative step of eps in any of coords (default: every parameter) raises L by 1e-6."""
    ll = competitor_loglik(spec, x)
    for i in range(len(spec.params)) if coords is None else coords:
        for step in (1.0 - eps, 1.0 + eps):
            p = list(spec.params)
            p[i] *= step
            assert competitor_loglik(CompetitorSpec(spec.kind, tuple(p)), x) <= ll + 1e-6


class TestEmbed:
    def test_gd_literal_mapping(self):
        p = embed(SubModelSpec("gd", (0.011, 0.018)))
        assert p == EgwgParams(0.011, 0.0, 0.018, 1.0, 1.0)

    def test_ggd_literal_mapping(self):
        assert embed(SubModelSpec("ggd", (0.4, 1.2, 0.7))) == EgwgParams(0.4, 0.0, 1.2, 1.0, 0.7)

    def test_gepd_literal_mapping(self):
        p = embed(SubModelSpec("gepd", (0.7, 1.2, 0.9, 1.8)))
        assert p == EgwgParams(0.7, 0.0, 0.9, 1.2, 1.8)

    def test_parameter_names_in_order(self):
        assert list(SUB_MODEL_PARAM_NAMES.items()) == [
            ("gwgd", ("a", "b", "c", "d")), ("gd", ("a", "c")), ("ggd", ("a", "c", "theta")),
            ("exp_mod_weibull_ext", ("a", "alpha", "d", "theta")), ("epd", ("a", "d", "c")),
            ("gepd", ("a", "d", "c", "theta")), ("chen", ("a", "d")), ("xie", ("a", "c", "d")),
            ("ed", ("a",)), ("ged", ("a", "theta"))]
        assert list(COMPETITOR_PARAM_NAMES.items()) == [
            ("ed", ("a",)), ("ged", ("a", "theta")), ("gd", ("a", "c")), ("iw", ("theta",)),
            ("giw", ("theta", "beta")), ("egiw", ("alpha", "theta", "beta"))]

    def test_ggd_with_unit_theta_collapses_to_gd(self):
        assert embed(SubModelSpec("ggd", (0.4, 1.2, 1.0))) == embed(SubModelSpec("gd", (0.4, 1.2)))

    def test_epd_case_arithmetic(self):
        p = embed(SubModelSpec("epd", (1.0, 2.0, 1.0)))
        assert p == EgwgParams(1.0, 0.0, 1.0, 2.0, 1.0)
        assert_allclose(cdf(p, 1.0), 1.0 - math.exp(-(math.e - 1.0)), rtol=1e-12)
        assert_allclose(cdf(p, 1.0), 0.8207, atol=1e-4)

    def test_gwgd_is_theta_one(self):
        p = embed(SubModelSpec("gwgd", (0.5, 1.1, 0.7, 1.3)))
        assert p.theta == 1.0 and p.b == 1.1

    def test_chen_fixes_c_one(self):
        assert embed(SubModelSpec("chen", (0.8, 1.5))) == EgwgParams(0.8, 0.0, 1.0, 1.5, 1.0)

    def test_exp_mod_weibull_ext_acceleration(self):
        p = embed(SubModelSpec("exp_mod_weibull_ext", (0.5, 2.0, 1.5, 0.7)))
        assert_allclose(p.c, (1.0 / 2.0) ** 1.5, rtol=1e-15)
        assert p.b == 0.0 and p.d == 1.5 and p.theta == 0.7

    def test_xie_mapping(self):
        assert embed(SubModelSpec("xie", (0.8, 0.3, 1.2))) == EgwgParams(0.8, 0.0, 0.3, 1.2, 1.0)

    @pytest.mark.parametrize("kind,params", [("ed", (0.5,)), ("ged", (0.5, 1.2))])
    def test_exponential_families_not_embeddable(self, kind, params):
        with pytest.raises(NotEmbeddableError):
            embed(SubModelSpec(kind, params))

    def test_unknown_kind(self):
        with pytest.raises(InvalidParametersError):
            SubModelSpec("nope", (1.0,))

    def test_wrong_arity(self):
        with pytest.raises(InvalidParametersError):
            SubModelSpec("gd", (1.0,))


class TestCompetitorEvaluation:
    def test_ed_median(self):
        spec = CompetitorSpec("ed", (0.022,))
        assert_allclose(competitor_cdf(spec, 31.5), 0.5, atol=1e-4)

    def test_ged_unit_theta_equals_ed(self):
        xs = np.linspace(0.1, 60.0, 25)
        ged = competitor_cdf(CompetitorSpec("ged", (0.021, 1.0)), xs)
        ed = competitor_cdf(CompetitorSpec("ed", (0.021,)), xs)
        assert_allclose(ged, ed, rtol=1e-14)

    def test_iw_at_one(self):
        assert_allclose(competitor_cdf(CompetitorSpec("iw", (0.397,)), 1.0),
                        math.exp(-1.0), rtol=1e-14)

    def test_gd_routes_through_core(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            a = float(rng.uniform(0.005, 0.5))
            c = float(rng.uniform(0.01, 0.5))
            spec = CompetitorSpec("gd", (a, c))
            core = EgwgParams(a / c, 0.0, c, 1.0, 1.0)
            xs = rng.uniform(0.1, 50.0, size=20)
            assert_allclose(competitor_cdf(spec, xs), np.atleast_1d(cdf(core, xs)),
                            rtol=1e-12, atol=1e-15)
            assert_allclose(np.exp(competitor_log_pdf(spec, xs)),
                            np.atleast_1d(pdf(core, xs)), rtol=1e-12)

    def test_submodel_embeddings_match_core(self):
        # each embeddable family evaluated through the core equals its own
        # closed-form CDF
        rng = np.random.default_rng(32)
        xs = rng.uniform(0.05, 3.0, size=20)
        chen = embed(SubModelSpec("chen", (0.6, 1.4)))
        direct = 1.0 - np.exp(-0.6 * np.expm1(xs ** 1.4))
        assert_allclose(np.atleast_1d(cdf(chen, xs)), direct, rtol=1e-12)

        gepd = embed(SubModelSpec("gepd", (0.7, 1.2, 0.9, 1.8)))
        direct = (1.0 - np.exp(-0.7 * np.expm1(0.9 * xs ** 1.2))) ** 1.8
        assert_allclose(np.atleast_1d(cdf(gepd, xs)), direct, rtol=1e-12)

    def test_density_normalisation(self):
        from egwgd.numerics import integrate
        for spec in (CompetitorSpec("ed", (0.25,)),
                     CompetitorSpec("ged", (0.3, 1.7)),
                     CompetitorSpec("giw", (0.8, 1.4))):
            total = integrate(lambda x, s=spec: np.exp(competitor_log_pdf(s, x)),
                              0.0, math.inf, scale=5.0)
            assert_allclose(total, 1.0, rtol=1e-8)

    def test_effective_parameter_counts(self):
        assert COMPETITOR_K == {"ed": 1, "ged": 2, "gd": 2, "iw": 2, "giw": 3, "egiw": 4}


class TestCompetitorFits:
    def test_ed_closed_form(self):
        spec = fit_competitor("ed", AARSET)
        assert_allclose(spec.params[0], 50.0 / 2284.3, rtol=1e-12)
        assert_allclose(-competitor_loglik(spec, AARSET), 241.0896, atol=1e-3)

    def test_gd_against_independent_oracle(self):
        spec = fit_competitor("gd", AARSET)
        assert_allclose(-competitor_loglik(spec, AARSET), GD_FIT_NEGLOGLIK, atol=1e-4)
        assert_allclose(spec.params[0], GD_FIT_A, rtol=1e-4)
        assert_allclose(spec.params[1], GD_FIT_C, rtol=1e-4)

    def test_ged_fit_beats_printed_point(self):
        spec = fit_competitor("ged", AARSET)
        ours = -competitor_loglik(spec, AARSET)
        printed_point = -competitor_loglik(CompetitorSpec("ged", (0.021, 0.902)), AARSET)
        assert ours <= printed_point + 1e-9

    @pytest.mark.parametrize("kind", ["ged", "gd", "iw", "giw"])
    def test_fit_is_stationary(self, kind):
        assert_stationary(fit_competitor(kind, AARSET), AARSET)

    def test_ged_fit_on_low_spread_data_is_stationary(self):
        # a x reaches 100 at the top of the search interval, where
        # log(-expm1(-a x)) rounds to 0; log1p(-exp(-a x)) does not
        x = np.random.default_rng(9).uniform(9.0, 10.0, 50)
        assert_stationary(fit_competitor("ged", x), x)

    def test_ged_fit_on_a_constant_sample_ends_at_the_search_bound(self):
        # with no spread the likelihood rises without bound in a: a ends at
        # the top of the interval, 100 / mean, and theta is its profile MLE
        x = np.full(20, 9.5)
        spec = fit_competitor("ged", x)
        assert_allclose(spec.params[0] * 9.5, 100.0, rtol=1e-6)
        assert_stationary(spec, x, coords=(1,))

    @pytest.mark.parametrize("kind", ["ged", "gd", "giw", "egiw"])
    def test_a_search_ending_at_its_edge_is_not_converged(self, kind):
        # with no spread the likelihood rises toward one end of each interval
        spec = fit_competitor(kind, np.full(10, 3.0))
        assert spec.converged is False
        assert spec == CompetitorSpec(kind, spec.params)   # equality ignores it

    def test_interior_fits_are_converged(self):
        assert fit_competitor("ed", np.full(10, 3.0)).converged is True
        for kind in COMPETITOR_K:
            assert fit_competitor(kind, AARSET).converged is True
        assert CompetitorSpec("ged", (0.021, 0.902)).converged is True

    @pytest.mark.parametrize("kind", ["giw", "egiw"])
    @pytest.mark.parametrize("scale", [1e7, 1e-7])
    def test_inverse_weibull_fits_far_from_unit_scale_are_converged(self, kind, scale):
        # x^-50, at the top of beta's interval, underflows for every x here
        # (scale 1e7) or overflows (1e-7): the fit must not evaluate it
        x = np.random.default_rng(4).uniform(1.0, 3.0, 40) * scale
        spec = fit_competitor(kind, x)
        assert spec.converged is True
        assert 1.0 < spec.params[-1] < 50.0

    @pytest.mark.parametrize("kind", ["ed", "ged", "gd", "iw", "giw", "egiw"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_values_that_are_not_lifetimes_are_rejected(self, kind, bad):
        with pytest.raises(DomainError, match="all lifetimes must be finite and > 0"):
            fit_competitor(kind, np.append(AARSET, bad))

    def test_empty_data_are_rejected(self):
        with pytest.raises(DomainError, match="at least one value"):
            fit_competitor("ed", [])

    def test_egiw_profiles_the_product(self):
        spec = fit_competitor("egiw", AARSET)
        alpha, theta, beta = spec.params
        assert alpha == 1.0
        giw = fit_competitor("giw", AARSET)
        assert_allclose(theta, giw.params[0], rtol=1e-8)
        assert_allclose(beta, giw.params[1], rtol=1e-8)

    def test_ed_covariance_matches_fisher(self):
        spec = fit_competitor("ed", AARSET)
        a = spec.params[0]
        cov = competitor_covariance(spec, AARSET)
        assert_allclose(cov[0, 0], a * a / 50.0, rtol=1e-4)


class TestKindAliases:
    def test_gompertz_alias_everywhere(self):
        assert embed(SubModelSpec("gompertz", (0.011, 0.018))) == \
            embed(SubModelSpec("gd", (0.011, 0.018)))
        assert CompetitorSpec("gompertz", (0.011, 0.018)).kind == "gd"
        assert fit_competitor("gompertz", AARSET).kind == "gd"

    def test_exponential_alias(self):
        assert fit_competitor("exponential", AARSET).kind == "ed"
