import json
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from egwgd import (
    AARSET,
    Dataset,
    EgwgParams,
    FitConfig,
    FitResult,
    confidence_intervals,
    fit,
    log_cdf,
    log_pdf,
    loglik,
    loglik_grad,
    observed_information,
    profile_theta,
    sample,
)
from egwgd import estimation
from egwgd.estimation import _BIG, PARAM_ORDER, _anchors, _Objective
from egwgd.exceptions import (
    DegenerateInformationError,
    DomainError,
    InvalidParametersError,
    LeftTailUnderflowError,
)
from egwgd.submodels import CompetitorSpec, competitor_covariance, fit_competitor
from conftest import PRINTED_MLE, RECOVERY_TRUTH, random_params

# 50-digit evaluation of the log-likelihood at the printed five-parameter
# MLE, computed before the build.  Of the two published candidates (224.54
# from the -L column, 228.98 implied by AIC/BIC), the evaluation reproduces
# the -L column; the criteria bind to it.
NEGLOGLIK_AT_PRINTED = 224.54259679698711
PROFILE_THETA_AT_PRINTED = 0.24622935682640335

# -L of the default eight-restart Aarset fit (constrained optimum, see README)
AARSET_NEGLOGLIK = 210.91838357686976


# an n = 100 sample on which the first L-BFGS-B run of restart 1 stalls
# (max projected gradient 1.29) and the others stop stationary
RETRY_SAMPLE = Dataset(sample(
    EgwgParams(0.0006997865945133257, 1.5341700654097878, 0.33513633514187957,
               0.42152009886084396, 0.17155509369597563), 100, 179))


def _spy_stages(monkeypatch):
    """Record every optimiser stage fit runs, in call order, as (x0, result)."""
    calls = []
    real = estimation.minimize

    def spy(fun, x0, *args, method=None, **kwargs):
        assert method == "L-BFGS-B"
        r = real(fun, x0, *args, method=method, **kwargs)
        calls.append((np.array(x0), r))
        return r

    monkeypatch.setattr(estimation, "minimize", spy)
    return calls


def _by_restart(calls):
    """[(first L-BFGS-B result, retry result or None)] per restart.

    A retry is the L-BFGS-B run that starts where the one before it ended.
    """
    out = []
    for x0, r in calls:
        if out and out[-1][1] is None and np.array_equal(x0, out[-1][0].x):
            out[-1][1] = r
        else:
            out.append([r, None])
    return [tuple(t) for t in out]


class TestDataset:
    def test_sorts_and_freezes(self):
        d = Dataset(np.array([3.0, 1.0, 2.0]))
        assert list(d.values) == [1.0, 2.0, 3.0]
        assert not d.values.flags.writeable

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Dataset(np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            Dataset(np.array([]))

    def test_label_and_n(self, aarset_data):
        assert aarset_data.label == "aarset"
        assert aarset_data.n == 50
        assert_allclose(float(np.sum(aarset_data.values)), 2284.3, rtol=1e-12)


class TestLoglik:
    def test_single_point_is_log_density(self):
        p = EgwgParams(1.0, 1.0, 1.0, 1.0, 1.0)
        d = Dataset(np.array([1.0]))
        assert_allclose(loglik(p, d), float(log_pdf(p, 1.0)), rtol=1e-15)

    def test_printed_mle_matches_published_column(self, aarset_data):
        val = loglik(PRINTED_MLE, aarset_data)
        assert abs(-val - NEGLOGLIK_AT_PRINTED) < 1e-9
        assert abs(-val - 224.54) < 0.75

    def test_duplication_doubles(self, aarset_data):
        twice = Dataset(np.concatenate([aarset_data.values, aarset_data.values]))
        assert_allclose(loglik(PRINTED_MLE, twice), 2.0 * loglik(PRINTED_MLE, aarset_data),
                        rtol=1e-15)

    def test_b_zero_rejected(self, aarset_data):
        with pytest.raises(InvalidParametersError):
            loglik(EgwgParams(1.0, 0.0, 1.0, 1.0, 1.0), aarset_data)

    def test_overflow_region_gives_minus_inf(self, aarset_data):
        assert loglik(EgwgParams(1e4, 4.0, 50.0, 4.0, 1.0), aarset_data) == -math.inf


class TestGradient:
    @staticmethod
    def fd_gradient(p, data, rel=6e-6):
        base = np.array([p.a, p.b, p.c, p.d, p.theta])
        out = np.empty(5)
        for i in range(5):
            h = rel * max(abs(base[i]), 1e-8)
            up, dn = base.copy(), base.copy()
            up[i] += h
            dn[i] -= h
            out[i] = (loglik(EgwgParams(*up), data) - loglik(EgwgParams(*dn), data)) / (2 * h)
        return out

    def test_matches_finite_differences(self, aarset_data):
        rng = np.random.default_rng(55)
        datasets = [
            aarset_data,
            Dataset(sample(RECOVERY_TRUTH, 300, 2)),
            Dataset(sample(EgwgParams(0.3, 0.8, 0.9, 1.1, 1.4), 200, 9)),
        ]
        for data in datasets:
            checked = 0
            while checked < 30:
                p = EgwgParams(
                    a=float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5)))),
                    b=float(rng.uniform(0.1, 1.5)),
                    c=float(np.exp(rng.uniform(np.log(0.05), np.log(1.0)))),
                    d=float(rng.uniform(0.4, 1.5)),
                    theta=float(np.exp(rng.uniform(np.log(0.2), np.log(3.0)))),
                )
                L = loglik(p, data)
                if not math.isfinite(L) or abs(L) > 1e5:
                    continue   # double-precision FD is meaningless at such scales
                checked += 1
                an = loglik_grad(p, data)
                fd = self.fd_gradient(p, data)
                denom = np.maximum(np.abs(fd), 1e-6 * max(1.0, abs(L)))
                assert np.max(np.abs(an - fd) / denom) < 1e-5

    def test_matches_finite_differences_where_c_x_d_is_tiny(self):
        # at x = 1e-14, c x^d = 1.3e-19, where 1 + (c d / b) x^d - e^{-c x^d}
        # cancels to 0 in floating point
        data = Dataset(np.array([1e-14, 1e-3, 0.5, 1.0, 2.0]))
        p = EgwgParams(0.05, 0.05, 0.2, 1.3, 0.2)
        an = loglik_grad(p, data)
        fd = self.fd_gradient(p, data)
        assert np.max(np.abs(an - fd) / np.abs(fd)) < 1e-5

    def test_matches_finite_differences_where_c_x_d_underflows(self):
        # at x = 1e-200, x^d = 1e-400 underflows to 0, so W = 1 + (c d / b) x^d
        # - e^{-c x^d} is 0 and its ratios take their c x^d -> 0 limits
        data = Dataset(np.array([1e-200, 0.5, 1.0, 2.0, 3.0, 5.0]))
        a, b, c, d = 0.1, 0.5, 0.05, 2.0
        p = EgwgParams(a, b, c, d, profile_theta(a, b, c, d, data))
        assert abs(loglik(p, data)) < 1e3
        an = loglik_grad(p, data)[:4]   # dL/dtheta = 0 at the profile, below FD noise
        fd = self.fd_gradient(p, data)[:4]
        assert np.max(np.abs(an - fd) / np.abs(fd)) < 1e-5

    def test_theta_component_zero_at_profile(self, aarset_data):
        a, b, c, d = 2e-4, 0.3, 0.3, 0.8
        th = profile_theta(a, b, c, d, aarset_data)
        g = loglik_grad(EgwgParams(a, b, c, d, th), aarset_data)
        assert abs(g[4]) < 1e-10 * max(1.0, abs(loglik(EgwgParams(a, b, c, d, th), aarset_data)))


class TestProfileTheta:
    def test_single_point_unit_theta(self):
        # choose a so that ln(1 - e^{-z}) = -1 at x = 1
        z = -math.log(1.0 - math.exp(-1.0))
        a = z / math.expm1(1.0)
        d = Dataset(np.array([1.0]))
        assert_allclose(profile_theta(a, 1.0, 1.0, 1.0, d), 1.0, rtol=1e-12)

    def test_replicated_construction(self):
        z = -math.log(1.0 - math.exp(-1.0))
        a = z / math.expm1(1.0)
        d = Dataset(np.array([1.0, 1.0, 1.0]))
        assert_allclose(profile_theta(a, 1.0, 1.0, 1.0, d), 1.0, rtol=1e-12)

    def test_printed_quadruple_reproduces_theta(self, aarset_data):
        th = profile_theta(PRINTED_MLE.a, PRINTED_MLE.b, PRINTED_MLE.c, PRINTED_MLE.d,
                           aarset_data)
        assert_allclose(th, PROFILE_THETA_AT_PRINTED, rtol=1e-10)
        assert abs(th - 0.246) / 0.246 < 0.15

    @staticmethod
    def unit_theta_profile(a, b, c, d, data):
        with np.errstate(divide="ignore"):
            return -data.n / np.sum(log_cdf(EgwgParams(a, b, c, d, 1.0), data.values))

    def test_is_exactly_the_unit_theta_log_cdf(self, aarset_data):
        # one inner kernel: the profile sums the same log(1 - e^{-z}) as log_cdf
        rng = np.random.default_rng(4)
        lo, hi = np.log(FitConfig().box).T
        compared = 0
        for _ in range(200):
            a, b, c, d = np.exp(rng.uniform(lo, hi))
            want = self.unit_theta_profile(a, b, c, d, aarset_data)
            if math.isfinite(want):
                compared += 1
                assert profile_theta(a, b, c, d, aarset_data) == want
            else:   # every log F rounds to 0
                with pytest.raises(LeftTailUnderflowError):
                    profile_theta(a, b, c, d, aarset_data)
        assert compared >= 150

    def test_finite_where_x_d_underflows(self):
        # x^d underflows to exactly 0; log z is carried as log a + b log x + log c + d log x
        d = Dataset(np.array([1e-300]))
        th = profile_theta(1e-10, 1.0, 1e-6, 2.0, d)
        assert math.isfinite(th)
        assert th == self.unit_theta_profile(1e-10, 1.0, 1e-6, 2.0, d)

    def test_profile_maximises_over_theta(self, aarset_data):
        a, b, c, d = PRINTED_MLE.a, PRINTED_MLE.b, PRINTED_MLE.c, PRINTED_MLE.d
        th_hat = profile_theta(a, b, c, d, aarset_data)
        best = loglik(EgwgParams(a, b, c, d, th_hat), aarset_data)
        for th in np.linspace(th_hat / 3.0, 3.0 * th_hat, 60):
            assert loglik(EgwgParams(a, b, c, d, float(th)), aarset_data) <= best + 1e-9


class TestObjective:
    def test_is_exactly_the_profiled_likelihood(self, aarset_data):
        # the fit's cost follows last-bit changes in the objective, so the
        # identity with the public functions is exact, not approximate
        obj = _Objective(aarset_data)
        rng = np.random.default_rng(31)
        lo = np.log([b[0] for b in FitConfig().box])
        hi = np.log([b[1] for b in FitConfig().box])
        tenable = untenable = huge = 0
        for _ in range(50):
            u = rng.uniform(lo, hi)
            f, gu = obj.value_grad(u)
            assert obj.value(u) == f
            a, b, c, d = np.exp(u)
            try:
                p = EgwgParams(a, b, c, d, profile_theta(a, b, c, d, aarset_data))
            except LeftTailUnderflowError:
                p = None
            ll = -math.inf if p is None else loglik(p, aarset_data)
            assert f == (-ll if math.isfinite(ll) else _BIG)
            if f == _BIG:   # only the sentinel has no slope
                untenable += 1
                assert not np.any(gu)
                continue
            tenable += 1
            huge += f > _BIG
            with np.errstate(all="ignore"):
                expected = -loglik_grad(p, aarset_data)[:4] * np.exp(u)
            if np.all(np.isfinite(expected)):
                np.testing.assert_array_equal(gu, expected)
            else:
                assert not np.any(gu)
        assert tenable >= 30 and untenable >= 5 and huge >= 3

    # Finite -L far above _BIG: the gradient L-BFGS-B's line search sees at
    # such a trial point must be its slope, not zero.
    @given(st.tuples(*(st.floats(lo, hi) for lo, hi in np.log(FitConfig().box))))
    @example((-9.73218504, 0.46970097, 2.74277722, -1.42786419))   # -L = 3.5e19
    def test_gradient_matches_central_differences(self, aarset_data, u):
        obj = _Objective(aarset_data)
        u = np.array(u)
        f, gu = obj.value_grad(u)
        assume(f != _BIG)
        a, b, c, d = np.exp(u)
        p = EgwgParams(a, b, c, d, profile_theta(a, b, c, d, aarset_data))
        with np.errstate(all="ignore"):
            assume(np.all(np.isfinite(loglik_grad(p, aarset_data))))   # no overflow
        h = 1e-6
        fd = np.empty(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            up, dn = obj.value(u + e), obj.value(u - e)
            assume(_BIG not in (up, dn))
            fd[i] = (up - dn) / (2.0 * h)
        assert np.max(np.abs(gu - fd)) <= 1e-4 * np.max(np.abs(fd))


class TestFit:
    def test_aarset_beats_published_likelihood(self, aarset_egwgd_fit):
        assert -aarset_egwgd_fit.loglik <= 229.5
        assert aarset_egwgd_fit.converged
        assert aarset_egwgd_fit.restarts_used == 8

    def test_terminus_never_below_anchors(self, aarset_data, aarset_egwgd_fit):
        obj = _Objective(aarset_data)
        box = FitConfig().box
        lo = np.log([b[0] for b in box])
        hi = np.log([b[1] for b in box])
        for anchor in _anchors(aarset_data.values, 8):
            u0 = np.log(np.asarray(anchor))
            start_val = -obj.value(np.clip(u0, lo, hi))
            assert aarset_egwgd_fit.loglik >= start_val - 1e-9

    def test_aarset_loglik_is_kept(self, aarset_egwgd_fit):
        assert abs(aarset_egwgd_fit.loglik + AARSET_NEGLOGLIK) <= 1e-9

    def test_loglik_is_that_of_the_reported_params(self):
        # law 1 of generator seed 1, where L-BFGS-B's own value at the
        # terminus differs from the log-likelihood there by 7.1e-15
        rng = np.random.default_rng(1)
        law = [random_params(rng) for _ in range(2)][1]
        data = Dataset(sample(law, 30, 1040))
        res = fit(data)
        assert res.loglik == loglik(res.params, data)

    def test_retry_runs_only_where_lbfgsb_stops_short(self, monkeypatch):
        cfg = FitConfig()
        calls = _spy_stages(monkeypatch)
        fit(RETRY_SAMPLE, cfg)
        restarts = _by_restart(calls)
        assert len(restarts) == cfg.n_restarts
        obj = _Objective(RETRY_SAMPLE)
        lo = np.log([b[0] for b in cfg.box])
        hi = np.log([b[1] for b in cfg.box])
        for anchor, (r1, r2) in zip(_anchors(RETRY_SAMPLE.values, cfg.n_restarts), restarts):
            f0 = obj.value(np.clip(np.log(anchor), lo, hi))
            _, gu = obj.value_grad(r1.x)
            inert = ((np.isclose(r1.x, lo, rtol=0.0, atol=1e-12) & (gu > 0.0))
                     | (np.isclose(r1.x, hi, rtol=0.0, atol=1e-12) & (gu < 0.0)))
            pg = np.max(np.abs(gu[~inert]), initial=0.0)
            stationary = r1.fun < _BIG and pg <= cfg.stationarity_scale * max(1.0, abs(r1.fun))
            assert (r2 is not None) == (not stationary or r1.fun > f0)
        # some restarts need the retry and some do not
        assert 0 < sum(r2 is not None for _, r2 in restarts) < cfg.n_restarts

    def test_retry_rescues_a_stalled_single_restart(self):
        # without the retry this fit ends non-converged at -L = 312.366
        res = fit(RETRY_SAMPLE, FitConfig(n_restarts=1))
        assert res.converged
        assert abs(res.loglik + 307.88457560264146) <= 1e-9

    def test_short_lbfgsb_retries_everywhere(self, aarset_data, monkeypatch):
        calls = _spy_stages(monkeypatch)
        res = fit(aarset_data, FitConfig(polish_max_iter=1))
        restarts = _by_restart(calls)
        assert len(restarts) == 8
        assert all(r2 is not None for _, r2 in restarts)
        assert not res.converged   # one iteration per run reaches no stationary point

    def test_debug_record_per_restart(self, monkeypatch, caplog):
        cfg = FitConfig()
        calls = _spy_stages(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="egwgd"):
            fit(RETRY_SAMPLE, cfg)
        records = [r for r in caplog.records if r.name == "egwgd.estimation"]
        restarts = _by_restart(calls)
        assert len(records) == len(restarts) == cfg.n_restarts
        for k, (rec, (r1, r2)) in enumerate(zip(records, restarts), start=1):
            msg = rec.getMessage()
            assert rec.levelno == logging.DEBUG
            assert msg.startswith(f"restart {k}: L-BFGS-B nfev={r1.nfev} ({r1.message}), "
                                  "max projected gradient ")
            if r2 is None:
                assert msg.endswith("; retry skipped")
            else:
                assert msg.endswith(f"; retry ran: nfev={r2.nfev} ({r2.message})")

    def test_library_logger_is_silent_by_default(self):
        handlers = logging.getLogger("egwgd").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_needs_five_points(self):
        with pytest.raises(DomainError):
            fit(Dataset(np.array([1.0, 2.0, 3.0, 4.0])))

    def test_degenerate_data_is_best_effort_not_a_crash(self):
        # zero-spread data: the continuous likelihood has no finite optimum,
        # so the fit comes back non-converged (or, when every restart is
        # untenable, fails with an explicit error) -- never a silent success
        try:
            res = fit(Dataset(np.full(6, 3.0)), FitConfig(n_restarts=3))
        except DomainError:
            return
        assert res.converged is False
        assert math.isfinite(res.loglik)

    def test_no_evaluable_restart_raises(self):
        with pytest.raises(DomainError):
            fit(Dataset(np.full(6, 3.0)), FitConfig(n_restarts=2))

    def test_deterministic(self, aarset_data):
        cfg = FitConfig(n_restarts=2)
        r1 = fit(aarset_data, cfg)
        r2 = fit(aarset_data, cfg)
        assert r1.params == r2.params
        assert r1.loglik == r2.loglik

    def test_covariance_is_inverse_information(self, recovery_case):
        res = recovery_case["fit"]
        info = observed_information(res.params, recovery_case["data"])
        prod = res.covariance @ info
        assert np.max(np.abs(prod - np.eye(5))) < 1e-6 * np.linalg.cond(info)

    def test_interior_terminus_is_stationary(self, recovery_case):
        # log-space gradient max-norm at an interior optimizer terminus
        res = recovery_case["fit"]
        assert res.converged
        p = res.params
        g = loglik_grad(p, recovery_case["data"])
        gu = g * np.array([p.a, p.b, p.c, p.d, p.theta])
        assert np.max(np.abs(gu)) <= 1e-4 * max(1.0, abs(res.loglik))

    def test_simulation_recovery_fixture(self, recovery_case):
        res = recovery_case["fit"]
        # the fit must never be beaten by the generating parameters
        assert res.loglik >= recovery_case["loglik_truth"]
        truth = recovery_case["truth"].to_dict()
        fitted = res.params.to_dict()
        rel = {k: abs(fitted[k] - truth[k]) / truth[k] for k in truth}
        assert max(rel.values()) <= 0.25, (
            "component-wise recovery outside 25%: "
            + json.dumps({k: round(v, 3) for k, v in rel.items()})
            + " -- the exact MLE of this sloppy family sits far from the truth"
            + " in parameter space at n=2000 (see notes in the fit docstring)")


class TestObservedInformation:
    def test_ed_scalar_information(self):
        spec = fit_competitor("ed", AARSET)
        a = spec.params[0]
        cov = competitor_covariance(spec, AARSET)
        info = 1.0 / cov[0, 0]
        assert_allclose(info, 50.0 / a ** 2, rtol=1e-4)

    def test_printed_mle_symmetric_near_psd(self, aarset_data):
        info = observed_information(PRINTED_MLE, aarset_data)
        assert np.array_equal(info, info.T)
        ev = np.linalg.eigvalsh(info)
        assert np.all(ev >= -1e-6 * np.trace(info))

    def test_interior_requirement(self, aarset_data):
        with pytest.raises(InvalidParametersError):
            observed_information(EgwgParams(1.0, 0.0, 1.0, 1.0, 1.0), aarset_data)


def _make_result(params, cov, level=0.95):
    return FitResult(params=params, loglik=0.0, covariance=np.asarray(cov, dtype=float),
                     intervals=None, level=level, converged=True, n_evals=0,
                     restarts_used=0)


class TestConfidenceIntervals:
    def test_zero_variance_collapses(self):
        res = _make_result(PRINTED_MLE, np.zeros((5, 5)))
        ci = confidence_intervals(res, 0.95)
        for name, est in zip(PARAM_ORDER, [PRINTED_MLE.a, PRINTED_MLE.b, PRINTED_MLE.c,
                                           PRINTED_MLE.d, PRINTED_MLE.theta]):
            assert ci[name] == (est, est)

    def test_published_interval_reproduction(self):
        cov = np.zeros((5, 5))
        cov[0, 0] = 5.854e-10
        res = _make_result(PRINTED_MLE, cov)
        lo, hi = confidence_intervals(res, 0.95)["a"]
        assert abs(lo - 0.000037) <= 1e-6
        assert abs(hi - 0.000132) <= 1e-6

    def test_half_width_over_sd_is_z(self):
        cov = np.diag([4e-8, 1e-4, 2.5e-3, 9e-4, 1.6e-3])
        res = _make_result(PRINTED_MLE, cov)
        from scipy.stats import norm
        z = float(norm.ppf(0.975))
        ci = confidence_intervals(res, 0.95)
        for name, var in zip(PARAM_ORDER, np.diag(cov)):
            lo, hi = ci[name]
            assert_allclose((hi - lo) / 2.0 / math.sqrt(var), z, rtol=1e-12)

    def test_negative_variance_names_coordinate(self):
        cov = np.diag([1e-8, -1e-4, 1e-3, 1e-3, 1e-3])
        res = _make_result(PRINTED_MLE, cov)
        with pytest.raises(DegenerateInformationError) as err:
            confidence_intervals(res, 0.95)
        assert err.value.coordinate == "b"

    def test_level_domain(self):
        res = _make_result(PRINTED_MLE, np.zeros((5, 5)))
        with pytest.raises(DomainError):
            confidence_intervals(res, 1.2)

    def test_wald_coverage_ed(self):
        # 500 replications of the exponential fit at n = 200, nominal 95%
        a0 = 0.5
        n = 200
        z = 1.959963984540054
        hits = 0
        for rep in range(500):
            rng = np.random.Generator(np.random.Philox(10_000 + rep))
            x = -np.log1p(-rng.random(n)) / a0
            a_hat = n / float(np.sum(x))
            spec = CompetitorSpec("ed", (a_hat,))
            var = competitor_covariance(spec, x)[0, 0]
            half = z * math.sqrt(var)
            hits += (a_hat - half <= a0 <= a_hat + half)
        coverage = hits / 500.0
        assert 0.92 <= coverage <= 0.98


class TestSerialization:
    def test_fit_result_round_trip(self, aarset_egwgd_fit):
        payload = aarset_egwgd_fit.to_json_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        assert back == payload
        assert back["covariance"]["order"] == ["a", "b", "c", "d", "theta"]
        assert len(back["covariance"]["values"]) == 25
        assert EgwgParams.from_dict(back["params"]) == aarset_egwgd_fit.params

    def test_fit_config_round_trip(self):
        cfg = FitConfig(n_restarts=4, ci_level=0.9)
        back = FitConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert back == cfg
