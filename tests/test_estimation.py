import functools
import json
import logging
import math
import tracemalloc
from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

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
from egwgd import distribution as dist
from egwgd import estimation, optimize
from egwgd.estimation import PARAM_ORDER, _anchors, _Objective
from egwgd.exceptions import (
    DegenerateInformationError,
    DomainError,
    InvalidParametersError,
    LeftTailUnderflowError,
)
from egwgd.optimize import _projgr, _tenable, minimize
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

# n = 1000 with one point at 1e-100: large enough for the profiled objective
# to reach log_pdf's theta < 1 clamp (see TestObjective)
CLAMP_SAMPLE = Dataset(np.append(sample(EgwgParams(0.5, 1.0, 0.5, 1.0, 1.0), 999, 3), 1e-100))

# the n = 20000 midpoint-quantile sample of the recovery law that perfbench's
# sample-fit workload fits
BIG_SAMPLE = Dataset(dist._batch_quantile(RECOVERY_TRUTH, (np.arange(20000) + 0.5) / 20000))

# the n = 500 sample of law 3 of generator seed 1 in tests/sweep.py's 72-law sweep
SWEEP_SAMPLE = Dataset(sample([random_params(np.random.default_rng(1)) for _ in range(4)][3],
                              500, 1000 * 1 + 10 * 3 + 500))

TRANSCENDENTAL = ("exp", "expm1", "log", "log1p", "power", "sqrt")


class _CountingNumpy:
    """Stands in for a module's np and counts, by name, each numpy function
    call that receives an array of n elements; ndarray methods such as
    .sum() are not seen."""

    def __init__(self, n):
        self.n = n
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def call(*args, **kwargs):
            if any(isinstance(v, np.ndarray) and v.shape[-1:] == (self.n,)
                   for v in (*args, *kwargs.values())):
                self.calls[name] += 1
            return attr(*args, **kwargs)

        return call


def _spy_stages(monkeypatch):
    """Record every L-BFGS-B run fit starts, in start order, as [x0, result].

    fit runs its restarts in lock-step as generators (``optimize._lbfgsb``),
    so the spy wraps that seam; each record gets its result when its run ends.
    """
    calls = []
    real = estimation._lbfgsb

    def spy(x0, *args, **kwargs):
        rec = [np.array(x0), None]
        calls.append(rec)
        rec[1] = yield from real(x0, *args, **kwargs)
        return rec[1]

    monkeypatch.setattr(estimation, "_lbfgsb", spy)
    return calls


def _by_restart(calls):
    """[(first L-BFGS-B result, retry result or None)] per restart, in restart order.

    A retry is the L-BFGS-B run that starts where an earlier first run
    ended; the first runs start in restart order.
    """
    out = []
    for x0, r in calls:
        first = next((t for t in out if t[1] is None and np.array_equal(x0, t[0].x)), None)
        if first is None:
            out.append([r, None])
        else:
            first[1] = r
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

    def test_label_and_n(self, aarset_data):   # Dataset has no label
        assert [f.name for f in fields(Dataset)] == ["values"]
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
        lo, hi = np.log(estimation._BOX).T
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


# a point of the search box, u = log(a, b, c, d)
BOX_POINTS = st.tuples(*(st.floats(lo, hi) for lo, hi in np.log(estimation._BOX)))


@functools.cache
def _edge_rows(name):
    """Fixed points for the block property on AARSET ("aarset") or
    CLAMP_SAMPLE ("clamp"): one with d = 0.5; one where numpy's log of a
    differs from math.log's and numpy's square of b from a float's b ** 2,
    rare points where a row must not take numpy's function for a law's scalar;
    one where the objective is +inf and, on CLAMP_SAMPLE, two where
    log_pdf's theta < 1 clamp acts and c x^d underflows."""
    data = Dataset(AARSET) if name == "aarset" else CLAMP_SAMPLE
    obj = _Objective(data)
    rows = [np.log([0.01, 0.5, 0.3, 0.5])]
    assert np.exp(rows[0])[3] == 0.5
    lo, hi = np.log(estimation._BOX).T
    rng = np.random.default_rng(5)
    # b below 1e-2, where c d / b^2 dominates dL/db
    u = rng.uniform(lo, np.log([1e4, 1e-2, 50.0, 4.0]), (100_000, 4))
    P = np.exp(u)
    log_a = np.log(P[:, :1])[:, 0] != [math.log(v) for v in P[:, 0]]
    b_sq = (P[:, 1:2] ** 2)[:, 0] != [v ** 2 for v in P[:, 1]]
    # (any point, where numpy and the C library agree on every one)
    rows.append(next(v for v in (np.concatenate((u[i, :1], u[j, 1:]))
                                 for i in (np.flatnonzero(log_a)[:20] if log_a.any() else range(20))
                                 for j in (np.flatnonzero(b_sq)[:20] if b_sq.any() else range(20)))
                     if math.isfinite(obj.value_grad(v)[0])))
    rows.append(next(v for v in rng.uniform(lo, hi, (400, 4)) if obj.value_grad(v)[0] == math.inf))
    if name == "clamp":
        x = data.values
        for u in TestObjective.clamp_box_points(12, 400):
            a, b, c, d = np.exp(u)
            p = EgwgParams(a, b, c, d, profile_theta(a, b, c, d, data))
            if TestObjective.clamp_runs(p, data) and np.any(c * x ** d == 0.0):
                rows.append(u)
            if len(rows) == 5:
                break
        assert len(rows) == 5
    return [tuple(u) for u in rows]


class TestObjective:
    @staticmethod
    def count_kernel_passes(monkeypatch):
        """The number of points that each later dist._inner call receives, in call order."""
        calls = []
        real = dist._inner

        def spy(*args, **kwargs):
            calls.append(np.size(args[4]))
            return real(*args, **kwargs)

        monkeypatch.setattr(dist, "_inner", spy)
        return calls

    @staticmethod
    def clamp_box_points(seed, count):
        """u = log(a, b, c, d), uniform in natural units over a corner of the
        box where, on CLAMP_SAMPLE, theta-hat < 1 and log_pdf's clamp runs."""
        rng = np.random.default_rng(seed)
        return np.log(rng.uniform([1e-3, 2.0, 0.01, 2.0], [10.0, 4.0, 5.0, 4.0], (count, 4)))

    @staticmethod
    def clamp_runs(p, data):
        with np.errstate(divide="ignore"):
            return p.theta < 1.0 and np.min(log_cdf(p, data.values)) < math.log(1e-300)

    def test_one_kernel_pass(self, aarset_data, monkeypatch):
        calls = self.count_kernel_passes(monkeypatch)
        u = np.log([PRINTED_MLE.a, PRINTED_MLE.b, PRINTED_MLE.c, PRINTED_MLE.d])
        f, gu = _Objective(aarset_data).value_grad(u)
        assert len(calls) == 1
        assert math.isfinite(f) and np.all(gu)

    def test_is_exactly_the_loglik_where_the_clamp_runs(self, monkeypatch):
        # at the profiled theta every theta * log(1 - e^{-z_i}) >= -n, so only
        # a sample with n >= 691 can reach log F < log 1e-300
        obj = _Objective(CLAMP_SAMPLE)
        calls = self.count_kernel_passes(monkeypatch)
        clamped = 0
        for u in self.clamp_box_points(12, 400):
            calls.clear()
            f, _ = obj.value_grad(u)
            points = list(calls)
            a, b, c, d = np.exp(u)
            p = EgwgParams(a, b, c, d, profile_theta(a, b, c, d, CLAMP_SAMPLE))
            assert f == -loglik(p, CLAMP_SAMPLE)
            clamp = self.clamp_runs(p, CLAMP_SAMPLE)
            # the data's pass, and the clamp's own pass over the one clamp point
            assert points == [CLAMP_SAMPLE.n] + [1] * int(clamp)
            clamped += clamp
        assert clamped >= 200

    def test_a_block_row_clamps_with_a_pass_over_one_point(self, monkeypatch):
        u = self.clamp_box_points(12, 8)
        clamped = 0
        for a, b, c, d in np.exp(u):
            p = EgwgParams(a, b, c, d, profile_theta(a, b, c, d, CLAMP_SAMPLE))
            clamped += self.clamp_runs(p, CLAMP_SAMPLE)
        assert 0 < clamped < len(u)
        obj = _Objective(CLAMP_SAMPLE)
        assert obj.pass_rows >= len(u)
        calls = self.count_kernel_passes(monkeypatch)
        obj.value_grad(u)
        assert calls == [CLAMP_SAMPLE.n] + [1] * clamped

    def test_gradient_matches_central_differences_on_tiny_x(self):
        obj = _Objective(CLAMP_SAMPLE)
        checked = 0
        for u in self.clamp_box_points(13, 100):
            f, gu = obj.value_grad(u)
            a, b, c, d = np.exp(u)
            p = EgwgParams(a, b, c, d, profile_theta(a, b, c, d, CLAMP_SAMPLE))
            if not (math.isfinite(f) and np.all(np.isfinite(gu))
                    and self.clamp_runs(p, CLAMP_SAMPLE)):
                continue
            h = 1e-6
            fd = np.array([(obj.value_grad(u + e)[0] - obj.value_grad(u - e)[0]) / (2.0 * h)
                           for e in h * np.eye(4)])
            assert np.max(np.abs(gu - fd)) <= 1e-4 * np.max(np.abs(fd))
            checked += 1
        assert checked >= 50

    def test_is_exactly_the_profiled_likelihood(self, aarset_data):
        # the fit's cost follows last-bit changes in the objective, so the
        # identity with the public functions is exact, not approximate
        obj = _Objective(aarset_data)
        rng = np.random.default_rng(31)
        lo = np.log([b[0] for b in estimation._BOX])
        hi = np.log([b[1] for b in estimation._BOX])
        tenable = untenable = huge = 0
        for _ in range(50):
            u = rng.uniform(lo, hi)
            f, gu = obj.value_grad(u)
            assert obj.value_grad(u)[0] == f
            a, b, c, d = np.exp(u)
            try:
                p = EgwgParams(a, b, c, d, profile_theta(a, b, c, d, aarset_data))
            except LeftTailUnderflowError:
                p = None
            ll = -math.inf if p is None else loglik(p, aarset_data)
            assert f == (-ll if math.isfinite(ll) else math.inf)
            if f == math.inf:   # an untenable point: only its value is defined
                untenable += 1
                continue
            tenable += 1
            huge += f > 1e13   # finite -L far from any optimum
            with np.errstate(all="ignore"):
                expected = -loglik_grad(p, aarset_data)[:4] * np.exp(u)
            # an overflowed component stays non-finite, for L-BFGS-B to back off from
            np.testing.assert_array_equal(gu, expected)
        assert tenable >= 30 and untenable >= 5 and huge >= 3

    # Finite -L far above 1e13: the gradient L-BFGS-B's line search sees at
    # such a trial point must be its slope, not zero.
    @given(st.tuples(*(st.floats(lo, hi) for lo, hi in np.log(estimation._BOX))))
    @example((-9.73218504, 0.46970097, 2.74277722, -1.42786419))   # -L = 3.5e19
    def test_gradient_matches_central_differences(self, aarset_data, u):
        obj = _Objective(aarset_data)
        u = np.array(u)
        f, gu = obj.value_grad(u)
        assume(math.isfinite(f))
        a, b, c, d = np.exp(u)
        p = EgwgParams(a, b, c, d, profile_theta(a, b, c, d, aarset_data))
        with np.errstate(all="ignore"):
            assume(np.all(np.isfinite(loglik_grad(p, aarset_data))))   # no overflow
        h = 1e-6
        fd = np.empty(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            up, dn = obj.value_grad(u + e)[0], obj.value_grad(u - e)[0]
            assume(math.isfinite(up) and math.isfinite(dn))
            fd[i] = (up - dn) / (2.0 * h)
        assert np.max(np.abs(gu - fd)) <= 1e-4 * np.max(np.abs(fd))

    @pytest.mark.parametrize("name", ["clamp", "retry", "sweep"])
    @given(u=BOX_POINTS)
    def test_gradient_matches_central_differences_off_aarset(self, name, u):
        data = {"clamp": CLAMP_SAMPLE, "retry": RETRY_SAMPLE, "sweep": SWEEP_SAMPLE}[name]
        obj = _Objective(data)
        u = np.array(u)
        f, gu = obj.value_grad(u)
        assume(math.isfinite(f) and np.all(np.isfinite(gu)))
        h = 1e-6
        fd = np.empty(4)
        for i, e in enumerate(h * np.eye(4)):
            up, dn = obj.value_grad(u + e)[0], obj.value_grad(u - e)[0]
            assume(math.isfinite(up) and math.isfinite(dn))
            fd[i] = (up - dn) / (2.0 * h)
        assert np.max(np.abs(gu - fd)) <= 1e-4 * np.max(np.abs(fd))

    def test_gradient_is_finite_where_natural_space_sums_overflowed(self, aarset_data):
        # the gradient once summed x^b x^d e^{c x^d} before it multiplied by
        # a = 9.2e-11, so dL/dc and dL/dd overflowed here at -L = 8.4e295;
        # its sums now take a in through z
        obj = _Objective(aarset_data)
        u = np.array([-23.111, 0.837, -1.689, 0.614])
        f, gu = obj.value_grad(u)
        assert math.isfinite(f) and np.all(np.isfinite(gu))
        h = 1e-6
        fd = np.array([(obj.value_grad(u + e)[0] - obj.value_grad(u - e)[0]) / (2.0 * h)
                       for e in h * np.eye(4)])
        assert np.max(np.abs(gu - fd)) <= 1e-4 * np.max(np.abs(fd))

    # fit evaluates the points of all its runs as the rows of one block; each
    # row must be what the point alone gives, or the runs would not be the
    # runs L-BFGS-B makes alone
    @given(st.data())
    def test_a_block_is_its_rows_bit_for_bit(self, draw):
        name = draw.draw(st.sampled_from(["aarset", "clamp"]))
        points = draw.draw(st.lists(BOX_POINTS, max_size=20))
        u = np.array(draw.draw(st.permutations(points + _edge_rows(name))))
        data = Dataset(AARSET) if name == "aarset" else CLAMP_SAMPLE
        f, g = _Objective(data).value_grad(u)
        assert f.shape == (len(u),) and g.shape == (len(u), 4)
        one = _Objective(data)
        for ui, fi, gi in zip(u, f, g):
            f1, g1 = one.value_grad(ui)
            assert fi == f1
            if f1 < math.inf:   # at an untenable point only the value is defined
                np.testing.assert_array_equal(gi, g1)

    def test_a_block_of_the_longest_rows_is_its_rows_bit_for_bit(self):
        # a block's rows are at most _PASS_POINTS // 2 = 8192 points long;
        # up to there einsum sums each row as its one-row call does
        n = estimation._PASS_POINTS // 2
        data = Dataset(dist._batch_quantile(RECOVERY_TRUTH, (np.arange(n) + 0.5) / n))
        p = RECOVERY_TRUTH
        u = np.log([p.a, p.b, p.c, p.d]) + np.random.default_rng(8).normal(0.0, 0.1, (2, 4))
        f, g = _Objective(data).value_grad(u)
        assert np.all(np.isfinite(f))
        one = _Objective(data)
        for ui, fi, gi in zip(u, f, g):
            f1, g1 = one.value_grad(ui)
            assert fi == f1
            np.testing.assert_array_equal(gi, g1)

    def test_an_evaluation_at_n_20000_makes_few_passes_over_the_data(self, monkeypatch):
        # a counter, not a wall time: the numpy calls that one one-row
        # evaluation makes over the data (91, 19 of them transcendental,
        # before the kernel took each transcendental once)
        p = RECOVERY_TRUTH
        u = np.log([p.a, p.b, p.c, p.d])
        obj = _Objective(BIG_SAMPLE)
        obj.value_grad(u)
        counter = _CountingNumpy(BIG_SAMPLE.n)
        monkeypatch.setattr(dist, "np", counter)
        monkeypatch.setattr(estimation, "np", counter)
        f, gu = obj.value_grad(u + 0.01)
        monkeypatch.undo()
        assert math.isfinite(f) and np.all(np.isfinite(gu))
        assert counter.calls["exp"] > 0
        assert sum(counter.calls.values()) <= 68
        assert sum(counter.calls[name] for name in TRANSCENDENTAL) <= 12

    def test_a_column_takes_each_law_s_log_from_math_log(self):
        # numpy's log differs from math.log in the last bit on some floats
        # (on a few in 10^4 of these with numpy 2.4 on AVX-512), often too
        # little to show in -L; a block's rows must still take the one-law
        # function
        v = np.exp(np.random.default_rng(3).uniform(math.log(0.01), math.log(1e4), 20_000))
        assert dist._log(v[:, None])[:, 0].tolist() == [math.log(t) for t in v]

    @pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
    def test_is_the_public_loglik_bit_for_bit_at_n_20000(self, d):
        # x^d is e^{d log x} on every path; the workspace's log x and its sum
        # must be the bits that fresh arrays give
        u = np.log([RECOVERY_TRUTH.a, RECOVERY_TRUTH.b, 1e-3, d])
        a, b, c, d_u = np.exp(u)
        assert d_u == d
        f, gu = _Objective(BIG_SAMPLE).value_grad(u)
        p = EgwgParams(a, b, c, d_u, profile_theta(a, b, c, d_u, BIG_SAMPLE))
        assert math.isfinite(f) and f == -loglik(p, BIG_SAMPLE)
        np.testing.assert_array_equal(gu, -loglik_grad(p, BIG_SAMPLE)[:4] * np.exp(u))

    def edge_points(self, monkeypatch):
        """On CLAMP_SAMPLE: u1, where neither the clamp nor the c x^d
        underflow acts; u2 and u3, where both act; and an untenable point,
        where the objective is +inf."""
        calls = self.count_kernel_passes(monkeypatch)
        obj = _Objective(CLAMP_SAMPLE)
        x = CLAMP_SAMPLE.values

        def passes_and_under(u):
            calls.clear()
            f = obj.value_grad(u)[0]
            _, _, c, d = np.exp(u)
            return f, len(calls), bool(np.any(c * x ** d == 0.0))

        u1 = np.log([0.5, 1.0, 0.5, 1.0])
        f1, passes, under = passes_and_under(u1)
        assert math.isfinite(f1) and passes == 1 and not under
        both = [u for u in self.clamp_box_points(12, 400)
                if passes_and_under(u)[1:] == (2, True)]
        rng = np.random.default_rng(5)
        lo, hi = np.log(estimation._BOX).T
        inf = next(u for u in rng.uniform(lo, hi, (400, 4)) if obj.value_grad(u)[0] == math.inf)
        monkeypatch.undo()
        return u1, both[0], both[1], inf

    def test_no_value_survives_from_the_evaluation_before(self, monkeypatch):
        u1, u2, u3, inf = self.edge_points(monkeypatch)
        obj = _Objective(CLAMP_SAMPLE)
        for u in (u1, u2, u1, inf, u1, u3, u2, inf, u3, u1):
            f, gu = obj.value_grad(u)
            f_new, gu_new = _Objective(CLAMP_SAMPLE).value_grad(u)
            assert f == f_new
            if f < math.inf:   # at an untenable point only the value is defined
                np.testing.assert_array_equal(gu, gu_new)

    @pytest.mark.parametrize("where", ["n20000", "clamp"])
    def test_an_evaluation_allocates_no_array_of_the_data_length(self, where, monkeypatch):
        # once the workspace exists, what one evaluation allocates stays below
        # two arrays of n floats (a counter, not a wall time)
        if where == "clamp":
            data = CLAMP_SAMPLE
            _, u_warm, u, _ = self.edge_points(monkeypatch)
        else:
            data = BIG_SAMPLE
            p = RECOVERY_TRUTH
            u_warm = np.log([p.a, p.b, p.c, p.d])
            u = u_warm + 0.01
        obj = _Objective(data)
        obj.value_grad(u_warm)
        tracemalloc.start()
        try:
            f, _ = obj.value_grad(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(f)
        assert peak < 2 * 8 * data.n


class TestFitConfig:
    def test_fields_are_the_three_callers_set(self):   # now two: the box is estimation._BOX
        assert [f.name for f in fields(FitConfig)] == ["n_restarts", "ci_level"]

    @pytest.mark.parametrize("n_restarts", [2.5, math.nan, math.inf, "8", None])
    def test_n_restarts_must_be_a_whole_number(self, n_restarts):
        with pytest.raises(ValueError, match="n_restarts"):
            FitConfig(n_restarts=n_restarts)

    @pytest.mark.parametrize("n_restarts", [2.0, np.int64(2)], ids=["float", "numpy-int"])
    def test_whole_n_restarts_of_any_type_fit(self, aarset_data, n_restarts):
        assert fit(aarset_data, FitConfig(n_restarts=n_restarts)).restarts_used == 2


class TestBox:
    def test_fit_reads_the_box_on_each_call(self, aarset_data, aarset_egwgd_fit, monkeypatch):
        box = ((1e-6, 1.0), (0.01, 2.0), (1e-3, 5.0), (0.1, 2.0))
        monkeypatch.setattr(estimation, "_BOX", box)
        p = fit(aarset_data).params
        for (lo, hi), v in zip(box, (p.a, p.b, p.c, p.d)):
            assert lo * (1 - 1e-12) <= v <= hi * (1 + 1e-12)
        # a stops on the narrower box's lower bound; the default fit's a, 1e-12, lies below it
        assert p.a == pytest.approx(box[0][0], rel=1e-12)
        assert aarset_egwgd_fit.params.a < box[0][0]


class TestFit:
    def test_aarset_beats_published_likelihood(self, aarset_egwgd_fit):
        assert -aarset_egwgd_fit.loglik <= 229.5
        assert aarset_egwgd_fit.converged
        assert aarset_egwgd_fit.restarts_used == 8

    def test_terminus_never_below_anchors(self, aarset_data, aarset_egwgd_fit):
        obj = _Objective(aarset_data)
        box = estimation._BOX
        lo = np.log([b[0] for b in box])
        hi = np.log([b[1] for b in box])
        for anchor in _anchors(aarset_data.values, 8):
            u0 = np.log(np.asarray(anchor))
            start_val = -obj.value_grad(np.clip(u0, lo, hi))[0]
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
        lo, hi = np.log(estimation._BOX).T.tolist()
        scale = estimation._STATIONARITY_SCALE
        for r1, r2 in restarts:
            # L-BFGS-B's own projected-gradient norm of the gradient over
            # max(1, |f|), at a finite value and gradient
            _, gu = obj.value_grad(r1.x)
            s = max(1.0, abs(r1.fun))
            pg = _projgr(r1.x.tolist(), [gi / s for gi in gu.tolist()], lo, hi)
            stationary = _tenable(r1.fun, gu.tolist()) and pg <= scale
            assert (r2 is not None) == (not stationary)
        # some restarts need the retry and some do not
        assert 0 < sum(r2 is not None for _, r2 in restarts) < cfg.n_restarts

    def test_only_a_point_at_its_bound_ignores_an_outward_gradient(self):
        # at n = 20000, |-L| is near 6e4: 1e-4 * |-L| is wider than d's log
        # interval, so a distance to the bound must not stand in for the gradient
        lo, hi = np.log(estimation._BOX).T.tolist()
        x = [(l + h) / 2 for l, h in zip(lo, hi)]

        def stationary(d_gap, g_d):
            x[3] = hi[3] - d_gap
            r = SimpleNamespace(x=np.array(x), fun=6e4, jac=np.array([0.0, 0.0, 0.0, g_d]))
            return estimation._stationarity(r, lo, hi)[1]

        # -L still falls toward d's upper bound, 3 log units away
        assert not stationary(3.0, -100.0)
        assert not stationary(1e-3, -100.0)
        # at the bound, or within 1e-4 of it, the outward gradient is inert
        assert stationary(0.0, -100.0)
        assert stationary(1e-5, -100.0)
        # a gradient that points into the box is tested at the bound too
        assert not stationary(0.0, 100.0)
        # and a small one passes anywhere
        assert stationary(3.0, -1.0)

    def test_retry_rescues_a_stalled_single_restart(self):
        # without the retry this fit ends non-converged at -L = 312.366
        res = fit(RETRY_SAMPLE, FitConfig(n_restarts=1))
        assert res.converged
        assert abs(res.loglik + 307.88457560264146) <= 1e-9

    @pytest.mark.parametrize("data", [Dataset(AARSET), RETRY_SAMPLE],
                             ids=["aarset", "retry-sample"])
    def test_lockstep_runs_are_the_runs_alone(self, data, monkeypatch):
        # each lock-step run, retries included, is the L-BFGS-B run that
        # optimize.minimize makes alone on a one-row objective
        runs = []
        real = estimation._lbfgsb

        def spy(x0, lo, hi):
            r = yield from real(x0, lo, hi)
            runs.append((np.array(x0), list(zip(lo, hi)), r))
            return r

        monkeypatch.setattr(estimation, "_lbfgsb", spy)
        res = fit(data)
        assert len(runs) >= 8
        assert res.n_evals == sum(r.nfev for *_, r in runs)
        for x0, bounds, r in runs:
            alone = minimize(_Objective(data).value_grad, x0, bounds)
            np.testing.assert_array_equal(r.x, alone.x)
            np.testing.assert_array_equal(r.jac, alone.jac)
            assert (r.fun, r.nfev, r.nit, r.message) == (
                alone.fun, alone.nfev, alone.nit, alone.message)

    def test_passes_at_n_20000_hold_one_row(self, monkeypatch):
        # max(1, 2**14 // n) rows per pass: at n = 20000 the eight runs' block
        # is evaluated one point at a time, in a workspace of one row, with
        # each law as floats (no dist._Laws columns)
        monkeypatch.setattr(optimize, "_LBFGSB_MAX_ITER", 1)
        blocks, rows, shapes = [], [], set()
        value_grad, one_pass = _Objective.value_grad, _Objective._pass

        def block_spy(self, u):
            blocks.append(np.shape(u))
            return value_grad(self, u)

        def pass_spy(self, u):
            rows.append(len(u))
            out = one_pass(self, u)
            shapes.update(a.shape for a in self.ws._full.values())
            return out

        class NoLaws(dist._Laws):
            def __new__(cls, *args):
                raise AssertionError("a pass of one row built parameter columns")

        monkeypatch.setattr(_Objective, "value_grad", block_spy)
        monkeypatch.setattr(_Objective, "_pass", pass_spy)
        monkeypatch.setattr(dist, "_Laws", NoLaws)
        fit(BIG_SAMPLE)
        assert blocks[0] == (8, 4)
        assert rows and set(rows) == {1}
        assert shapes and {s[0] for s in shapes} == {1}

    def test_short_lbfgsb_retries_everywhere(self, aarset_data, monkeypatch):
        monkeypatch.setattr(optimize, "_LBFGSB_MAX_ITER", 1)
        calls = _spy_stages(monkeypatch)
        res = fit(aarset_data)
        restarts = _by_restart(calls)
        assert len(restarts) == 8
        assert all(r2 is not None for _, r2 in restarts)
        assert not res.converged   # one iteration per run reaches no stationary point

    def test_n_evals_counts_only_lbfgsb_evaluations(self, aarset_data, monkeypatch):
        calls = _spy_stages(monkeypatch)
        res = fit(aarset_data)
        assert res.n_evals == sum(r.nfev for _, r in calls)

    @pytest.mark.parametrize("data, max_iter", [
        (Dataset(AARSET), None), (RETRY_SAMPLE, None), (Dataset(AARSET), 1)],
        ids=["aarset", "retry-sample", "aarset-one-iteration"])
    def test_no_lbfgsb_run_ends_above_its_start(self, data, max_iter, monkeypatch):
        # L-BFGS-B keeps only iterates that pass its sufficient-decrease line
        # search, so fit needs no guard against an endpoint worse than its start
        if max_iter is not None:
            monkeypatch.setattr(optimize, "_LBFGSB_MAX_ITER", max_iter)
        calls = _spy_stages(monkeypatch)
        fit(data)
        assert calls
        for x0, r in calls:
            assert r.fun <= _Objective(data).value_grad(x0)[0]

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

    def test_an_overflowed_gradient_is_no_stationary_terminus(self, aarset_data, monkeypatch):
        # -L is finite here (7.2e300), but dL/da = (n + sum V) / a overflows
        # to -inf at a = 5.0e-11
        u = np.array([-23.712, -5.376, -0.919, 0.520])
        f, gu = _Objective(aarset_data).value_grad(u)
        assert math.isfinite(f) and not np.all(np.isfinite(gu))
        lo, hi = np.log(estimation._BOX).T
        r = minimize(_Objective(aarset_data).value_grad, u, list(zip(lo, hi)))
        assert r.message.startswith("ABNORMAL") and r.nit == 0
        # a fit whose one restart starts there ends there, and not converged
        monkeypatch.setattr(estimation, "_anchors", lambda x, k: [tuple(np.exp(u))])
        res = fit(aarset_data, FitConfig(n_restarts=1))
        assert res.loglik == -f and not res.converged

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
        ci = confidence_intervals(res)
        for name, est in zip(PARAM_ORDER, [PRINTED_MLE.a, PRINTED_MLE.b, PRINTED_MLE.c,
                                           PRINTED_MLE.d, PRINTED_MLE.theta]):
            assert ci[name] == (est, est)

    def test_published_interval_reproduction(self):
        cov = np.zeros((5, 5))
        cov[0, 0] = 5.854e-10
        res = _make_result(PRINTED_MLE, cov)
        lo, hi = confidence_intervals(res)["a"]
        assert abs(lo - 0.000037) <= 1e-6
        assert abs(hi - 0.000132) <= 1e-6

    def test_half_width_over_sd_is_z(self):
        cov = np.diag([4e-8, 1e-4, 2.5e-3, 9e-4, 1.6e-3])
        res = _make_result(PRINTED_MLE, cov)
        from scipy.stats import norm
        z = float(norm.ppf(0.975))
        ci = confidence_intervals(res)
        for name, var in zip(PARAM_ORDER, np.diag(cov)):
            lo, hi = ci[name]
            assert_allclose((hi - lo) / 2.0 / math.sqrt(var), z, rtol=1e-12)

    def test_negative_variance_names_coordinate(self):
        cov = np.diag([1e-8, -1e-4, 1e-3, 1e-3, 1e-3])
        res = _make_result(PRINTED_MLE, cov)
        with pytest.raises(DegenerateInformationError) as err:
            confidence_intervals(res)
        assert err.value.coordinate == "b"

    def test_level_domain(self):
        res = _make_result(PRINTED_MLE, np.zeros((5, 5)), level=1.2)
        with pytest.raises(DomainError):
            confidence_intervals(res)

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
