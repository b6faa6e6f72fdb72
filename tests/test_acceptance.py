"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (visible with -s or in failure output)."""

import json
import math
import time

import numpy as np
import egwgd as E
from egwgd import AARSET, Dataset, EgwgParams
from egwgd.cli import build_curve_grid
from egwgd.estimation import FitResult, confidence_intervals
from egwgd.gof import info_criteria, ks_statistic
from egwgd.submodels import CompetitorSpec, competitor_cdf, competitor_loglik, fit_competitor
from conftest import PRINTED_MLE, random_params


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def test_criterion_1_exponential_row():
    t0 = time.time()
    spec = fit_competitor("ed", AARSET)
    a_hat = spec.params[0]
    nll = -competitor_loglik(spec, AARSET)
    aic, caic, bic = info_criteria(nll, spec.k, 50)
    ks = ks_statistic(lambda x: float(competitor_cdf(spec, x)), AARSET)
    elapsed = time.time() - t0
    checks = [
        abs(a_hat - 0.0219) <= 0.0005,
        abs(nll - 241.09) <= 0.05,
        abs(aic - 484.18) <= 0.1,
        abs(caic - 484.26) <= 0.1,
        abs(bic - 486.09) <= 0.1,
        abs(ks - 0.191) <= 0.005,
        elapsed < 1.0,
    ]
    ok = all(checks)
    assert report(1, ok, f"ED row: a={a_hat:.5f} -L={nll:.3f} AIC={aic:.2f} "
                         f"CAIC={caic:.2f} BIC={bic:.2f} KS={ks:.4f} "
                         f"({elapsed:.2f}s) -> {checks}")


def test_criterion_2_gompertz_rows():
    t0 = time.time()
    # published point evaluations (Gompertz parameters in the hazard-rate
    # convention a e^{cx}, the only reading that reproduces the published rows)
    gd_nll = -competitor_loglik(CompetitorSpec("gd", (0.011, 0.018)), AARSET)
    ged_nll = -competitor_loglik(CompetitorSpec("ged", (0.021, 0.902)), AARSET)
    gd_fit = fit_competitor("gd", AARSET)
    ged_fit = fit_competitor("ged", AARSET)
    gd_ours = -competitor_loglik(gd_fit, AARSET)
    ged_ours = -competitor_loglik(ged_fit, AARSET)
    elapsed = time.time() - t0
    checks = [
        abs(gd_nll - 235.39) <= 0.75,
        abs(ged_nll - 240.36) <= 0.75,
        gd_ours <= 235.39 + 0.1,
        ged_ours <= 240.36 + 0.1,
        elapsed < 5.0,
    ]
    ok = all(checks)
    assert report(2, ok, f"GD at printed: {gd_nll:.3f} (235.39), ours {gd_ours:.3f}; "
                         f"GED at printed: {ged_nll:.3f} (240.36), ours {ged_ours:.3f} "
                         f"({elapsed:.2f}s) -> {checks}")


def test_criterion_3_full_family_row(aarset_egwgd_fit):
    res = aarset_egwgd_fit
    nll = -res.loglik
    ks = ks_statistic(lambda x: float(E.cdf(res.params, x)), AARSET)
    checks = [nll <= 229.5, ks <= 0.15, res.wall_seconds < 60.0, res.restarts_used == 8]
    ok = all(checks)
    assert report(3, ok, f"EGWGD fit: -L={nll:.3f} (<=229.5) KS={ks:.4f} (<=0.15) "
                         f"in {res.wall_seconds:.1f}s/8 restarts -> {checks}")


def test_criterion_4_information_criteria_formulas():
    rows = {
        "ed": (241.09, 1, (484.18, 484.26, 486.09)),
        "ged": (240.36, 2, (484.72, 484.96, 488.54)),
        "gd": (235.39, 2, (474.78, 475.024, 478.60)),
    }
    ok = True
    details = []
    for name, (nll, k, printed) in rows.items():
        got = info_criteria(nll, k, 50)
        errs = [abs(g - p) for g, p in zip(got, printed)]
        details.append(f"{name}: " + "/".join(f"{e:.3f}" for e in errs))
        ok = ok and all(e <= 0.02 for e in errs)
    assert report(4, ok, "AIC/CAIC/BIC deviations from printed cells: " + "; ".join(details))


def test_criterion_5_confidence_interval_reproduction():
    cov = np.zeros((5, 5))
    cov[0, 0] = 5.854e-10
    res = FitResult(params=PRINTED_MLE, loglik=0.0, covariance=cov, intervals=None,
                    level=0.95, converged=True, n_evals=0, restarts_used=0)
    lo, hi = confidence_intervals(res)["a"]
    checks = [abs(lo - 0.000037) <= 1e-6, abs(hi - 0.000132) <= 1e-6]
    ok = all(checks)
    assert report(5, ok, f"95% interval for a: [{lo:.6f}, {hi:.6f}] vs printed "
                         f"[0.000037, 0.000132]")


def test_criterion_6_property_suite(aarset_data):
    t0 = time.time()
    rng = np.random.default_rng(606)
    failures = []

    # density normalisation on 25 randomised parameter sets
    for _ in range(25):
        p = random_params(rng)
        total = E.integrate(lambda x: E.pdf(p, x), 0.0, math.inf,
                            scale=E.median(p))
        if abs(total - 1.0) >= 1e-7:
            failures.append(f"normalisation {p.to_dict()}: {total}")

    # quantile round trip
    p = PRINTED_MLE
    for q in np.arange(0.01, 1.0, 0.01):
        if abs(E.cdf(p, E.quantile(p, float(q))) - q) > 1e-9:
            failures.append(f"round trip at q={q}")

    # analytic gradient vs finite differences
    data = Dataset(E.sample(EgwgParams(0.01, 0.6, 0.4, 0.9, 0.8), 150, 17))
    for _ in range(5):
        pt = EgwgParams(a=float(np.exp(rng.uniform(np.log(1e-3), np.log(0.2)))),
                        b=float(rng.uniform(0.2, 1.2)),
                        c=float(np.exp(rng.uniform(np.log(0.1), np.log(0.8)))),
                        d=float(rng.uniform(0.5, 1.4)),
                        theta=float(np.exp(rng.uniform(np.log(0.3), np.log(2.0)))))
        L = E.loglik(pt, data)
        if not math.isfinite(L) or abs(L) > 1e5:
            continue
        an = E.loglik_grad(pt, data)
        base = np.array([pt.a, pt.b, pt.c, pt.d, pt.theta])
        fd = np.empty(5)
        for i in range(5):
            h = 6e-6 * max(abs(base[i]), 1e-8)
            up, dn = base.copy(), base.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (E.loglik(EgwgParams(*up), data) - E.loglik(EgwgParams(*dn), data)) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-6 * max(1.0, abs(L)))
        if np.max(np.abs(an - fd) / denom) >= 1e-5:
            failures.append(f"gradient at {pt.to_dict()}")

    # sub-model reduction identity
    from egwgd.submodels import SubModelSpec, embed
    for _ in range(5):
        a, c = rng.uniform(0.05, 0.8), rng.uniform(0.1, 1.5)
        sub = embed(SubModelSpec("gd", (a, c)))
        xs = rng.uniform(0.1, 3.0, size=20)
        direct = 1.0 - np.exp(-a * np.expm1(c * xs))
        if np.max(np.abs(np.atleast_1d(E.cdf(sub, xs)) - direct)) >= 1e-12:
            failures.append(f"gd reduction a={a} c={c}")

    # order-statistic normalisation
    p = EgwgParams(0.5, 0.3, 0.9, 1.1, 1.2)
    total = E.integrate(lambda x: E.order_stat_pdf(p, 3, 5, x), 0.0, math.inf,
                        scale=E.median(p))
    if abs(total - 1.0) >= 1e-7:
        failures.append(f"order-stat normalisation: {total}")

    # availability of identical laws
    sysm = E.RepairableSystem(failure=PRINTED_MLE, repair=PRINTED_MLE)
    if E.availability(sysm) != 0.5:
        failures.append("availability != 0.5")

    # MRL at zero equals the mean
    mean = E.raw_moment(PRINTED_MLE, 1)
    if abs(E.mean_residual_life(PRINTED_MLE, 0.0) - mean) >= 1e-8 * mean:
        failures.append("MRL(0) != mean")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    assert report(6, ok, f"property suite in {elapsed:.1f}s; failures: {failures or 'none'}")


def test_criterion_7_bathtub_at_fitted_parameters(aarset_egwgd_fit):
    grid = build_curve_grid(aarset_egwgd_fit.params, 0.5, 90.0, 180, "linear")
    h = np.array([row[4] for row in grid.rows])
    d = np.diff(h)
    signs = np.sign(d)
    flips = int(np.sum(np.diff(signs) != 0))
    ok = bool(signs[0] < 0 < signs[-1] and flips == 1)
    assert report(7, ok, f"hazard on [0.5, 90]x180 at the fitted MLE: first diff "
                         f"{'neg' if signs[0] < 0 else 'pos'}, {flips} sign change(s)")


def test_criterion_8_simulation_recovery_and_shape_classes(recovery_case):
    res = recovery_case["fit"]
    truth = recovery_case["truth"].to_dict()
    fitted = res.params.to_dict()
    rel = {k: abs(fitted[k] - truth[k]) / truth[k] for k in truth}
    lik_ok = res.loglik >= recovery_case["loglik_truth"]
    rec_ok = max(rel.values()) <= 0.25

    # shape-class checks: every qualitative regime is realisable
    shape_ok = True
    shapes = []

    def classify(vals):
        d = np.diff(vals)
        s = np.sign(d[d != 0.0])
        if np.all(s < 0):
            return "decreasing"
        if np.all(s > 0):
            return "increasing"
        if np.sum(np.diff(s) != 0) == 1:
            return "bathtub" if s[0] < 0 else "unimodal"
        return "other"

    exhibits = [
        ("pdf", EgwgParams(2.0, 0.0, 1.0, 1.0, 1.0), (0.05, 4.0), "decreasing"),
        ("pdf", EgwgParams(0.5, 0.0, 1.0, 1.0, 1.0), (0.05, 4.0), "unimodal"),
        ("hazard", EgwgParams(1.0, 0.0, 1.0, 1.0, 1.0), (0.1, 3.0), "increasing"),
        ("hazard", EgwgParams(1e-3, 0.1, 0.05, 0.3, 0.4), (0.1, 10.0), "decreasing"),
        ("hazard", PRINTED_MLE, (0.5, 90.0), "bathtub"),
    ]
    for kind, p, (lo, hi), expected in exhibits:
        grid = build_curve_grid(p, lo, hi, 180, "linear")
        col = 1 if kind == "pdf" else 4
        got = classify(np.array([row[col] for row in grid.rows]))
        shapes.append(f"{kind}:{got}")
        shape_ok = shape_ok and got == expected

    ok = lik_ok and rec_ok and shape_ok
    report(8, ok, f"recovery rel errors {json.dumps({k: round(v, 3) for k, v in rel.items()})}, "
                  f"fit beats truth: {lik_ok}; shapes: {', '.join(shapes)}")
    assert lik_ok and shape_ok, "likelihood-ordering or shape-class check failed"
    assert rec_ok, (
        "25% component-wise recovery is not met: the exact maximum-likelihood "
        "point of this weakly identified five-parameter family lies far from "
        "the generating values at n = 2000 (gradient descent started AT the "
        "truth drifts to the same terminus); see the decisions ledger")
