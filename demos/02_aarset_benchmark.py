"""Model comparison on the Aarset device-lifetime data.

Fits the full five-parameter family and six simpler competitors to the
classic 50-device bathtub data set, then ranks them by Kolmogorov-Smirnov
distance and the three information criteria.  The full family wins every
column by a wide margin.

Equivalent CLI invocation:

    egwgd compare --data aarset --models ed,ged,gd,iw,giw,egiw,egwgd
"""

import time

from egwgd import AARSET, Dataset, FitConfig, cdf, fit
from egwgd.gof import FittedModel, compare
from egwgd.submodels import competitor_cdf, competitor_loglik, fit_competitor

COMPETITORS = ["ed", "ged", "gd", "iw", "giw", "egiw"]


def main():
    data = Dataset(AARSET)
    models = []
    for kind in COMPETITORS:
        spec = fit_competitor(kind, data.values)
        models.append(FittedModel(
            name=kind, params=spec.as_dict(), k=spec.k,
            cdf=lambda x, s=spec: competitor_cdf(s, x),
            neg_loglik=-competitor_loglik(spec, data.values)))

    t0 = time.time()
    res = fit(data, FitConfig())
    print(f"full-family fit: {time.time() - t0:.1f}s, converged={res.converged}")
    print("  MLE:", {k: f"{v:.5g}" for k, v in res.params.to_dict().items()})
    models.append(FittedModel(
        name="egwgd", params=res.params.to_dict(), k=5,
        cdf=lambda x, p=res.params: cdf(p, x),
        neg_loglik=-res.loglik))

    reports, rankings = compare(data.values, models)
    print(f"\n{'model':8s} {'K-S':>8s} {'-L':>9s} {'AIC':>9s} {'CAIC':>9s} {'BIC':>9s} {'p':>9s}")
    for r in reports:
        print(f"{r.model:8s} {r.ks:8.4f} {r.neg_loglik:9.3f} {r.aic:9.3f} "
              f"{r.caic:9.3f} {r.bic:9.3f} {r.p_value:9.4g}")
    print("\nrankings:")
    for crit, order in rankings.items():
        print(f"  {crit:5s}: {' > '.join(order)}")


if __name__ == "__main__":
    main()
