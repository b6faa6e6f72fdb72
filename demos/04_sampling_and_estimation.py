"""Reproducible sampling and the round trip back through the fitter.

Draws from a known parameter vector with the fixed Philox stream, refits,
and compares.  Also demonstrates the profile structure of the likelihood:
the exponentiation parameter has a closed-form conditional MLE, so the
fitted theta always sits exactly on the profile.

A note on identifiability: this family is "sloppy" -- long curved valleys
in (a, b, c, d) trade off against each other with almost no likelihood
cost, so at moderate n the exact MLE can sit far from the generating
values in parameter space while matching the distribution itself closely.
The K-S distance between fitted and generating laws is the fair metric.
"""

import numpy as np

from egwgd import Dataset, EgwgParams, FitConfig, cdf, fit, loglik, profile_theta, sample
from egwgd.gof import ks_statistic

TRUTH = EgwgParams(a=0.001, b=0.5, c=0.3, d=0.8, theta=0.5)
N = 2000
SEED = 11


def main():
    draws = sample(TRUTH, N, SEED)
    print(f"n={N}, seed={SEED}: mean={draws.mean():.4f}, "
          f"min={draws.min():.4g}, max={draws.max():.4g}")
    data = Dataset(draws)

    res = fit(data, FitConfig())
    print(f"\nconverged={res.converged}, restarts={res.restarts_used}, "
          f"evals={res.n_evals}")
    print(f"{'param':6s} {'truth':>10s} {'fitted':>12s} {'rel.err':>9s}")
    for k, t in TRUTH.to_dict().items():
        f = res.params.to_dict()[k]
        print(f"{k:6s} {t:10.4g} {f:12.5g} {abs(f - t) / t:9.3f}")

    lt = loglik(TRUTH, data)
    print(f"\nlog-likelihood: truth {lt:.3f}  <=  fit {res.loglik:.3f} "
          f"(gain {res.loglik - lt:.3f})")
    th = profile_theta(res.params.a, res.params.b, res.params.c, res.params.d, data)
    print(f"profile check: fitted theta {res.params.theta:.6g} == {th:.6g}")

    d_fit = ks_statistic(lambda x: cdf(res.params, x), draws)
    d_truth = ks_statistic(lambda x: cdf(TRUTH, x), draws)
    print(f"\nK-S(sample, fitted law) = {d_fit:.4f}")
    print(f"K-S(sample, true law)   = {d_truth:.4f}")
    grid = np.linspace(draws.min(), draws.max(), 400)
    gap = np.max(np.abs(np.atleast_1d(cdf(res.params, grid))
                        - np.atleast_1d(cdf(TRUTH, grid))))
    print(f"sup |F_fit - F_truth| on the data range = {gap:.4f}")


if __name__ == "__main__":
    main()
