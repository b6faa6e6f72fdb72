"""Reliability engineering quantities for a repairable system.

Takes a failure law and a repair law from the same family, and walks
through MTTF, MTTR, MTBF, steady-state availability, maintainability,
mean residual life and mean past life -- each computed by adaptive
quadrature of its defining integral.
"""

import numpy as np

from egwgd import (
    EgwgParams,
    RepairableSystem,
    availability,
    maintainability,
    mean_past_life,
    mean_residual_life,
    median,
    mtbf,
    mttf,
    order_stat_pdf,
    raw_moment,
    survival,
)
from egwgd.numerics import integrate

FAILURE = EgwgParams(a=0.002, b=0.4, c=0.15, d=1.0, theta=0.8)
REPAIR = EgwgParams(a=0.3, b=0.2, c=0.9, d=1.0, theta=1.5)


def main():
    sysm = RepairableSystem(failure=FAILURE, repair=REPAIR)
    up, down = mttf(FAILURE), mttf(REPAIR)
    print(f"MTTF = {up:.6f}")
    print(f"MTTR = {down:.6f}")
    print(f"MTBF = {mtbf(sysm):.6f}   (sum check: {up + down:.6f})")
    print(f"steady-state availability = {availability(sysm):.6f}")

    same = RepairableSystem(failure=FAILURE, repair=FAILURE)
    print(f"identical failure/repair laws -> availability = {availability(same):.3f}")

    # E[X] three ways: x f(x) integral, survival integral, MRL at 0
    med = median(FAILURE)
    e1 = raw_moment(FAILURE, 1)
    e2 = integrate(lambda x: survival(FAILURE, x), 0.0, np.inf, scale=med)
    e3 = mean_residual_life(FAILURE, 0.0)
    print(f"\nE[X] by x*f quadrature : {e1:.8f}")
    print(f"E[X] by survival tail  : {e2:.8f}")
    print(f"E[X] as MRL at t = 0   : {e3:.8f}")

    print("\n t      V(t)=repair CDF   MRL(t)      MPL(t)")
    for t in (0.5, med, 1.5 * med, 2.0 * med):
        v = maintainability(REPAIR, t)
        m = mean_residual_life(FAILURE, t)
        pl = mean_past_life(FAILURE, t)
        print(f"{t:6.2f} {v:14.6f} {m:11.5f} {pl:11.5f}")

    print("\nminimum-of-5 lifetime density at the parent median:")
    print(f"  f_(1:5)({med:.3f}) = {order_stat_pdf(FAILURE, 1, 5, med):.6f}")
    print(f"  f_(5:5)({med:.3f}) = {order_stat_pdf(FAILURE, 5, 5, med):.6f}")


if __name__ == "__main__":
    main()
