import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from egwgd import AARSET, Dataset, EgwgParams, FitConfig, estimation, fit, loglik, sample

# Property tests replay the same examples on every run, whatever the machine's
# speed, and keep no example database.  Hypothesis still caches the numeric
# constants it reads from the package's source; that goes under pytest's cache.
settings.register_profile("egwgd", derandomize=True, deadline=None, database=None)
settings.load_profile("egwgd")
set_hypothesis_home_dir(Path(__file__).resolve().parents[1] / ".pytest_cache" / "hypothesis")

# The published five-parameter MLE for the Aarset data, used as a fixed
# evaluation point throughout the tests.
PRINTED_MLE = EgwgParams(a=0.000085, b=0.128, c=0.401, d=0.69901, theta=0.246)

# fixed truth for the simulation-recovery benchmark
RECOVERY_TRUTH = EgwgParams(a=0.001, b=0.5, c=0.3, d=0.8, theta=0.5)
RECOVERY_N = 2000
RECOVERY_SEED = 11


@pytest.fixture(scope="session")
def aarset_data():
    return Dataset(AARSET)


@pytest.fixture(scope="session")
def printed_mle():
    return PRINTED_MLE


@pytest.fixture(scope="session")
def aarset_egwgd_fit(aarset_data):
    """The full-family Aarset fit, shared across estimation/gof/acceptance."""
    import time
    t0 = time.time()
    res = fit(aarset_data, FitConfig(n_restarts=8))
    res.wall_seconds = time.time() - t0
    return res


@pytest.fixture(scope="session")
def recovery_case():
    """Simulated sample from the fixed truth plus its fit and both logliks."""
    draws = sample(RECOVERY_TRUTH, RECOVERY_N, RECOVERY_SEED)
    data = Dataset(draws)
    res = fit(data, FitConfig(n_restarts=8))
    return {
        "truth": RECOVERY_TRUTH,
        "data": data,
        "fit": res,
        "loglik_truth": loglik(RECOVERY_TRUTH, data),
    }


def random_params(rng):
    """Parameter draws covering the regimes the properties must hold in."""
    return EgwgParams(
        a=float(np.exp(rng.uniform(np.log(1e-5), np.log(1.0)))),
        b=float(rng.uniform(0.0, 3.0)),
        c=float(np.exp(rng.uniform(np.log(0.01), np.log(2.0)))),
        d=float(np.exp(rng.uniform(np.log(0.2), np.log(3.0)))),
        theta=float(np.exp(rng.uniform(np.log(0.1), np.log(5.0)))),
    )


# laws log-uniform in the fit's search box, theta in [0.05, 20]; BOX_LAWS adds
# the b = 0 sub-family
BOX = estimation._BOX


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _box_laws(b):
    """Laws log-uniform in the fit's search box, theta in [0.05, 20], b drawn from b."""
    return st.builds(EgwgParams, a=_log_uniform(*BOX[0]), b=b, c=_log_uniform(*BOX[2]),
                     d=_log_uniform(*BOX[3]), theta=_log_uniform(0.05, 20.0))


BOX_LAWS = _box_laws(st.one_of(st.just(0.0), _log_uniform(*BOX[1])))
FIT_BOX_LAWS = _box_laws(_log_uniform(*BOX[1]))


class OracleError(Exception):
    """QUADPACK reported that it did not reach the requested accuracy."""


def quad(f, lo, hi, *, rel_tol=1e-10, abs_tol=1e-12):
    """Integral of the scalar function f over (lo, hi) by QUADPACK.

    An oracle that shares nothing with the package's quadrature engine:
    scipy.integrate.quad (QAGS, or QAGI where a limit is infinite) with the
    relative tolerance 1e-10 and the 2000-interval budget of
    ``numerics.integrate``, plus an absolute tolerance of 1e-12 by default.
    Raises OracleError where QUADPACK warns.
    """
    from scipy.integrate import quad as quadpack

    out = quadpack(lambda x: float(f(x)), lo, hi, epsabs=abs_tol, epsrel=rel_tol,
                   limit=2000, full_output=1)
    if len(out) > 3:
        raise OracleError(str(out[3]).splitlines()[0])
    return out[0]
