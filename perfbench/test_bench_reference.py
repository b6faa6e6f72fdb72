"""The benchmark's closed-form reference against the package."""

import numpy as np
import pytest

import egwgd
import reference as ref
import workloads

PARAMS = [p for _, p in workloads.DIST_PARAMS] + [workloads.RECOVERY_TRUTH, workloads.REPAIR]


@pytest.mark.parametrize("p", PARAMS)
def test_distribution_functions_match(p):
    law = egwgd.EgwgParams(*p)
    x = ref.quantile(p, np.array([1e-6, 0.01, 0.3, 0.5, 0.9, 0.999]))
    for mine, theirs in ((ref.cdf, egwgd.cdf), (ref.pdf, egwgd.pdf),
                         (ref.survival, egwgd.survival), (ref.hazard, egwgd.hazard)):
        np.testing.assert_allclose(mine(p, x), theirs(law, x), rtol=1e-12)
    u = np.array([1e-9, 0.25, 0.75, 1 - 1e-9])
    np.testing.assert_allclose(ref.quantile(p, u), [egwgd.quantile(law, q) for q in u],
                               rtol=1e-13)


@pytest.mark.parametrize("p", PARAMS[:2])
def test_sample_is_the_inverse_of_philox_uniforms(p):
    got = egwgd.sample(egwgd.EgwgParams(*p), 2000, 5)
    np.testing.assert_allclose(got, ref.quantile(p, ref.philox_uniforms(2000, 5)),
                               rtol=workloads.RTOL_SAMPLE)


@pytest.mark.parametrize("p", PARAMS)
def test_mttf_matches_quadrature(p):
    assert ref.mttf(p) == pytest.approx(egwgd.mttf(egwgd.EgwgParams(*p)),
                                        rel=workloads.RTOL_MTTF)


def test_loglik_matches_on_aarset():
    p = workloads.DIST_PARAMS[0][1]
    want = egwgd.loglik(egwgd.EgwgParams(*p), egwgd.Dataset(workloads.AARSET))
    assert ref.loglik(p, workloads.AARSET) == pytest.approx(want, rel=1e-12)
    np.testing.assert_array_equal(np.sort(workloads.AARSET), egwgd.AARSET)


def test_checks_reject_a_wrong_output():
    check = workloads.check_compare(("ed", "gd"), -np.inf)
    row = 'ed,"{""a"": 1.0}",0.1,5,12,12.1,13,0.5'
    check(f"{workloads.COMPARE_HEADER}\n{row}\n{row.replace('ed', 'gd', 1)}\n")
    with pytest.raises(workloads.CheckError):
        check(f"{workloads.COMPARE_HEADER}\n{row}\n")
    with pytest.raises(workloads.CheckError):
        workloads._close([1.0 + 1e-6], [1.0], 1e-9, "value")
