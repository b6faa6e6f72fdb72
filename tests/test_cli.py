import csv
import io
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from egwgd import EgwgParams, cdf, hazard, mttf, pdf, reliability, sample
from egwgd.cli import main
from egwgd.exceptions import StencilError
from conftest import PRINTED_MLE

PRINTED_FLAGS = ["--a", "0.000085", "--b", "0.128", "--c", "0.401",
                 "--d", "0.69901", "--theta", "0.246"]
GOMPERTZ_FLAGS = ["--a", "1", "--b", "0", "--c", "1", "--d", "1", "--theta", "1"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFitCommand:
    def test_ed_on_aarset(self, capsys):
        code, out, _ = run(capsys, "fit", "--data", "aarset", "--model", "ed")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["params"]["a"] - 0.02189) < 5e-5
        assert abs(-payload["loglik"] - 241.09) < 0.05

    def test_egwgd_on_aarset(self, capsys):
        code, out, _ = run(capsys, "fit", "--data", "aarset", "--model", "egwgd")
        assert code == 0
        payload = json.loads(out)
        assert -payload["loglik"] <= 229.5
        assert payload["converged"] is True
        assert payload["covariance"]["order"] == ["a", "b", "c", "d", "theta"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fit", "--data", "/nonexistent", "--model", "ed")
        assert code == 1
        assert err

    def test_nonpositive_value_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.5\n2.5\n-3.0\n")
        code, _, err = run(capsys, "fit", "--data", str(path), "--model", "ed")
        assert code == 1
        assert ":3:" in err

    def test_unknown_model(self, capsys):
        code, _, _ = run(capsys, "fit", "--data", "aarset", "--model", "cauchy")
        assert code == 1

    def test_competitor_curvature_failure_is_best_effort(self, capsys, monkeypatch):
        from egwgd import submodels

        def fail(spec, values):
            raise StencilError("stencil point is not finite", 0)

        monkeypatch.setattr(submodels, "competitor_covariance", fail)
        code, out, _ = run(capsys, "fit", "--data", "aarset", "--model", "ed")
        assert code == 0
        assert "covariance" not in json.loads(out)

    def test_competitor_curvature_bug_propagates(self, monkeypatch):
        from egwgd import submodels

        def broken(spec, values):
            raise TypeError("a programming error")

        monkeypatch.setattr(submodels, "competitor_covariance", broken)
        with pytest.raises(TypeError):
            main(["fit", "--data", "aarset", "--model", "ed"])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "fit.json"
        code, out, _ = run(capsys, "fit", "--data", "aarset", "--model", "ed",
                           "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text()) == json.loads(out)


class TestCompareCommand:
    def test_four_models_full_family_wins(self, capsys):
        code, out, _ = run(capsys, "compare", "--data", "aarset",
                           "--models", "ed,ged,gd,egwgd")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["model"] for r in rows] == ["ed", "ged", "gd", "egwgd"]
        table = {r["model"]: r for r in rows}
        for col in ("ks", "aic", "caic", "bic"):
            winner = min(rows, key=lambda r: float(r[col]))
            assert winner["model"] == "egwgd", col
        assert abs(float(table["ed"]["ks"]) - 0.191) < 0.005

    def test_empty_model_list(self, capsys):
        code, _, _ = run(capsys, "compare", "--data", "aarset", "--models", ",")
        assert code == 1

    def test_single_model_matches_fit(self, capsys):
        code, out, _ = run(capsys, "compare", "--data", "aarset", "--models", "ed")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        code2, out2, _ = run(capsys, "fit", "--data", "aarset", "--model", "ed")
        fit_payload = json.loads(out2)
        assert_allclose(float(rows[0]["neg_loglik"]), -fit_payload["loglik"], rtol=1e-12)


class TestCurvesCommand:
    def test_two_rows_boundary(self, capsys):
        code, out, _ = run(capsys, "curves", *GOMPERTZ_FLAGS,
                           "--lo", "0.5", "--hi", "1.5", "--count", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,pdf,cdf,survival,hazard"
        assert len(lines) == 3

    def test_gompertz_reduction_closed_form(self, capsys):
        code, out, _ = run(capsys, "curves", *GOMPERTZ_FLAGS,
                           "--lo", "0.2", "--hi", "2.0", "--count", "10")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        g = EgwgParams(1, 0, 1, 1, 1)
        for r in rows:
            x = float(r["x"])
            expected = math.exp(x - math.expm1(x))   # a c e^{cx - a(e^{cx}-1)}
            assert_allclose(float(r["pdf"]), expected, rtol=1e-12)
            assert_allclose(float(r["hazard"]), math.exp(x), rtol=1e-12)
            # 17-significant-digit serialisation round-trips exactly
            assert float(r["pdf"]) == pdf(g, x)

    def test_bathtub_hazard_printed_params(self, capsys):
        code, out, _ = run(capsys, "curves", *PRINTED_FLAGS,
                           "--lo", "0.5", "--hi", "90", "--count", "180")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        h = np.array([float(r["hazard"]) for r in rows])
        d = np.diff(h)
        signs = np.sign(d)
        assert signs[0] < 0 < signs[-1]
        assert np.sum(np.diff(signs) != 0) == 1

    def test_cdf_survival_partition(self, capsys):
        code, out, _ = run(capsys, "curves", *PRINTED_FLAGS,
                           "--lo", "1", "--hi", "60", "--count", "25")
        assert code == 0
        for r in csv.DictReader(io.StringIO(out)):
            assert abs(float(r["cdf"]) + float(r["survival"]) - 1.0) < 1e-12

    def test_mrl_column_behind_flag(self, capsys):
        code, out, _ = run(capsys, "curves", *GOMPERTZ_FLAGS,
                           "--lo", "0.5", "--hi", "1.5", "--count", "3", "--mrl")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert "mrl" in rows[0]
        assert float(rows[0]["mrl"]) > 0.0

    def test_invalid_params(self, capsys):
        code, _, _ = run(capsys, "curves", "--a", "-1", "--b", "0", "--c", "1",
                         "--d", "1", "--theta", "1",
                         "--lo", "0.5", "--hi", "1.5", "--count", "4")
        assert code == 1


class TestSampleCommand:
    def test_byte_identical_repeats(self, capsys):
        args = ["sample", *GOMPERTZ_FLAGS, "--n", "12", "--seed", "4"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_matches_library(self, capsys):
        code, out, _ = run(capsys, "sample", *GOMPERTZ_FLAGS, "--n", "6", "--seed", "9")
        assert code == 0
        got = np.array([float(t) for t in out.split()])
        expected = sample(EgwgParams(1, 0, 1, 1, 1), 6, 9)
        assert_allclose(got, expected, rtol=0, atol=0)   # 17 digits round-trip

    def test_zero_n_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sample", *GOMPERTZ_FLAGS, "--n", "0", "--seed", "1")
        assert code == 1

    def test_round_trip_through_fit(self, capsys, tmp_path):
        # generate a large sample, write it out, refit through the CLI
        truth = EgwgParams(0.001, 0.5, 0.3, 0.8, 0.5)
        path = tmp_path / "draws.txt"
        code, _, _ = run(capsys, "sample",
                         "--a", "0.001", "--b", "0.5", "--c", "0.3",
                         "--d", "0.8", "--theta", "0.5",
                         "--n", "100000", "--seed", "21", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "fit", "--data", str(path), "--model", "egwgd",
                           "--restarts", "2")
        assert code == 0
        fitted = json.loads(out)["params"]
        rel = {k: abs(fitted[k] - v) / v for k, v in truth.to_dict().items()}
        assert max(rel.values()) <= 0.10, (
            f"round-trip recovery outside 10%: { {k: round(v, 3) for k, v in rel.items()} }"
            " -- parameter sloppiness keeps the exact MLE away from the truth"
            " even at n = 1e5")


class TestReliabilityCommand:
    def test_identical_laws_availability_half(self, capsys):
        code, out, _ = run(capsys, "reliability", *PRINTED_FLAGS,
                           *[f.replace("--", "--repair-") if f.startswith("--") else f
                             for f in PRINTED_FLAGS])
        assert code == 0
        payload = json.loads(out)
        assert payload["availability"] == 0.5
        assert_allclose(payload["mtbf"], 2.0 * payload["mttf"], rtol=1e-12)

    def test_t_zero_conventions(self, capsys):
        code, out, _ = run(capsys, "reliability", *GOMPERTZ_FLAGS,
                           *[f.replace("--", "--repair-") if f.startswith("--") else f
                             for f in GOMPERTZ_FLAGS],
                           "--t", "0,0.5")
        assert code == 0
        payload = json.loads(out)
        assert_allclose(payload["mrl"][0], payload["mttf"], rtol=1e-8)
        assert payload["maintainability"][0] == 0.0
        assert payload["mpl"][0] is None
        assert payload["mpl"][1] > 0.0

    def test_mrl_consistent_with_curves(self, capsys):
        code, out, _ = run(capsys, "reliability", *GOMPERTZ_FLAGS, "--t", "1.0")
        payload = json.loads(out)
        code2, out2, _ = run(capsys, "curves", *GOMPERTZ_FLAGS,
                             "--lo", "1.0", "--hi", "2.0", "--count", "2", "--mrl")
        rows = list(csv.DictReader(io.StringIO(out2)))
        assert_allclose(payload["mrl"][0], float(rows[0]["mrl"]), rtol=1e-12)

    def test_each_mean_computed_once(self, capsys, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return mttf(p)

        monkeypatch.setattr(reliability, "mttf", counted)
        code, out, _ = run(capsys, "reliability", *PRINTED_FLAGS,
                           *[f.replace("--", "--repair-") if f.startswith("--") else f
                             for f in GOMPERTZ_FLAGS], "--t", "1.0")
        assert code == 0
        assert len(calls) == 2
        payload = json.loads(out)
        assert payload["mtbf"] == payload["mttf"] + payload["mttr"]
        assert payload["availability"] == payload["mttf"] / payload["mtbf"]

    def test_partial_repair_flags_rejected(self, capsys):
        code, _, _ = run(capsys, "reliability", *GOMPERTZ_FLAGS, "--repair-a", "1.0")
        assert code == 1

    def test_failure_only_summary(self, capsys):
        code, out, _ = run(capsys, "reliability", *GOMPERTZ_FLAGS)
        assert code == 0
        payload = json.loads(out)
        assert_allclose(payload["mttf"], mttf(EgwgParams(1, 0, 1, 1, 1)), rtol=1e-12)
        assert "availability" not in payload


class TestEvalCommand:
    def test_pointwise_values(self, capsys):
        code, out, _ = run(capsys, "eval", *PRINTED_FLAGS, "--x", "10,50")
        assert code == 0
        rows = json.loads(out)
        for row in rows:
            x = row["x"]
            assert_allclose(row["cdf"], cdf(PRINTED_MLE, x), rtol=1e-15)
            assert_allclose(row["pdf"], pdf(PRINTED_MLE, x), rtol=1e-15)
            assert_allclose(row["hazard"], hazard(PRINTED_MLE, x), rtol=1e-15)


class TestExitCodes:
    def test_no_arguments_is_usage(self, capsys):
        assert main([]) == 1

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, "sample", *GOMPERTZ_FLAGS, "--n", "five", "--seed", "1")
        assert code == 1

    def test_non_converged_fit_exits_two(self, capsys, monkeypatch):
        from egwgd import estimation
        real_fit = estimation.fit

        def fake_fit(data, config):
            res = real_fit(data, estimation.FitConfig(n_restarts=1))
            res.converged = False
            return res

        monkeypatch.setattr(estimation, "fit", fake_fit)
        code, out, _ = run(capsys, "fit", "--data", "aarset", "--model", "egwgd")
        assert code == 2
        assert json.loads(out)["converged"] is False
