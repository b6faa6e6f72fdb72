"""The tail-percentile rule, failure counting and child timing."""

import statistics
import sys

import pytest

import jobs
from run import parse_importtime
from workloads import CheckError, Job


@pytest.mark.parametrize("n, pct, index", [(20, 50.0, 9), (21, 100 * 11 / 21, 10),
                                           (40, 75.0, 29), (100, 90.0, 89)])
def test_tail_leaves_ten_samples_beyond(n, pct, index):
    values = [float(i) for i in range(n)][::-1]
    got_pct, got = jobs.tail(values)
    assert got_pct == pytest.approx(pct)
    assert got == index
    assert sum(v > got for v in values) == 10


@pytest.mark.parametrize("n", [1, 2, 7, 19])
def test_tail_below_twenty_samples_is_the_median(n):
    values = [float(i * i) for i in range(n)]
    assert jobs.tail(values) == (50.0, statistics.median(values))


def _raise(exc):
    def check(out):
        raise exc
    return check


@pytest.mark.parametrize("code, check, status", [
    (0, lambda out: None, "ok"),
    (2, _raise(CheckError("not run for exit 2")), "not_converged"),
    (1, lambda out: None, "failed"),
    (-9, lambda out: None, "failed"),
    (0, _raise(CheckError("wrong value")), "failed"),
    (0, _raise(KeyError("loglik")), "failed"),
    (0, lambda out: float(out), "failed"),
])
def test_score_classifies_outcomes(code, check, status):
    run = jobs.Run(seconds=1.0, exit_code=code, maxrss_kb=1, stdout=b"{}")
    assert jobs.score(Job("fit", ("fit",), check), run).status == status


def test_counts_keep_not_converged_out_of_failures():
    run = jobs.Run(1.0, 0, 1, b"")
    job = Job("fit", ("fit",), lambda out: None)
    outcomes = [jobs.Outcome(job, run, s) for s in
                ("ok", "ok", "failed", "not_converged", "ok", "ok", "ok", "failed")]
    got = jobs.counts(outcomes)
    assert got == {"attempted": 8, "failed": 2, "not_converged": 1, "fail_frac": 0.25}


def test_spawn_reports_exit_code_output_and_memory(tmp_path):
    code = "import sys; sys.stdout.write('out'); sys.stderr.write('why'); sys.exit(3)"
    run = jobs.spawn([sys.executable, "-c", code], {}, str(tmp_path / "err.txt"))
    assert (run.exit_code, run.stdout, run.stderr_tail) == (3, b"out", "why")
    assert run.seconds > 0 and run.maxrss_kb > 0


def test_child_env_pins_threads_and_path():
    env = jobs.child_env("/src")
    assert env["PYTHONPATH"].split(":")[0] == "/src"
    assert all(env[v] == "1" for v in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))


def test_parse_importtime_sums_scipy_and_egwgd():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:      2000 |       2000 |     scipy._lib",
        "import time:      5000 |       7000 |   scipy",
        "import time:       300 |        300 |   egwgd.numerics",
        "import time:       400 |      12000 | egwgd",
    ])
    got = parse_importtime(text)
    assert got["import.total_s"] == pytest.approx(0.012)
    assert got["import.scipy_s"] == pytest.approx(0.007)
    assert got["import.egwgd_own_s"] == pytest.approx(0.0007)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    import json
    import os

    from run import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
