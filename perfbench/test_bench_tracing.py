"""Span recording, self time and the traced launcher."""

import json
import os
import subprocess
import sys

import pytest

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def test_self_time_on_a_synthetic_span_tree():
    # cli.main [0, 10] -> estimation.fit [1, 9] -> distribution.log_pdf [2, 4]
    #                                           -> distribution.log_pdf [5, 6]
    #                  -> gof.compare [9, 10]   -> gof.compare [9.2, 9.6] (recursion)
    spans = [
        ["cli.main", -1, 0.0, 10.0],
        ["estimation.fit", 0, 1.0, 9.0],
        ["distribution.log_pdf", 1, 2.0, 4.0],
        ["distribution.log_pdf", 1, 5.0, 6.0],
        ["gof.compare", 0, 9.0, 10.0],
        ["gof.compare", 4, 9.2, 9.6],
    ]
    got = tracing.summarize(spans)
    assert got["layers"] == pytest.approx({"cli": 1.0, "estimation": 5.0,
                                           "distribution": 3.0, "gof": 1.0})
    s = got["spans"]
    assert s["distribution.log_pdf"] == pytest.approx({"calls": 2, "busy_s": 3.0, "self_s": 3.0})
    assert s["estimation.fit"] == pytest.approx({"calls": 1, "busy_s": 8.0, "self_s": 5.0})
    # the nested call of the same name is not counted twice in busy time
    assert s["gof.compare"] == pytest.approx({"calls": 2, "busy_s": 1.0, "self_s": 1.0})


def test_tracer_records_parents_and_counters():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("b.inner", lambda x: x + 1,
                        lambda a, k, r: tracer.counts.update({"b.inner.points": a[0]}))
    outer = tracer.wrap("a.outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert [s[:2] for s in tracer.spans] == [["a.outer", -1], ["b.inner", 0], ["b.inner", 0]]
    assert tracer.counts["b.inner.points"] == 4
    counted = tracer.counted("f.evals", abs)
    assert [counted(-1), counted(2)] == [1, 2] and tracer.counts["f.evals"] == 2


def test_launcher_traces_a_cli_job_without_changing_its_output(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    args = ["reliability", "--a=0.5", "--b=0.2", "--c=0.3", "--d=0.5", "--theta=1.5",
            "--t", "0.5,1"]
    path = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, os.path.join(BENCH, "launcher.py"), str(path),
                             *args], capture_output=True, env=env, timeout=120)
    plain = subprocess.run([sys.executable, "-m", "egwgd.cli", *args],
                           capture_output=True, env=env, timeout=120)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    trace = json.loads(path.read_text())
    spans, counts = trace["spans"], trace["counts"]
    assert spans["cli.main"]["calls"] == 1
    assert spans["reliability.mttf"]["calls"] == 1
    assert spans["reliability.mean_residual_life"]["calls"] == 2
    assert spans["reliability.integrate"]["calls"] == 5
    assert counts["reliability.integrate.integrand_evals"] > 0
    assert "estimation" not in trace["layers"]
