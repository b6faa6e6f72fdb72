"""CLI job-stream benchmark of the egwgd command-line tool.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single client runs one ``python -m egwgd.cli`` process at a time (a
closed loop), repeating the workload's cycle of jobs while a further whole
cycle is predicted to end within S seconds.  Every
job is timed from spawn to exit and its output checked against the
benchmark's own numpy reference.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics: it runs the workload's trace jobs (one job of each kind) once
untraced and twice through ``launcher.py``, which wraps the package's
layer boundaries, whatever S is, so that the counters of the two traced
passes can be required to agree exactly.  The human-readable report comes first;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import re
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict

import jobs
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".perfbench_work"
SETUP_IMPORTS = 3          # fresh interpreters timed for setup_s
IMPORTTIME_RUNS = 3        # -X importtime runs for the import layer

# per-layer metrics: name -> unit.  Spans and counters sum over one traced
# pass of the trace jobs; times are the mean of the two traced passes.
PER_LAYER = {
    "import.total_s": "s", "import.scipy_s": "s", "import.egwgd_own_s": "s",
    "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    "datasets.load_values.busy_s": "s", "datasets.load_values.values": "count",
    "datasets.self_s": "s",
    "estimation.fit.busy_s": "s", "estimation.fit.n_evals": "count",
    "estimation.stage.lbfgsb.calls": "count", "estimation.stage.lbfgsb.nfev": "count",
    "estimation.stage.lbfgsb.busy_s": "s",
    "estimation.stage.nelder_mead.calls": "count",
    "estimation.stage.nelder_mead.nfev": "count",
    "estimation.stage.nelder_mead.nit": "count",
    "estimation.stage.nelder_mead.busy_s": "s",
    "estimation.stage.nelder_mead.maxiter_hits": "count",
    "estimation.stage.nelder_mead.improved_frac": "fraction",
    "estimation.loglik_grad.calls": "count", "estimation.loglik_grad.busy_s": "s",
    "estimation.profile_theta.calls": "count",
    "estimation.observed_information.busy_s": "s",
    "estimation.numerical_hessian.f_evals": "count",
    "estimation.self_s": "s",
    **{f"distribution.{f}.{m}": u for f in ("log_pdf", "cdf", "survival", "hazard")
       for m, u in (("calls", "count"), ("points", "count"), ("busy_s", "s"))},
    "distribution.log_pdf.ns_per_point": "ns",
    "distribution.sample.draws": "count", "distribution.sample.busy_s": "s",
    "distribution.quantile.calls": "count", "distribution.quantile.busy_s": "s",
    "distribution.find_root_increasing.calls": "count",
    "distribution.self_s": "s",
    "reliability.integrate.calls": "count",
    "reliability.integrate.integrand_evals": "count",
    "reliability.integrate.busy_s": "s",
    **{f"reliability.{f}.{m}": u for f in ("mttf", "mean_residual_life", "mean_past_life")
       for m, u in (("calls", "count"), ("busy_s", "s"))},
    "reliability.self_s": "s",
    "gof.ks_statistic.calls": "count", "gof.ks_statistic.cdf_calls": "count",
    "gof.ks_statistic.busy_s": "s", "gof.compare.busy_s": "s", "gof.self_s": "s",
    "submodels.fit_competitor.busy_s": "s",
    "submodels.competitor_covariance.busy_s": "s", "submodels.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "fraction",
}

END_TO_END = {"job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(Exception):
    """The program under test could not be started."""


def log(*parts):
    print(*parts, flush=True)


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "loadavg": list(os.getloadavg())}


class Bench:
    """Starts the children of one benchmark run, with their stderr kept in
    the checkout's work directory."""

    def __init__(self, root: str):
        self.env = jobs.child_env(os.path.join(root, "src"))
        self.work = os.path.join(root, WORKDIR)
        self.n = 0

    def _stderr(self) -> str:
        self.n += 1
        return os.path.join(self.work, f"stderr_{self.n}.txt")

    def python(self, *args) -> jobs.Run:
        return jobs.spawn([sys.executable, *args], self.env, self._stderr())

    def job(self, job, trace_path: str | None = None) -> jobs.Outcome:
        if trace_path is None:
            run = self.python("-m", "egwgd.cli", *job.argv)
        else:
            run = self.python(os.path.join(HERE, "launcher.py"), trace_path, *job.argv)
        return jobs.score(job, run)

    def setup_s(self) -> float:
        """Median wall time of a fresh interpreter importing the package."""
        times = []
        for _ in range(SETUP_IMPORTS):
            run = self.python("-c", "import egwgd")
            if run.exit_code != 0:
                raise SetupError(f"'import egwgd' exited with {run.exit_code}")
            times.append(run.seconds)
        return statistics.median(times)

    def importtime(self) -> dict:
        """Median import.* layer times from -X importtime of 'import egwgd'."""
        samples = defaultdict(list)
        for _ in range(IMPORTTIME_RUNS):
            path = self._stderr()
            run = jobs.spawn([sys.executable, "-X", "importtime", "-c", "import egwgd"],
                             self.env, path)
            if run.exit_code != 0:
                raise SetupError(f"'import egwgd' exited with {run.exit_code}")
            with open(path, encoding="utf-8") as fh:
                for key, value in parse_importtime(fh.read()).items():
                    samples[key].append(value)
        return {k: statistics.median(v) for k, v in samples.items()}


def parse_importtime(text: str) -> dict:
    """Totals from -X importtime lines 'import time: self | cumulative | name'.

    total: the cumulative time of the top-level egwgd import; scipy and
    egwgd_own: the self times of the modules under those packages.
    """
    out = {"import.total_s": 0.0, "import.scipy_s": 0.0, "import.egwgd_own_s": 0.0}
    for m in re.finditer(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$", text, re.M):
        own, cum, indent, name = int(m[1]) * 1e-6, int(m[2]) * 1e-6, m[3], m[4]
        if name == "egwgd" and not indent:
            out["import.total_s"] = cum
        root = name.split(".", 1)[0]
        if root == "scipy":
            out["import.scipy_s"] += own
        elif root == "egwgd":
            out["import.egwgd_own_s"] += own
    return out


def warm_up(bench: Bench, workload) -> list:
    """One untimed job of each kind, so caches are filled before timing."""
    return [bench.job(job) for job in workload.warmup]


def closed_loop(bench: Bench, workload, seconds: float):
    """Repeat whole cycles while the next one is predicted to end in time."""
    outcomes = []
    start = time.perf_counter()
    cycle = 0
    while True:
        began = time.perf_counter()
        for job in workload.cycles(cycle):
            outcomes.append(bench.job(job))
        cycle += 1
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return outcomes, now - start, cycle


def report_failures(outcomes, limit: int = 5):
    bad = [o for o in outcomes if o.status != "ok"]
    for o in bad[:limit]:
        log(f"  {o.status}: {' '.join(o.job.argv)[:160]}: {o.reason}")
    if len(bad) > limit:
        log(f"  ... and {len(bad) - limit} more")


def end_to_end(bench: Bench, workload, seconds: float):
    setup = bench.setup_s()
    warm = warm_up(bench, workload)
    outcomes, wall, cycles = closed_loop(bench, workload, seconds)
    lat = [o.run.seconds for o in outcomes]
    pct, tail = jobs.tail(lat)
    cnt = jobs.counts(outcomes)
    ok = sum(o.status == "ok" for o in outcomes)
    metrics = {
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail,
        "jobs_per_s": ok / wall,
        "peak_rss_mb": max(o.run.maxrss_kb for o in outcomes) / 1024.0,
        "setup_s": setup,
    }
    log(f"closed loop, 1 client: {cnt['attempted']} jobs in {cycles} cycles, "
        f"{wall:.2f} s wall")
    log(f"job_tail_s is p{pct:.0f} over {len(lat)} jobs")
    by_kind = defaultdict(list)
    for o in outcomes:
        by_kind[o.job.kind].append(o.run)
    for kind, runs in by_kind.items():
        xs = [r.seconds for r in runs]
        log(f"{kind}_p50_s = {statistics.median(xs):.4f} s  (n={len(xs)}, "
            f"min {min(xs):.4f}, max {max(xs):.4f}; child CPU p50 "
            f"{statistics.median(r.cpu_s for r in runs):.4f} s)")
    log(f"fail_frac = {cnt['fail_frac']:.4f}  ({cnt['failed']} of {cnt['attempted']}); "
        f"not converged (exit 2): {cnt['not_converged']}")
    report_failures(warm + outcomes)
    warm_failed = sum(o.status == "failed" for o in warm)
    return metrics, cnt, warm_failed == 0


def _job_values(trace: dict) -> dict:
    """Flat name -> value of one traced job's spans, layers and counters."""
    out = dict(trace["counts"])
    for name, rec in trace["spans"].items():
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.busy_s"] = rec["busy_s"]
    for layer, own in trace["layers"].items():
        out[f"{layer}.self_s"] = own
    return out


def traced(bench: Bench, workload):
    """Each trace job once untraced, then twice traced, back to back so that
    machine speed drifts alike over the three."""
    imports = bench.importtime()
    warm = warm_up(bench, workload)
    trace_jobs = workload.trace
    plain = []
    passes = [([], []), ([], [])]
    for i, job in enumerate(trace_jobs):
        plain.append(bench.job(job))
        for p, (outs, vals) in enumerate(passes):
            path = os.path.join(bench.work, f"trace_{p}_{i}.json")
            outs.append(bench.job(job, path))
            trace = {"counts": {}, "spans": {}, "layers": {}}
            if os.path.exists(path):      # absent when the launcher itself crashed
                with open(path, encoding="utf-8") as fh:
                    trace = json.load(fh)
            vals.append(_job_values(trace))
    outcomes = plain + passes[0][0] + passes[1][0]
    cnt = jobs.counts(outcomes)

    def counters(vals):
        return [{k: v for k, v in job.items() if not k.endswith("_s")} for job in vals]

    repeat = counters(passes[0][1]) == counters(passes[1][1])
    same_out = all(o.run.stdout == t.run.stdout
                   for outs, _ in passes for o, t in zip(plain, outs))

    mean = defaultdict(float)      # counters agree, so their mean is one pass
    for _, vals in passes:
        for job_vals in vals:
            for k, x in job_vals.items():
                mean[k] += x / len(passes)
    m = {name: float(mean.get(name, 0.0)) for name in PER_LAYER}
    m.update(imports)
    m["cli.stdout_bytes"] = float(sum(len(o.run.stdout) for o in plain))
    pts = mean["distribution.log_pdf.points"]
    m["distribution.log_pdf.ns_per_point"] = (
        1e9 * mean["distribution.log_pdf.busy_s"] / pts if pts else 0.0)
    nm = mean["estimation.stage.nelder_mead.calls"]
    m["estimation.stage.nelder_mead.improved_frac"] = (
        mean["estimation.stage.nelder_mead.improved"] / nm if nm else 0.0)
    t_plain = [o.run.seconds for o in plain]
    t_traced = [(a.run.seconds + b.run.seconds) / 2
                for a, b in zip(passes[0][0], passes[1][0])]
    m["trace.overhead_s"] = statistics.median(t - u for t, u in zip(t_traced, t_plain))
    m["trace.overhead_frac"] = sum(t_traced) / sum(t_plain) - 1.0

    log(f"traced run: each of {len(trace_jobs)} jobs untraced once, then traced twice")
    log(f"counters repeat across the two traced passes: {repeat}")
    log(f"traced stdout identical to untraced: {same_out}")
    for name, unit in PER_LAYER.items():
        log(f"{name} = {m[name]:.6g} {unit}")
    report_failures(warm + outcomes)
    ok = repeat and same_out and all(o.status != "failed" for o in warm)
    return m, cnt, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through the job runner's cleanup, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "egwgd", "cli.py")):
        print("error: run from the repository root; src/egwgd/cli.py not found",
              file=sys.stderr)
        return 2
    bench = Bench(root)
    shutil.rmtree(bench.work, ignore_errors=True)
    os.makedirs(bench.work)
    workload = WORKLOADS[args.workload](args.seed, bench.work)

    env = environment()
    log(f"workload {workload.name}, seed {args.seed}, seconds {args.seconds:g}, "
        f"trace {args.trace}")
    log("environment: " + json.dumps(env))
    try:
        if args.trace:
            metrics, cnt, ok = traced(bench, workload)
            units = PER_LAYER
        else:
            metrics, cnt, ok = end_to_end(bench, workload, args.seconds)
            units = END_TO_END
            for name, unit in units.items():
                log(f"{name} = {metrics[name]:.6g} {unit}")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    log("load average after: " + json.dumps(list(os.getloadavg())))
    print(json.dumps({
        "correct": bool(ok and cnt["failed"] == 0),
        "attempted": cnt["attempted"],
        "failed": cnt["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
