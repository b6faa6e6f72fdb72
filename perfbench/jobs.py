"""Spawning, timing and scoring of CLI jobs, and the summary statistics."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass

from workloads import CheckError, Job

JOB_TIMEOUT_S = 150.0
# Exit codes of the CLI: 0 success, 1 usage or input error, 2 a fit that
# returned a best-effort result without converging.
EXIT_NOT_CONVERGED = 2


@dataclass
class Run:
    """One finished child process."""

    seconds: float        # spawn to exit, wall clock
    exit_code: int        # negative: killed by that signal
    maxrss_kb: int
    stdout: bytes
    stderr_tail: str = ""
    cpu_s: float = 0.0    # user + system time of the child


@dataclass
class Outcome:
    job: Job
    run: Run
    status: str           # "ok", "not_converged" or "failed"
    reason: str = ""


def child_env(src_dir: str) -> dict:
    """The environment of every child: the source tree on the path and
    single-threaded numerical libraries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, env: dict, stderr_path: str, timeout: float = JOB_TIMEOUT_S) -> Run:
    """Run argv to completion, timing it from spawn to exit.

    The exit status and peak resident set size come from os.wait4 on the
    child itself.  A child still running after timeout seconds is killed
    and reported with the signal's negative exit code.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, "rb") as err:
        err.seek(max(0, os.path.getsize(stderr_path) - 300))
        tail = err.read().decode("utf-8", "replace").strip()
    return Run(t1 - t0, proc.returncode, usage.ru_maxrss, out, tail,
               usage.ru_utime + usage.ru_stime)


def score(job: Job, run: Run) -> Outcome:
    """Exit 0 with a passing check is ok; exit 2 is an honest non-converged
    fit, counted apart; anything else (exit 1, a crash, a wrong output) fails."""
    if run.exit_code == EXIT_NOT_CONVERGED:
        return Outcome(job, run, "not_converged")
    if run.exit_code != 0:
        return Outcome(job, run, "failed", f"exit code {run.exit_code}: {run.stderr_tail}")
    try:
        job.check(run.stdout.decode("utf-8"))
    except CheckError as exc:
        return Outcome(job, run, "failed", str(exc))
    except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
        return Outcome(job, run, "failed", f"malformed output: {exc!r}")
    return Outcome(job, run, "ok")


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    With n samples sorted ascending, the 11th largest has exactly ten above
    it, at percentile 100 (n - 10) / n.  Below 20 samples that percentile
    is under the median, so the median is reported at percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 50.0, statistics.median(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def counts(outcomes) -> dict:
    """Attempted, failed and not-converged job counts, and the failed share."""
    attempted = len(outcomes)
    failed = sum(o.status == "failed" for o in outcomes)
    return {"attempted": attempted, "failed": failed,
            "not_converged": sum(o.status == "not_converged" for o in outcomes),
            "fail_frac": failed / attempted if attempted else math.nan}
