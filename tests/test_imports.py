"""The import contract: ``import egwgd`` loads neither numpy nor scipy nor
logging, no CLI command loads scipy, and each command loads only the package
modules whose results it prints.

The fit commands also start no worker: their speed comes from evaluating the
restarts' points as the rows of one array pass, not from threads or processes.

The subprocess cases run in a fresh interpreter each, because this test
process has long since imported every module of the package.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import egwgd

SRC = str(Path(__file__).resolve().parents[1] / "src")
SUBMODULES = ("datasets", "distribution", "estimation", "gof", "numerics",
              "reliability", "submodels")

LAW = ["--a", "0.5", "--b", "0.2", "--c", "0.3", "--d", "0.5", "--theta", "1.5"]
COMMANDS = {
    "eval": ["eval", *LAW, "--x", "0.5,1,2"],
    "sample": ["sample", *LAW, "--n", "1000", "--seed", "7"],
    "curves": ["curves", *LAW, "--lo", "0.5", "--hi", "2", "--count", "3"],
    "curves_mrl": ["curves", *LAW, "--lo", "0.5", "--hi", "2", "--count", "3", "--mrl"],
    "reliability": ["reliability", *LAW, "--t", "0.5,1"],
    "fit": ["fit", "--data", "aarset", "--model", "ed"],
    "fit_egwgd": ["fit", "--data", "aarset", "--model", "egwgd", "--restarts", "1"],
    "compare": ["compare", "--data", "aarset", "--models", "ed,gd", "--restarts", "1"],
}

# runs argv (JSON) through cli.main and prints the exit code, the scipy
# modules then loaded, the worker-pool modules (multiprocessing,
# concurrent) then loaded, the number of Python threads started, and the
# numpy, logging and egwgd modules then loaded; an empty argv only imports
# the package
_CHILD = """
import contextlib, io, json, sys, threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self.name), start(self))[1]
argv = json.loads(sys.argv[1])
if argv:
    from egwgd import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
else:
    import egwgd
    code = 0
loaded = lambda *tops: sorted(m for m in sys.modules if m.split(".")[0] in tops)
print(json.dumps([code, loaded("scipy"), loaded("multiprocessing", "concurrent"), len(started),
                  loaded("numpy"), loaded("logging"), loaded("egwgd")]))
"""


class Child(NamedTuple):
    code: int
    scipy: set
    pools: set
    threads: int
    numpy: set
    logging: set
    egwgd: set
    stderr: str


def run_child(argv) -> Child:
    """What argv did in a fresh interpreter (see _CHILD)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, scipy, pools, threads, numpy, logging, own = json.loads(proc.stdout.splitlines()[-1])
    return Child(code, set(scipy), set(pools), threads, set(numpy), set(logging), set(own),
                 proc.stderr)


def successful_child(argv) -> Child:
    child = run_child(argv)
    assert child.code == 0
    return child


@pytest.fixture(scope="module")
def children():
    """What each command loaded, each in its own interpreter."""
    return {name: successful_child(argv) for name, argv in COMMANDS.items()}


@pytest.fixture(scope="module")
def loaded(children):
    """Scipy modules loaded by each command."""
    return {name: child.scipy for name, child in children.items()}


def test_import_egwgd_loads_no_scipy():
    # nor numpy: each public name loads its module, and numpy, on first access
    child = run_child([])
    assert child.scipy == set() and child.numpy == set()


def test_import_egwgd_loads_no_logging():
    # the package logger's NullHandler is set in estimation, the one module that logs
    assert run_child([]).logging == set()


POINTWISE = ["eval", "sample", "curves", "curves_mrl", "reliability"]


@pytest.mark.parametrize("name", POINTWISE)
def test_pointwise_commands_load_no_scipy(loaded, name):
    assert loaded[name] == set()


@pytest.mark.parametrize("name", POINTWISE)
def test_pointwise_commands_load_no_logging(children, name):
    assert children[name].logging == set()


def test_egwgd_fit_loads_no_gof(children):
    # only compare builds the goodness-of-fit inputs
    assert "egwgd.estimation" in children["fit_egwgd"].egwgd
    assert "egwgd.gof" not in children["fit_egwgd"].egwgd


def test_competitor_fit_loads_no_estimation(children):
    assert "egwgd.submodels" in children["fit"].egwgd
    assert not {"egwgd.estimation", "egwgd.gof"} & children["fit"].egwgd


def test_eval_past_the_survival_edge_names_it_without_scipy():
    # hazard raises past the edge, and the Newton solve in log x names it
    law = ["--a", "0.5", "--b", "0.2", "--c", "0.3", "--d", "0.5", "--theta", "0.246"]
    child = run_child(["eval", *law, "--x", "500"])
    assert child.code == 1
    assert "largest representable point is about x = 413.594" in child.stderr
    assert child.scipy == set()


def test_no_command_loads_scipy_stats(loaded):
    assert not any("scipy.stats" in mods for mods in loaded.values())


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_loads_no_scipy(loaded, name):
    assert loaded[name] == set()


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "aarset", "--model", "egwgd"],
    COMMANDS["compare"],
], ids=["fit", "compare"])
def test_fits_start_no_worker(argv):
    child = run_child(argv)
    assert child.code == 0
    assert child.pools == set()
    assert child.threads == 0


@pytest.mark.parametrize("argv", [
    COMMANDS["fit_egwgd"],
    ["compare", "--data", "aarset", "--models", "egwgd,ed,gd", "--restarts", "1"],
], ids=["fit", "compare"])
def test_fits_load_no_numpy_ma(argv):
    # the anchors' median and the K-S distinct values are read off the
    # sorted data; np.median and np.unique would load numpy.ma
    child = run_child(argv)
    assert child.code == 0
    assert not {m for m in child.numpy if m == "numpy.ma" or m.startswith("numpy.ma.")}


# prints OPENBLAS_NUM_THREADS, then the process's thread count (-1 where
# /proc/self/task is missing), after importing the module named by argv[1]
_BLAS_CHILD = """
import importlib, os, sys
importlib.import_module(sys.argv[1])
task = "/proc/self/task"
print(os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir(task)) if os.path.isdir(task) else -1)
"""


def blas_child(module, threads=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", _BLAS_CHILD, module],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, count = proc.stdout.split()
    return value, int(count)


def test_cli_runs_blas_on_one_thread_where_the_variable_is_unset():
    value, threads = blas_child("egwgd.cli")
    assert value == "1"
    assert threads in (1, -1)   # OpenBLAS started no pool


def test_cli_keeps_the_users_blas_setting():
    assert blas_child("egwgd.cli", "2")[0] == "2"


def test_library_modules_leave_the_blas_variable_unset():
    assert blas_child("egwgd.estimation")[0] == "None"


def test_public_names_are_the_defining_modules_objects():
    modules = [importlib.import_module(f"egwgd.{m}") for m in SUBMODULES]
    for name in egwgd.__all__:
        if name == "__version__":
            continue
        owners = [m for m in modules if name in m.__all__]
        assert len(owners) == 1, name
        assert getattr(egwgd, name) is getattr(owners[0], name), name


def test_star_import_binds_all_names():
    ns = {}
    exec("from egwgd import *", ns)
    assert set(egwgd.__all__) <= set(ns)
    assert all(ns[name] is getattr(egwgd, name) for name in egwgd.__all__)


def test_dir_lists_all_names():
    assert set(dir(egwgd)) >= set(egwgd.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        egwgd.no_such_name


def test_inv_cdf_is_norm_ppf_at_the_interval_levels():
    # confidence_intervals takes its Wald z from statistics.NormalDist
    from statistics import NormalDist

    from scipy.stats import norm

    levels = np.concatenate([np.linspace(0.0, 1.0, 10_001)[1:-1],
                             [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999]])
    q = 0.5 + levels / 2.0
    z = np.array([NormalDist().inv_cdf(v) for v in q])
    assert np.allclose(z, norm.ppf(q), rtol=2e-15, atol=0.0)
