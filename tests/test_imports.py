"""The import contract: ``import egwgd`` and every CLI command load no scipy.

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
# concurrent) then loaded and the number of Python threads started; an
# empty argv only imports the package
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
print(json.dumps([code, loaded("scipy"), loaded("multiprocessing", "concurrent"), len(started)]))
"""


class Child(NamedTuple):
    code: int
    scipy: set
    pools: set
    threads: int
    stderr: str


def run_child(argv) -> Child:
    """What argv did in a fresh interpreter (see _CHILD)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules, pools, threads = json.loads(proc.stdout.splitlines()[-1])
    return Child(code, set(modules), set(pools), threads, proc.stderr)


def scipy_modules_after(argv):
    child = run_child(argv)
    assert child.code == 0
    return child.scipy


@pytest.fixture(scope="module")
def loaded():
    """Scipy modules loaded by each command, each in its own interpreter."""
    return {name: scipy_modules_after(argv) for name, argv in COMMANDS.items()}


def test_import_egwgd_loads_no_scipy():
    assert scipy_modules_after([]) == set()


@pytest.mark.parametrize("name", ["eval", "sample", "curves", "curves_mrl", "reliability"])
def test_pointwise_commands_load_no_scipy(loaded, name):
    assert loaded[name] == set()


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
