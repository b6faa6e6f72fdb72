"""The import contract: ``import egwgd`` loads no scipy, and each CLI command
loads only the scipy subpackages it calls.

The subprocess cases run in a fresh interpreter each, because this test
process has long since imported every module of the package.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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

# runs argv (JSON) through cli.main and prints the exit code and the scipy
# modules then loaded; an empty argv only imports the package
_CHILD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv:
    from egwgd import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
else:
    import egwgd
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def run_child(argv):
    """(exit code, scipy modules loaded, stderr) of argv in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules), proc.stderr


def scipy_modules_after(argv):
    code, modules, _ = run_child(argv)
    assert code == 0
    return modules


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
    code, modules, stderr = run_child(["eval", *law, "--x", "500"])
    assert code == 1
    assert "largest representable point is about x = 413.594" in stderr
    assert modules == set()


def test_no_command_loads_scipy_stats(loaded):
    assert not any("scipy.stats" in mods for mods in loaded.values())


@pytest.mark.parametrize("name", ["fit", "fit_egwgd", "compare"])
def test_fits_do_not_load_scipy_integrate(loaded, name):
    assert "scipy.optimize" in loaded[name]
    assert "scipy.integrate" not in loaded[name]


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


def test_ndtri_is_norm_ppf_at_the_interval_levels():
    from scipy.special import ndtri
    from scipy.stats import norm

    levels = np.concatenate([np.linspace(0.0, 1.0, 10_001)[1:-1],
                             [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999]])
    q = 0.5 + levels / 2.0
    assert np.array_equal(ndtri(q), norm.ppf(q))
