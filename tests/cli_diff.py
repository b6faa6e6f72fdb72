"""Check that two source trees give the same CLI output, command by command.

The matrix is fixed: ``fit`` with every model (and the Gompertz alias)
and one ``compare`` of all models, on Aarset and on the 2000-point
midpoint-quantile sample of the law (0.001, 0.5, 0.3, 0.8, 0.5), and
``fit --level 0.9`` of EGWGD on that sample, whose Wald intervals show the
level (Aarset's fit prints none); ``fit`` with GED, GD, GIW and EGIW on a
sample of ten 3s, where each search ends at its interval's edge, and a
``compare`` of ED, GED and GD there; then
``sample``, ``curves --mrl`` (linear and log spacing), ``reliability``
(with a repair law, and without one at t = 0 and at unsorted, repeated t)
and ``eval`` on a bathtub, an increasing and a decreasing hazard, and
``eval`` at each law's 1e-6, 1e-4 and 1e-2 quantiles, its left tail; and four
commands that fail (an unknown model to ``fit`` and to ``compare``,
``sample --n 0`` and ``eval`` at a negative point), so their exit statuses
and messages are compared too; one ``sample --n 100000`` whose stdout
reader closes after the first line, so the status and message of a write
that fails part way are compared as well; and ``--help`` of the top-level
parser and of each command: 57 commands in all.  These laws restate the
benchmark's own, and every input is made here with numpy alone, so neither
tree's package shapes what the other is given.

Each command runs as ``python -m egwgd.cli`` with OPENBLAS_NUM_THREADS=1
and buffered stdio (PYTHONUNBUFFERED unset, as in a plain shell), once
with the package from --parent and once from this tree's ``src``.
A command is identical when its stdout, stderr and exit status are.

Run it from the repository root (pytest does not collect this file):

    python tests/cli_diff.py --parent OTHER_TREE/src

It prints "identical" or "differs" for each command, with the first
differing line of its stdout and of its stderr (and, where only numbers
differ, how many and by how much at most, relative), and exits 1 if any
command differs.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

HERE_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MODELS = ("egwgd", "ed", "ged", "gd", "iw", "giw", "egiw")
MIDPOINT_LAW = (0.001, 0.5, 0.3, 0.8, 0.5)
MIDPOINT_N = 2000
CONSTANT_N = 10       # the constant sample's size; each value is 3
EDGE_MODELS = ("ged", "gd", "giw", "egiw")   # their searches end at an edge on it
CONSTANT_COMPARE = "ed,ged,gd"
LAWS = {
    "bathtub": (0.000085, 0.128, 0.401, 0.69901, 0.246),
    "increasing": (0.5, 0.2, 0.3, 0.5, 1.5),
    "decreasing": (3.0, 0.1, 0.5, 0.3, 0.6),
}
REPAIR = (0.3, 0.2, 0.9, 1.0, 1.5)
HEAD = " | head -n 1"   # label suffix of a command whose stdout reader closes after one line


def quantile(p, u):
    """x with F(x) = u: bisection in log x on z(x) = -log(1 - u^(1/theta))."""
    a, b, c, d, theta = p
    target = -np.log1p(-np.asarray(u, dtype=float) ** (1.0 / theta))
    lo, hi = np.full(target.shape, -40.0), np.full(target.shape, 20.0)
    with np.errstate(over="ignore"):
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            x = np.exp(mid)
            up = a * x ** b * np.expm1(c * x ** d) >= target
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return np.exp(0.5 * (lo + hi))


def _points(p, u) -> str:
    """Quantiles of p at u, to 6 significant digits, as a --t or --x list."""
    return ",".join(f"{v:.6g}" for v in quantile(p, u))


def _flags(p, prefix="--") -> list:
    return [f"{prefix}{k}={v!r}" for k, v in zip(("a", "b", "c", "d", "theta"), p)]


def commands(midpoint_file: str, constant_file: str) -> list:
    """(label, argv) of every command in the matrix."""
    cmds = []
    for data, label in (("aarset", "aarset"), (midpoint_file, f"midpoint-{MIDPOINT_N}")):
        for model in (*MODELS, "Gompertz"):
            cmds.append((f"fit {label} {model}", ["fit", "--data", data, "--model", model]))
        cmds.append((f"compare {label}", ["compare", "--data", data, "--models", ",".join(MODELS)]))
    cmds.append((f"fit midpoint-{MIDPOINT_N} egwgd --level 0.9",
                 ["fit", "--data", midpoint_file, "--model", "egwgd", "--level", "0.9"]))
    for model in EDGE_MODELS:
        cmds.append((f"fit constant-{CONSTANT_N} {model}",
                     ["fit", "--data", constant_file, "--model", model]))
    cmds.append((f"compare constant-{CONSTANT_N} {CONSTANT_COMPARE}",
                 ["compare", "--data", constant_file, "--models", CONSTANT_COMPARE]))
    for name, p in LAWS.items():
        lo, hi = quantile(p, [0.01, 0.99])
        cmds += [
            (f"sample {name}", ["sample", *_flags(p), "--n", "100000", "--seed", "7"]),
            (f"curves --mrl {name}", ["curves", *_flags(p), f"--lo={lo:.6g}", f"--hi={hi:.6g}",
                                      "--count", "100", "--mrl"]),
            (f"curves --mrl --spacing log {name}",
             ["curves", *_flags(p), f"--lo={lo:.6g}", f"--hi={hi:.6g}", "--count", "100",
              "--spacing", "log", "--mrl"]),
            (f"reliability {name}", ["reliability", *_flags(p), *_flags(REPAIR, "--repair-"),
                                     "--t", _points(p, [0.05, 0.25, 0.5, 0.75, 0.95])]),
            (f"reliability {name} unsorted t", ["reliability", *_flags(p), "--t",
                                                "0," + _points(p, [0.75, 0.05, 0.5, 0.05])]),
            (f"eval {name}", ["eval", *_flags(p),
                              "--x", _points(p, [0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999])]),
            (f"eval left tail {name}", ["eval", *_flags(p), "--x", _points(p, [1e-6, 1e-4, 1e-2])]),
        ]
    cmds += [
        ("fit aarset cauchy (error)", ["fit", "--data", "aarset", "--model", "cauchy"]),
        ("compare aarset ed,cauchy (error)",
         ["compare", "--data", "aarset", "--models", "ed,cauchy"]),
        ("sample --n 0 (error)", ["sample", *_flags(LAWS["bathtub"]), "--n", "0", "--seed", "7"]),
        ("eval bathtub --x 0,-1 (error)", ["eval", *_flags(LAWS["bathtub"]), "--x", "0,-1"]),
        (f"sample bathtub --n 100000{HEAD}",
         ["sample", *_flags(LAWS["bathtub"]), "--n", "100000", "--seed", "7"]),
        ("--help", ["--help"]),
    ]
    cmds += [(f"{c} --help", [c, "--help"])
             for c in ("fit", "compare", "curves", "sample", "reliability", "eval")]
    return cmds


def run(src: str, argv: list, cwd: str, first_line: bool = False) -> tuple:
    """(exit status, stdout, stderr) of one command; with first_line, stdout is
    read up to its first newline and then closed, so later writes fail."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen([sys.executable, "-m", "egwgd.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        if first_line:
            out = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        else:
            out, err = proc.communicate()
    return proc.returncode, out, err


def _first_difference(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else "<none>"
        y = lb[i] if i < len(lb) else "<none>"
        if x != y:
            return f"    line {i + 1}\n      parent: {x[:200]}\n      this:   {y[:200]}"
    return ""


NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _number_difference(a: str, b: str) -> str:
    """How far the numbers of a and b differ, when nothing else does."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return ""
    x, y = (np.array(NUMBER.findall(t), dtype=float) for t in (a, b))
    diff = x != y
    rel = np.abs(x - y)[diff] / np.maximum(np.abs(x), np.abs(y))[diff]
    return (f"    only numbers differ: {int(diff.sum())} of {x.size}, by at most "
            f"{rel.max():.3g} relative")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the other tree's src directory")
    args = ap.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        midpoint_file = os.path.join(tmp, f"midpoint_{MIDPOINT_N}.txt")
        values = quantile(MIDPOINT_LAW, (np.arange(MIDPOINT_N) + 0.5) / MIDPOINT_N)
        with open(midpoint_file, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{v!r}\n" for v in values.tolist()))
        constant_file = os.path.join(tmp, f"constant_{CONSTANT_N}.txt")
        with open(constant_file, "w", encoding="utf-8") as fh:
            fh.write("3\n" * CONSTANT_N)
        cmds = commands(midpoint_file, constant_file)
        for label, cmd in cmds:
            head = label.endswith(HEAD)
            old, new = run(args.parent, cmd, tmp, head), run(HERE_SRC, cmd, tmp, head)
            print(f"{'identical' if old == new else 'differs':9}  {label}", flush=True)
            if old != new:
                differ += 1
                print(f"    exit status {old[0]} -> {new[0]}")
                for name, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
                    if a != b:
                        print(f"  {name}\n{_first_difference(a, b)}")
                        if numbers := _number_difference(a, b):
                            print(numbers)
    print(f"{differ} of {len(cmds)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
