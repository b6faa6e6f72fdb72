"""The 72-law fit sweep: each fit's -L, evaluations and convergence, as JSON.

The sweep is generator seeds 1-3, times the first 8 ``conftest.random_params``
laws drawn in order from ``np.random.default_rng(seed)``, times
n in {30, 100, 500}.  The sample seed is 1000 seed + 10 law + n, and each
fit uses the default 8 restarts.  The Aarset fit is reported beside them.

Each fit's objective rounds are counted at ``estimation._Objective.value_grad``,
which fit calls once per round with the points of every unfinished run:
``rounds`` counts the calls and ``one_row_rounds`` those with one point.
Every L-BFGS-B run that the fits start is watched at fit's seam,
``estimation._lbfgsb``.  The sweep counts each run's end message and each
untenable point the run evaluates (a non-finite value or gradient).  For
each untenable point it measures how far the run's next trial lies from the
last evaluable point, as a fraction of the untenable point's own distance.
A fraction below 1e-6 is a creeping trial.

Run it from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/sweep.py [--out FILE] [--baseline FILE]

It prints the result as JSON, and writes it to FILE with --out.  With
--baseline, a file that an earlier run wrote, it then prints the relative
change of each fit's -L, the two runs' totals, and how many fits (Aarset's
among them) keep their -L bit for bit with the same evaluations.  It exits
1 if a fit converged in the baseline and no longer does, or if its -L got
worse by more than 1e-9 relative.
"""

import argparse
import json
import math
import sys
from collections import Counter

import numpy as np

from conftest import random_params
from egwgd import AARSET, Dataset, estimation, fit, sample

WORSE_BY = 1e-9     # the largest relative rise of -L the sweep accepts
CREEP = 1e-6        # a trial this close to the last evaluable point creeps


def _untenable(f, g):
    return not (math.isfinite(f) and np.isfinite(g).all())


def _watch(real, stats, ends):
    """A stand-in for the L-BFGS-B run ``real`` that counts what each run does."""
    def run(x0, *args, **kwargs):
        inner = real(x0, *args, **kwargs)
        u = next(inner)
        last_ok = None
        while True:
            f, g = yield u
            bad = _untenable(f, g)
            stats["untenable_evals"] += bad
            if not bad:
                last_ok = u
            try:
                nxt = inner.send((f, g))
            except StopIteration as done:
                ends[done.value.message] += 1
                return done.value
            if bad and last_ok is not None:
                stats["trials_after_untenable"] += 1
                stats["creeping_trials"] += bool(np.linalg.norm(nxt - last_ok)
                                                 < CREEP * np.linalg.norm(u - last_ok))
            u = nxt

    return run


def _count_rounds(real, stats):
    """A stand-in for the objective's value_grad that counts rounds and one-row rounds."""
    def value_grad(self, u):
        stats["rounds"] += 1
        stats["one_row_rounds"] += len(u) == 1
        return real(self, u)

    return value_grad


COUNTS = ("n_evals", "runs", "retries", "runs_at_cap", "abnormal", "rounds", "one_row_rounds",
          "untenable_evals", "trials_after_untenable", "creeping_trials")


def _fit(data, messages):
    """One default fit's -L, convergence and COUNTS; its runs' end messages go to messages."""
    stats = dict.fromkeys(COUNTS[-5:], 0)
    ends = Counter()
    real, estimation._lbfgsb = estimation._lbfgsb, _watch(estimation._lbfgsb, stats, ends)
    value_grad = estimation._Objective.value_grad
    estimation._Objective.value_grad = _count_rounds(value_grad, stats)
    try:
        res = fit(data)
    finally:
        estimation._lbfgsb = real
        estimation._Objective.value_grad = value_grad
    messages.update(ends)
    runs = sum(ends.values())
    return {"neg_loglik": -res.loglik, "converged": res.converged, "n_evals": res.n_evals,
            "runs": runs, "retries": runs - 8,
            "runs_at_cap": sum(v for m, v in ends.items() if "ITERATIONS" in m),
            "abnormal": sum(v for m, v in ends.items() if m.startswith("ABNORMAL")), **stats}


def sweep():
    aarset = _fit(Dataset(AARSET), Counter())
    fits, messages = [], Counter()
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        laws = [random_params(rng) for _ in range(8)]
        for law, p in enumerate(laws):
            for n in (30, 100, 500):
                data = Dataset(sample(p, n, 1000 * seed + 10 * law + n))
                fits.append({"seed": seed, "law": law, "n": n, **_fit(data, messages)})
    totals = {"fits": len(fits), "converged": sum(r["converged"] for r in fits),
              **{k: sum(r[k] for r in fits) for k in COUNTS},
              "messages": dict(sorted(messages.items()))}
    return {"aarset": aarset, "fits": fits, "totals": totals}


def compare(new, old):
    """Lines that set new against old, and whether new stays within the gate."""
    key = lambda r: (r["seed"], r["law"], r["n"])   # noqa: E731
    before = {key(r): r for r in old["fits"]}
    lines, ok, same = [], True, 0
    pairs = [(new["aarset"], old["aarset"])] + [(r, before[key(r)]) for r in new["fits"]]
    for r, o in pairs:
        rel = (r["neg_loglik"] - o["neg_loglik"]) / abs(o["neg_loglik"])
        bad = rel > WORSE_BY or (o["converged"] and not r["converged"])
        ok = ok and not bad
        same += r["neg_loglik"] == o["neg_loglik"] and r["n_evals"] == o["n_evals"]
        name = f"seed {r['seed']} law {r['law']} n {r['n']}" if "seed" in r else "aarset"
        lines.append(f"{'WORSE ' if bad else ''}{name}: "
                     f"-L {o['neg_loglik']!r} -> {r['neg_loglik']!r} (rel {rel:+.2e}), "
                     f"evals {o['n_evals']} -> {r['n_evals']}, "
                     f"converged {o['converged']} -> {r['converged']}")
    for name, v in new["totals"].items():
        lines.append(f"{name}: {old['totals'].get(name)} -> {v}")
    lines.append(f"identical: {same} of {len(pairs)} fits keep -L bit for bit and the same n_evals")
    return lines, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the result to this file")
    ap.add_argument("--baseline", help="compare with a result an earlier run wrote")
    args = ap.parse_args(argv)
    result = sweep()
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.baseline:
        with open(args.baseline) as fh:
            lines, ok = compare(result, json.load(fh))
        print("\n".join(lines))
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
