"""Outside-in tracing of the package's layers.

Each layer is measured by replacing a module-level name with a wrapper
that records a span (name, parent span, start, end) and adds to counters.
A name is wrapped in the module whose code looks it up, so that calls made
inside the same module are caught too; a callable passed into a layer
(an integrand, a CDF, an objective) is wrapped to count its calls.  No file
of the package is changed.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

NM_IMPROVED_BY = 1e-10     # a simplex stage counts as improving below this


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._stack = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, self.clock(), None])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][3] = self.clock()

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) adds counters."""
        def wrapped(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        wrapped.__wrapped__ = fn
        return wrapped

    def counted(self, key: str, fn):
        """fn with every call added to the counter key (no span)."""
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counting


def summarize(spans) -> dict:
    """Per-name calls, busy and self time, and per-layer self time.

    busy_s sums a name's outermost spans, so a name that recurses is not
    counted twice.  A span's self time is its duration minus the durations
    of its direct children; a layer is the part of a name before the first
    dot.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    layers = defaultdict(float)
    for i, (name, parent, start, end) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        own = (end - start) - child[i]
        rec["self_s"] += own
        layers[name.split(".", 1)[0]] += own
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            rec["busy_s"] += end - start
    return {"spans": dict(out), "layers": dict(layers)}


def _points(args, kwargs):
    x = kwargs["x"] if "x" in kwargs else args[1]
    try:
        return len(x)
    except TypeError:
        return 1


def install(tracer: Tracer):
    """Wrap the layer boundaries of the imported package in tracer spans."""
    from egwgd import cli, estimation, gof, reliability, submodels
    from egwgd import distribution as dist

    counts = tracer.counts

    def add(key, amount=1):
        counts[key] += amount

    # cli -> datasets
    cli.load_values = tracer.wrap(
        "datasets.load_values", cli.load_values,
        lambda a, k, r: add("datasets.load_values.values", len(r)))

    # estimation: the fit, each optimiser stage, and the curvature
    estimation.fit = tracer.wrap(
        "estimation.fit", estimation.fit,
        lambda a, k, r: add("estimation.fit.n_evals", r.n_evals))
    for name in ("loglik_grad", "profile_theta", "observed_information"):
        setattr(estimation, name,
                tracer.wrap(f"estimation.{name}", getattr(estimation, name)))

    minimize = estimation.minimize
    last = {"x": None, "fun": None}

    def stage(fun, x0, *args, method=None, options=None, **kwargs):
        key = "lbfgsb" if method == "L-BFGS-B" else "nelder_mead"
        r = tracer.call(f"estimation.stage.{key}", minimize, fun, x0, *args,
                        method=method, options=options, **kwargs)
        add(f"estimation.stage.{key}.nfev", int(r.nfev))
        add(f"estimation.stage.{key}.nit", int(r.nit))
        if key == "nelder_mead":
            if int(r.nit) >= int((options or {}).get("maxiter", 1 << 62)):
                add("estimation.stage.nelder_mead.maxiter_hits")
            start = last["fun"] if last["x"] is not None and (last["x"] == x0).all() else None
            if start is not None and float(r.fun) < start - NM_IMPROVED_BY:
                add("estimation.stage.nelder_mead.improved")
        last["x"], last["fun"] = r.x.copy(), float(r.fun)
        return r

    estimation.minimize = stage

    hessian = estimation.numerical_hessian
    estimation.numerical_hessian = tracer.wrap(
        "estimation.numerical_hessian",
        lambda f, *a, **k: hessian(tracer.counted("estimation.numerical_hessian.f_evals", f),
                                   *a, **k))

    # distribution: the evaluators and the quantile path
    for name in ("log_pdf", "cdf", "survival", "hazard"):
        setattr(dist, name, tracer.wrap(
            f"distribution.{name}", getattr(dist, name),
            lambda a, k, r, name=name: add(f"distribution.{name}.points", _points(a, k))))
    dist.sample = tracer.wrap(
        "distribution.sample", dist.sample,
        lambda a, k, r: add("distribution.sample.draws", len(r)))
    dist.quantile = tracer.wrap("distribution.quantile", dist.quantile)
    dist.find_root_increasing = tracer.wrap(
        "distribution.find_root_increasing", dist.find_root_increasing)

    # reliability and its quadrature
    integrate = reliability.integrate
    reliability.integrate = tracer.wrap(
        "reliability.integrate",
        lambda f, *a, **k: integrate(
            tracer.counted("reliability.integrate.integrand_evals", f), *a, **k))
    for name in ("mttf", "mean_residual_life", "mean_past_life"):
        setattr(reliability, name,
                tracer.wrap(f"reliability.{name}", getattr(reliability, name)))

    # goodness of fit and the competitor models
    ks = gof.ks_statistic
    gof.ks_statistic = tracer.wrap(
        "gof.ks_statistic",
        lambda cdf_fn, *a, **k: ks(tracer.counted("gof.ks_statistic.cdf_calls", cdf_fn),
                                   *a, **k))
    gof.compare = tracer.wrap("gof.compare", gof.compare)
    for name in ("fit_competitor", "competitor_covariance"):
        setattr(submodels, name,
                tracer.wrap(f"submodels.{name}", getattr(submodels, name)))
