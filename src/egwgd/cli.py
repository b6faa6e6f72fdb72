"""Command-line front end.

Subcommands: fit, compare, curves, sample, reliability, eval.  Machine
outputs (JSON / CSV / sample lines) serialize numbers at full precision;
exit codes are 0 on success, 1 on usage or input errors, and 2 when a fit
returned a best-effort, non-converged result.  Each command imports the
modules it runs inside its handler, so ``eval`` and ``sample`` load neither
the fitting nor the quadrature modules.  No command loads scipy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import distribution as dist
from .datasets import load_values
from .distribution import EgwgParams
from .exceptions import DomainError, EgwgError

__all__ = ["main", "CurveGrid", "build_curve_grid"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2

MODEL_NAMES = ("egwgd", "ed", "ged", "gd", "iw", "giw", "egiw")


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# curve grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveGrid:
    """Tabulated (x, pdf, cdf, survival, hazard[, mrl]) rows for export."""

    rows: tuple

    def __post_init__(self):
        xs = [r[0] for r in self.rows]
        if len(xs) < 2 or any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("curve grid needs >= 2 strictly increasing points")
        for r in self.rows:
            if abs(r[2] + r[3] - 1.0) > 1e-12:
                raise DomainError("cdf + survival != 1 on a grid row")

    def to_csv(self) -> str:
        with_mrl = len(self.rows[0]) == 6
        header = "x,pdf,cdf,survival,hazard" + (",mrl" if with_mrl else "")
        lines = [header]
        for r in self.rows:
            lines.append(",".join(_fmt(v) for v in r))
        return "\n".join(lines) + "\n"


def build_curve_grid(p: EgwgParams, lo: float, hi: float, count: int,
                     spacing: str = "linear", with_mrl: bool = False) -> CurveGrid:
    count = int(count)
    if count < 2 or not (0.0 < lo < hi):
        raise DomainError("need 0 < lo < hi and count >= 2")
    if spacing == "linear":
        xs = np.linspace(lo, hi, count)
    elif spacing == "log":
        xs = np.geomspace(lo, hi, count)
    else:
        raise DomainError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    pdfv = np.atleast_1d(dist.pdf(p, xs))
    cdfv = np.atleast_1d(dist.cdf(p, xs))
    surv = np.atleast_1d(dist.survival(p, xs))
    haz = np.atleast_1d(dist.hazard(p, xs))
    columns = [xs, pdfv, cdfv, surv, haz]
    if with_mrl:
        from . import reliability

        columns.append(reliability.mean_residual_life(p, xs))
    rows = [tuple(float(v) for v in row) for row in zip(*columns)]
    return CurveGrid(rows=tuple(rows))


# ---------------------------------------------------------------------------
# shared argument plumbing
# ---------------------------------------------------------------------------

def _add_param_flags(sp, prefix: str = "", required: bool = True):
    pre = f"--{prefix}" if prefix else "--"
    for name in ("a", "b", "c", "d", "theta"):
        sp.add_argument(f"{pre}{name}", type=float, required=required,
                        help=f"parameter {name}" + (f" of the {prefix.rstrip('-')} law" if prefix else ""))


def _params_from(args) -> EgwgParams:
    return EgwgParams(a=args.a, b=args.b, c=args.c, d=args.d, theta=args.theta)


def _emit(text: str, out_path: str | None):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _float_list(text: str) -> list:
    try:
        return [float(t) for t in text.replace(",", " ").split()]
    except ValueError as exc:
        raise DomainError(f"not a number list: {text!r}") from exc


# ---------------------------------------------------------------------------
# model fitting shared by fit/compare
# ---------------------------------------------------------------------------

def _fit_model(name: str, values: np.ndarray, restarts: int, level: float):
    """Fit one named model; returns (FittedModel, json_dict, converged)."""
    from . import estimation, submodels
    from .gof import FittedModel

    name = submodels.KIND_ALIASES.get(name.lower(), name.lower())
    if name == "egwgd":
        cfg = estimation.FitConfig(n_restarts=restarts, ci_level=level)
        res = estimation.fit(estimation.Dataset(values), cfg)
        fm = FittedModel(name="egwgd", params=res.params.to_dict(), k=5,
                         cdf=lambda x, p=res.params: dist.cdf(p, x),
                         neg_loglik=-res.loglik)
        payload = {"model": "egwgd"}
        payload.update(res.to_json_dict())
        return fm, payload, res.converged
    if name not in MODEL_NAMES:
        raise DomainError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")
    spec = submodels.fit_competitor(name, values)
    ll = submodels.competitor_loglik(spec, values)
    fm = FittedModel(name=name, params=spec.as_dict(), k=spec.k,
                     cdf=lambda x, s=spec: submodels.competitor_cdf(s, x),
                     neg_loglik=-ll)
    payload = {"model": name, "params": spec.as_dict(), "loglik": ll,
               "k": spec.k, "converged": True}
    try:
        cov = submodels.competitor_covariance(spec, values)
        payload["covariance"] = {
            "order": list(submodels.COMPETITOR_PARAM_NAMES[name]),
            "values": [float(v) for v in cov.ravel()],
        }
    except (EgwgError, np.linalg.LinAlgError):
        pass   # curvature is best-effort for competitor models
    return fm, payload, True


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    values = load_values(args.data)
    fm, payload, converged = _fit_model(args.model, values, args.restarts, args.level)
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _cmd_compare(args) -> int:
    from . import gof

    values = load_values(args.data)
    names = [t for t in args.models.replace(",", " ").split() if t]
    if not names:
        raise DomainError("empty model list")
    fitted = []
    for name in names:
        fm, _, _ = _fit_model(name, values, args.restarts, args.level)
        fitted.append(fm)
    reports, _ = gof.compare(values, fitted)
    _emit(gof.reports_to_csv(reports), args.out)
    return EXIT_OK


def _cmd_curves(args) -> int:
    p = _params_from(args)
    grid = build_curve_grid(p, args.lo, args.hi, args.count, args.spacing,
                            with_mrl=args.mrl)
    _emit(grid.to_csv(), args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    p = _params_from(args)
    draws = dist.sample(p, args.n, args.seed)
    _emit("".join(_fmt(v) + "\n" for v in draws), args.out)
    return EXIT_OK


def _cmd_reliability(args) -> int:
    from . import reliability

    failure = _params_from(args)
    repair_flags = [getattr(args, f"repair_{k}") for k in ("a", "b", "c", "d", "theta")]
    has_repair = any(v is not None for v in repair_flags)
    if has_repair and any(v is None for v in repair_flags):
        raise DomainError("give all five repair parameters or none")

    if has_repair:
        repair = EgwgParams(*repair_flags)
        sys_ = reliability.RepairableSystem(failure=failure, repair=repair)
        out = {"mttf": sys_.means[0], "mttr": sys_.means[1],
               "mtbf": reliability.mtbf(sys_), "availability": reliability.availability(sys_)}
    else:
        out = {"mttf": reliability.mttf(failure)}
    ts = _float_list(args.t) if args.t else []
    if ts:
        out["t"] = ts
        if has_repair:
            out["maintainability"] = [float(reliability.maintainability(repair, t)) for t in ts]
        out["mrl"] = [reliability.mean_residual_life(failure, t) for t in ts]
        # mean past life is undefined at t = 0; emit null there
        out["mpl"] = [None if t == 0.0 else reliability.mean_past_life(failure, t)
                      for t in ts]
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    p = _params_from(args)
    xs = _float_list(args.x)
    if not xs:
        raise DomainError("no evaluation points given")
    rows = []
    for x in xs:
        rows.append({"x": x,
                     "cdf": float(dist.cdf(p, x)),
                     "pdf": float(dist.pdf(p, x)),
                     "hazard": float(dist.hazard(p, x))})
    _emit(json.dumps(rows, indent=2) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="egwgd",
        description="Exponentiated generalized Weibull-Gompertz lifetime toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit to a dataset")
    p_fit.add_argument("--data", required=True,
                       help="dataset path or fixture name (e.g. 'aarset')")
    p_fit.add_argument("--model", required=True, help="one of: " + ", ".join(MODEL_NAMES))
    p_fit.add_argument("--restarts", type=int, default=8)
    p_fit.add_argument("--level", type=float, default=0.95)
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_cmp = sub.add_parser("compare", help="fit several models, emit the comparison CSV")
    p_cmp.add_argument("--data", required=True)
    p_cmp.add_argument("--models", required=True, help="comma-separated model names")
    p_cmp.add_argument("--restarts", type=int, default=8)
    p_cmp.add_argument("--level", type=float, default=0.95)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_cur = sub.add_parser("curves", help="export a pdf/cdf/survival/hazard grid as CSV")
    _add_param_flags(p_cur)
    p_cur.add_argument("--lo", type=float, required=True)
    p_cur.add_argument("--hi", type=float, required=True)
    p_cur.add_argument("--count", type=int, required=True)
    p_cur.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p_cur.add_argument("--mrl", action="store_true",
                       help="append the (quadrature-expensive) mean-residual-life column")
    p_cur.add_argument("--out", default=None)
    p_cur.set_defaults(func=_cmd_curves)

    p_smp = sub.add_parser("sample", help="draw reproducible inverse-transform samples")
    _add_param_flags(p_smp)
    p_smp.add_argument("--n", type=int, required=True)
    p_smp.add_argument("--seed", type=int, required=True)
    p_smp.add_argument("--out", default=None)
    p_smp.set_defaults(func=_cmd_sample)

    p_rel = sub.add_parser("reliability", help="MTTF/MTBF/availability/MRL/MPL summary")
    _add_param_flags(p_rel)
    _add_param_flags(p_rel, "repair-", required=False)
    p_rel.add_argument("--t", default=None, help="comma-separated evaluation times")
    p_rel.add_argument("--out", default=None)
    p_rel.set_defaults(func=_cmd_reliability)

    p_ev = sub.add_parser("eval", help="pointwise cdf/pdf/hazard values")
    _add_param_flags(p_ev)
    p_ev.add_argument("--x", required=True, help="comma-separated evaluation points")
    p_ev.add_argument("--out", default=None)
    p_ev.set_defaults(func=_cmd_eval)

    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (EgwgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
