"""Goodness-of-fit statistics, information criteria and model comparison."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import DomainError, _whole

__all__ = [
    "GofReport",
    "FittedModel",
    "ks_statistic",
    "ks_pvalue",
    "info_criteria",
    "compare",
    "reports_to_csv",
    "CSV_HEADER",
]

CSV_HEADER = "model,mle_json,ks,neg_loglik,aic,caic,bic,p_value"


@dataclass(frozen=True)
class FittedModel:
    """What the comparison needs from a fitted model: its parameters,
    effective parameter count, CDF and maximised likelihood.

    ``cdf`` must accept an array of points and return an array of the
    same shape: compare calls it once per model, on the distinct values.
    """

    name: str
    params: dict
    k: int
    cdf: Callable
    neg_loglik: float


@dataclass(frozen=True)
class GofReport:
    model: str
    mle: dict
    ks: float
    p_value: float
    neg_loglik: float
    aic: float
    caic: float
    bic: float
    k: int
    n: int


def _distinct(x: np.ndarray) -> np.ndarray:
    """np.unique of sorted x, without loading numpy.ma as np.unique does."""
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _ks_distance(x: np.ndarray, distinct: np.ndarray, F: np.ndarray) -> float:
    """D of sorted data x, given F at its distinct values (see ks_statistic)."""
    n = x.size
    below = np.searchsorted(x, distinct, side="left") / n
    above = np.searchsorted(x, distinct, side="right") / n
    return float(np.max(np.maximum(np.abs(F - below), np.abs(F - above))))


def ks_statistic(cdf_fn: Callable, values) -> float:
    """One-sample Kolmogorov-Smirnov distance of sorted data from a CDF.

    D = max_i max(|F(x_(i)) - i/n|, |F(x_(i)) - (i-1)/n|); tied observations
    are evaluated once per distinct value against the cumulative counts.
    cdf_fn is called on one value at a time.
    """
    x = np.sort(np.asarray(values, dtype=float))
    distinct = _distinct(x)
    return _ks_distance(x, distinct, np.asarray([float(cdf_fn(v)) for v in distinct]))


def ks_pvalue(d: float, n: int) -> float:
    """Asymptotic two-sided Kolmogorov tail probability of D >= d.

    Uses the small-sample effective deviation
    lambda = (sqrt(n) + 0.12 + 0.11/sqrt(n)) * d, then
    p = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2), truncated once terms
    drop below 1e-12 and clamped into [0, 1].
    """
    d = float(d)
    n = _whole(n, "n")
    if not (0.0 <= d <= 1.0) or n < 1:
        raise DomainError(f"need d in [0, 1] and n >= 1, got d={d}, n={n}")
    if d == 0.0:
        return 1.0
    rn = math.sqrt(n)
    lam = (rn + 0.12 + 0.11 / rn) * d
    total = 0.0
    sign = 1.0
    for k in range(1, 200):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-12:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def info_criteria(neg_loglik: float, k: int, n: int) -> tuple[float, float, float]:
    """(AIC, CAIC, BIC) from the negative log-likelihood.

    AIC = 2k + 2(-L); CAIC is the small-sample corrected AIC
    AIC + 2k(k+1)/(n-k-1); BIC = k ln n + 2(-L).
    """
    k, n = _whole(k, "k"), _whole(n, "n")
    if n <= k + 1:
        raise DomainError(f"CAIC undefined: need n > k + 1, got n={n}, k={k}")
    aic = 2.0 * k + 2.0 * neg_loglik
    caic = aic + 2.0 * k * (k + 1) / (n - k - 1)
    bic = k * math.log(n) + 2.0 * neg_loglik
    return aic, caic, bic


def compare(values, models: Sequence[FittedModel]) -> tuple[list, dict]:
    """One GofReport per model plus rankings by each criterion.

    Each model's CDF is evaluated once, on the array of distinct values
    (see FittedModel).  Reports keep the input model order; rankings are stable, so ties
    resolve to the earlier model.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    distinct = _distinct(x)
    reports = []
    for m in models:
        F = np.asarray(m.cdf(distinct), dtype=float)
        if F.shape != distinct.shape:
            raise ValueError(f"the cdf of model {m.name!r} returned shape {F.shape} "
                             f"for {distinct.size} points; it must accept an array")
        dks = _ks_distance(x, distinct, F)
        aic, caic, bic = info_criteria(m.neg_loglik, m.k, n)
        reports.append(GofReport(model=m.name, mle=dict(m.params), ks=dks,
                                 p_value=ks_pvalue(dks, n),
                                 neg_loglik=float(m.neg_loglik),
                                 aic=aic, caic=caic, bic=bic, k=m.k, n=n))
    rankings = {}
    for crit in ("ks", "aic", "caic", "bic"):
        order = sorted(range(len(reports)), key=lambda i: getattr(reports[i], crit))
        rankings[crit] = [reports[i].model for i in order]
    return reports, rankings


def reports_to_csv(reports: Sequence[GofReport]) -> str:
    """Serialise comparison reports, one row per model, in input order."""
    lines = [CSV_HEADER]
    for r in reports:
        mle = json.dumps(r.mle, sort_keys=True).replace('"', '""')
        lines.append('%s,"%s",%.17g,%.17g,%.17g,%.17g,%.17g,%.17g' % (
            r.model, mle, r.ks, r.neg_loglik, r.aic, r.caic, r.bic, r.p_value))
    return "\n".join(lines) + "\n"
