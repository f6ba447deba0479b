"""Estimate records and error helpers."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np


def params_fingerprint(payload: dict) -> str:
    """Stable short hash of the parameter record that produced an estimate."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error (population-variance convention).

    se = sqrt(sum (x - mean)^2) / n, i.e. M2-based with no Bessel term.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return float("nan"), float("nan")
    m = float(values.mean())
    m2 = float(((values - m) ** 2).sum())
    return m, math.sqrt(m2) / n


def jackknife_func(columns: list[np.ndarray], func) -> tuple[float, float]:
    """Delete-one jackknife of func(column means...) for per-replica columns; the
    leave-one-out means (S - x_i)/(n - 1) go to ``func`` as (n,) arrays at once."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].size
    totals = [c.sum() for c in cols]
    est = func(*[t / n for t in totals])
    if n < 2:
        return est, float("inf")
    loo = func(*[(t - c) / (n - 1) for t, c in zip(totals, cols)])
    loo = np.asarray(loo, dtype=float)
    return float(est), math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum())


def jackknife_ratio(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Delete-one jackknife mean and s.e. of sum(num)/sum(den)."""
    return jackknife_func([num, den], lambda n, d: n / d)


@dataclass
class EstimatorResult:
    """One Monte Carlo estimate and its wall time.

    What identifies the run that made it (its config fingerprint, seed and
    replica count) is stamped on the record by ``runner.OutputWriter``, so
    :meth:`to_record` writes only the estimate's own fields.
    """

    mean: float
    std_error: float
    wall_ms: float
    diagnostics: dict = field(default_factory=dict)

    def to_record(self, experiment: str) -> dict:
        rec = {
            "experiment": experiment,
            "estimate": self.mean,
            "std_error": self.std_error,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.diagnostics:
            rec["diagnostics"] = _jsonable(self.diagnostics)
        return rec


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj

