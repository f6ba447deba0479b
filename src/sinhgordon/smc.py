"""Interacting-particle (sequential Monte Carlo) backend for cylinder estimates.

The finite-cylinder weight factorizes over time cells, so the damped
expectations are Feynman-Kac flows: a particle population carries
(c, B, modes), accumulates the incremental damping of each cell, and is
resampled systematically whenever the effective sample size drops below
half the population.  The product of mean incremental weights is an
unbiased estimator of the corresponding normalizer.

Two estimator styles are built on the flow:

* normalizers at several cylinder heights (partition-function curve);
* weighted register means: vertex factors accumulated along the surviving
  genealogy, so products, one-points, and connected two-point functions all
  come from the same population and their common noise cancels.

Plain reweighting of free paths collapses to an effective sample size of a
handful of paths once the cylinder is longer than about two units at unit
couplings; the particle flow keeps every estimate here at usable accuracy.
Errors are delete-one jackknife over independent replicated runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import RegisterOverflow
from .gff import TimeGrid, stream_paths
from .gmc import SliceMass, Trapezoid, VertexReads, fourier_spec
from .params import ModelParams
from .parallel import map_replicas
from .propagator import CQuadrature, capped_exp, default_c_quadrature

_RESAMPLE_THRESHOLD = 0.5  # resample when the ESS falls below this fraction of the particles
_LOG_MAX = math.log(sys.float_info.max)  # a register mean above e^_LOG_MAX is not a float


@dataclass(frozen=True)
class SmcSettings:
    n_particles: int = 2048
    n_runs: int = 12

    @classmethod
    def for_samples(cls, n_samples: int, n_runs: int) -> SmcSettings:
        """``n_runs`` runs sharing ``n_samples`` particles, at least 256 in each."""
        return cls(n_particles=max(256, n_samples // n_runs), n_runs=n_runs)


def _systematic_resample(weights: np.ndarray, u: float) -> np.ndarray:
    positions = (np.arange(weights.size) + u) / weights.size
    return np.searchsorted(np.cumsum(weights), positions).clip(0, weights.size - 1)


def smc_flow(params: ModelParams, t_half_values, dt: float, n_modes: int,
             theta_cells: int, settings: SmcSettings, seed,
             register_groups=(), workers: int = 1,
             quad: CQuadrature | None = None) -> dict:
    """Run replicated particle flows over the cylinder [0, 2*max(T)].

    Each particle starts at a zero mode c drawn uniformly on the window of
    ``quad`` (:func:`propagator.default_c_quadrature` if None).  A step takes
    the increment of int mu (e^{gamma c} S+ + e^{-gamma c} S-) dt from a
    particle's log weight, S+- its slice masses: one potential column in a
    :class:`gmc.Trapezoid`.
    ``register_groups`` is a sequence of insertion tuples ((alpha, s, theta),
    ...) in process coordinates; each particle accumulates the log vertex
    factors of a group along its genealogy, read with zero mode c + B by one
    :class:`gmc.VertexReads` into a (groups, particles) array.  A resampling
    takes only the registers whose first insertion row has passed.

    Returns per-run arrays: ``log_z`` (n_runs, len(t_half_values)) and
    ``group_means`` (n_runs, n_groups), the final-population weighted means of
    the exponentiated registers.
    """
    gamma, mu = params.gamma, params.mu_scaled
    if quad is None:
        quad = default_c_quadrature(gamma)
    t_half_values = [float(t) for t in t_half_values]
    grid, ends = TimeGrid.of_half_heights(t_half_values, dt)
    k_total = grid.n_steps
    marks = {k: j for j, k in enumerate(ends)}
    spec = fourier_spec(+1, n_modes)
    log_width = math.log(quad.c_max - quad.c_min)
    n = settings.n_particles

    groups = [tuple(g) for g in register_groups]
    reads = VertexReads(groups, [spec] * len(groups), grid, n_modes)

    def one_run(rng, _):
        c = rng.uniform(quad.c_min, quad.c_max, n)
        log_z = log_width
        log_w = np.zeros(n)
        regs = np.zeros((len(groups), n))
        # mu e^{+-gamma c}: a step's potential is V = mu (e^{gamma c} S+ + e^{-gamma c} S-)
        exp_cp, exp_cm = mu * capped_exp(gamma * c), mu * capped_exp(-gamma * c)
        kernel = SliceMass(gamma, spec, theta_cells)
        potential = Trapezoid(grid.dt)
        log_z_rows = np.full(len(t_half_values), np.nan)
        means = np.full(len(groups), np.nan)
        # the particles' paths are the stream's buffers, so resampling writes into them
        for k, b, x, y in stream_paths(rng, n, n_modes, grid):
            plus, minus = kernel(x, y, b)
            log_w -= potential.add(exp_cp * plus + exp_cm * minus).step()[0]
            if k in reads.rows:
                reads.add(k, c + b, x, y, regs)
            hi = log_w.max()
            w = np.exp(log_w - hi)
            w_sum = w.sum()
            if k in marks:
                log_z_rows[marks[k]] = log_z + hi + math.log(w_sum / n)
            if k == k_total:
                for gi, reg in enumerate(regs):
                    rhi = reg.max() if reg.size else 0.0
                    if rhi > _LOG_MAX:
                        raise RegisterOverflow(
                            f"register group {gi} {groups[gi]} reaches e^{rhi:.4g}, beyond "
                            f"the float range: at gamma {gamma} the zero-mode window "
                            f"[{quad.c_min:.4g}, {quad.c_max:.4g}] is too wide for its weights")
                    means[gi] = (w * np.exp(reg - rhi)).sum() / w_sum * math.exp(rhi)
            elif w_sum * w_sum / (w @ w) < _RESAMPLE_THRESHOLD * n:   # the ESS
                log_z += hi + math.log(w_sum / n)
                idx = _systematic_resample(w / w_sum, rng.uniform())
                c = c[idx]
                for path in (b, x, y):
                    path[:] = path[idx]
                exp_cp, exp_cm = exp_cp[idx], exp_cm[idx]
                potential.take(idx)
                for g in np.flatnonzero(reads.first <= k):  # 0 before its first row
                    regs[g] = regs[g][idx]
                log_w[:] = 0.0
        return {"log_z": log_z_rows[None], "group_means": means[None]}

    # one run per chunk: run r draws from the r-th child of ``seed``
    return map_replicas(one_run, seed, settings.n_runs, 1, workers)


def smc_log_partition(params: ModelParams, t_half_values, dt: float, n_modes: int,
                      theta_cells: int, settings: SmcSettings, seed,
                      workers: int = 1, quad: CQuadrature | None = None):
    """Per-height log-normalizer estimates: mean and s.e. across runs."""
    flow = smc_flow(params, t_half_values, dt, n_modes, theta_cells, settings, seed,
                    workers=workers, quad=quad)
    rows = flow["log_z"]
    mean = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
    return [(float(m), float(s)) for m, s in zip(mean, se)]
