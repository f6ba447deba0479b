"""Spectral extraction: lowest eigenvalue, gap from decay fits, profile proxy.

The lowest eigenvalue comes from the large-T slope of the log partition
function, the gap from log-linear decay fits of truncated two-point
functions.  Nothing here is a closed-form target; all numbers are
artifact-derived, so the module carries fit diagnostics rather than
reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, SignalLost
from .gff import TimeGrid, stream_paths
from .gmc import SliceMass, Trapezoid, fourier_spec
from .params import ModelParams
from .parallel import CHUNK, map_replicas
from .propagator import CQuadrature, default_c_quadrature, fk_damping
from .results import mean_and_se


@dataclass
class SpectralEstimate:
    """A fitted rate with its propagated error and fit diagnostics."""

    value: float
    std_error: float
    fit_window: list
    r_squared: float = float("nan")


def _weighted_line_fit(x, y, y_se):
    """Weighted least squares y = a + b x; returns (b, se_b, r2).

    Zero input errors mean an exact fit request: uniform weights and exact
    error propagation (se_b = 0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y_se = np.asarray(y_se, dtype=float)
    if x.size < 3:
        raise DegenerateFit("need at least 3 points")
    if np.ptp(x) == 0:
        raise DegenerateFit("all abscissae equal")
    if np.any(y_se < 0):
        raise ValueError("negative standard errors")
    w = np.ones_like(x) if np.all(y_se == 0) else 1.0 / np.maximum(y_se, 1e-300) ** 2
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    if sxx == 0:
        raise DegenerateFit("degenerate abscissae")
    b = (w * (x - xbar) * (y - ybar)).sum() / sxx
    a = ybar - b * xbar
    se_b = 0.0 if np.all(y_se == 0) else math.sqrt(1.0 / sxx)
    resid = y - (a + b * x)
    ss_tot = (w * (y - ybar) ** 2).sum()
    r2 = 1.0 - (w * resid ** 2).sum() / ss_tot if ss_tot > 0 else 1.0
    return b, se_b, r2


def lambda0_fit(t_values, log_z) -> SpectralEstimate:
    """Lowest eigenvalue from log Z against 2T: the slope is -lambda0.

    ``log_z`` is a list of (estimate, standard error).  Adding a constant to
    all estimates leaves the result unchanged.
    """
    t_values = [float(t) for t in t_values]
    if sorted(t_values) != t_values or len(set(t_values)) != len(t_values):
        raise DegenerateFit("T values must be strictly increasing")
    y = [v for v, _ in log_z]
    se = [s for _, s in log_z]
    b, se_b, r2 = _weighted_line_fit([2.0 * t for t in t_values], y, se)
    return SpectralEstimate(value=-b, std_error=se_b, fit_window=t_values, r_squared=r2)


def spectral_gap_fit(separations, covariances) -> SpectralEstimate:
    """Decay rate of |covariance| against separation (= the spectral gap).

    Every standard error must be positive and finite (a zero error would
    claim an exact gap), else DegenerateFit; every covariance must be bounded
    away from zero at 3 standard errors, otherwise the log transform is
    meaningless and SignalLost is raised.
    """
    separations = [float(s) for s in separations]
    vals = np.array([v for v, _ in covariances], dtype=float)
    ses = np.array([s for _, s in covariances], dtype=float)
    if len(separations) < 3:
        raise DegenerateFit("need at least 3 separations")
    bad = ses[~(np.isfinite(ses) & (ses > 0))]
    if bad.size:
        raise DegenerateFit(f"standard errors must be positive and finite, got {bad[0]}")
    if np.any(np.abs(vals) <= 3.0 * ses):
        raise SignalLost("covariance consistent with zero at some separation")
    y = np.log(np.abs(vals))
    y_se = ses / np.abs(vals)
    b, se_b, r2 = _weighted_line_fit(separations, y, y_se)
    return SpectralEstimate(value=-b, std_error=se_b, fit_window=separations, r_squared=r2)


def lambda0_scaling_probe(r_values, lambda0_estimates) -> SpectralEstimate:
    """EXPERIMENTAL: log-log slope of lambda0 against the cylinder radius.

    Directional only; the conjectured large-R exponent is 2 but no pass/fail
    is attached at desk scale.
    """
    r_values = [float(r) for r in r_values]
    vals = np.array([v for v, _ in lambda0_estimates], dtype=float)
    ses = np.array([s for _, s in lambda0_estimates], dtype=float)
    if np.any(vals <= 0):
        raise DegenerateFit("lambda0 estimates must be positive for a log-log fit")
    y = np.log(vals)
    y_se = ses / vals
    b, se_b, r2 = _weighted_line_fit(np.log(r_values), y, y_se)
    return SpectralEstimate(value=b, std_error=se_b, fit_window=r_values, r_squared=r2)


# ---------------------------------------------------------------------------
# Ground-state profile proxy
# ---------------------------------------------------------------------------

@dataclass
class GroundStateProfile:
    """Binned (c, x_1) marginal proxy of the ground state, normalized to 1.

    Values approximate the damped-evolution image of the constant function up
    to one global constant; higher modes are integrated out.
    """

    c_edges: np.ndarray
    x_edges: np.ndarray
    values: np.ndarray        # (nc, nx), sums to 1 over filled bins
    std_errors: np.ndarray
    counts: np.ndarray

    def rows(self):
        for i in range(self.values.shape[0]):
            for j in range(self.values.shape[1]):
                yield (0.5 * (self.c_edges[i] + self.c_edges[i + 1]),
                       0.5 * (self.x_edges[j] + self.x_edges[j + 1]),
                       self.values[i, j], self.std_errors[i, j], int(self.counts[i, j]))


def ground_state_profile(t: float, params: ModelParams, *, dt: float = 1.0 / 32.0,
                         n_modes: int = 64, theta_cells: int = 128,
                         quad: CQuadrature | None = None,
                         bins: tuple[int, int] = (12, 8), x_range: float = 3.0,
                         n_samples: int = 20000, seed=0,
                         workers: int = 1) -> GroundStateProfile:
    """Conditional damping weight binned over the start slice (c, x_1).

    The zero mode of the start is drawn uniformly over the quadrature window
    (Lebesgue reference), the rest stationary; each replica contributes its
    damping weight over [0, t] to the bin of its start.
    """
    gamma, mu = params.gamma, params.mu_scaled
    if quad is None:
        quad = default_c_quadrature(gamma)
    grid = TimeGrid.spanning(t, dt)
    nc, nx = bins
    c_edges = np.linspace(quad.c_min, quad.c_max, nc + 1)
    x_edges = np.linspace(-x_range, x_range, nx + 1)

    def run(rng, size):
        cs = rng.uniform(quad.c_min, quad.c_max, size)
        mass = Trapezoid(grid.dt)
        kernel = SliceMass(gamma, fourier_spec(+1, n_modes), theta_cells)
        for k, b, x, y in stream_paths(rng, size, n_modes, grid):
            if k == 0:
                x1 = x[:, 0].copy()
            mass.add(*kernel(x, y, b))
        w = fk_damping(*mass.integral(), cs, mu, gamma)
        return {"c": cs, "x1": x1, "w": w}

    cols = map_replicas(run, seed, n_samples, CHUNK, workers)
    cs, x1, w = cols["c"], cols["x1"], cols["w"]

    values = np.zeros((nc, nx))
    ses = np.zeros((nc, nx))
    counts = np.zeros((nc, nx), dtype=int)
    ci = np.clip(np.digitize(cs, c_edges) - 1, 0, nc - 1)
    xi = np.clip(np.digitize(x1, x_edges) - 1, 0, nx - 1)
    for i in range(nc):
        for j in range(nx):
            sel = (ci == i) & (xi == j)
            counts[i, j] = sel.sum()
            if counts[i, j] > 1:
                values[i, j], ses[i, j] = mean_and_se(w[sel])
    total = values.sum()
    if total <= 0:
        raise SignalLost("all profile bins empty or zero")
    return GroundStateProfile(c_edges=c_edges, x_edges=x_edges,
                              values=values / total, std_errors=ses / total,
                              counts=counts)
