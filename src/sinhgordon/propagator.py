"""Exact free propagator kernel and Feynman-Kac semigroup estimators.

The interacting semigroup acts on functionals of a slice field by evolving
the free field and damping with the exponential of chaos masses; the
partition function of the finite cylinder integrates that damping over the
zero mode.  The zero-mode integral uses deterministic quadrature with common
random numbers: all c nodes share one set of field paths.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveTime, RegionOutsideGrid, TailTolNotMet
from .gff import CircleField, TimeGrid, stream_paths
from .gmc import GmcSpec, SliceMass, Trapezoid, fourier_spec
from .gmc import mass_pair_slices  # noqa: F401  (re-exported)
from .params import ModelParams
from .parallel import CHUNK, map_replicas
from .results import EstimatorResult, jackknife_func, mean_and_se

_EXP_CAP = 700.0  # exp argument cap; beyond this the FK weight underflows to 0


def capped_exp(x):
    """exp with its argument capped at _EXP_CAP, so damping weights never overflow."""
    return np.exp(np.minimum(x, _EXP_CAP))


# ---------------------------------------------------------------------------
# Free kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelEval:
    """Kernel value with a certified truncation bound (|true - value| <= bound)."""

    t: float
    n_modes: int
    tail_tol: float
    value: float
    tail_bound: float


def mehler_factor(s: float, x, xp):
    """Single-coordinate transition factor against the stationary normal.

    (1-e^{-2s})^{-1/2} exp(-q_s(x,x')/(4 sinh s)) with
    q_s(x,x') = (x^2+x'^2) e^{-s} - 2 x x'; integrates to 1 in x' against the
    standard normal density.
    """
    q = (np.asarray(x) ** 2 + np.asarray(xp) ** 2) * np.exp(-s) - 2.0 * np.asarray(x) * np.asarray(xp)
    return np.exp(-q / (4.0 * np.sinh(s))) / np.sqrt(-np.expm1(-2.0 * s))


def _log_product_tail(t: float, n_from: int) -> float:
    """-sum_{n>n_from} log(1-e^{-2tn}), summed exactly via the k-series."""
    q = math.exp(-2.0 * t)
    total = 0.0
    k = 1
    while True:
        qk = q ** k
        term = qk ** (n_from + 1) / (k * (1.0 - qk))
        total += term
        if term < 1e-300 or term < 1e-18 * max(total, 1e-300):
            return total
        k += 1


def free_kernel(t: float, f1: CircleField, f2: CircleField, n_modes: int,
                tail_tol: float = 1e-10) -> KernelEval:
    """Evaluate the free propagator kernel between two slice fields.

    The zero-mode part is the heat kernel in the constants; each Fourier mode
    contributes a Mehler factor.  Modes above ``n_modes`` present in the
    fields are dropped; their worst-case contribution plus the (exactly
    summed) infinite product tail gives the certified ``tail_bound``.
    """
    if t <= 0.0:
        raise NonPositiveTime(f"propagator time must be > 0, got {t}")
    n_avail = min(f1.n_modes, f2.n_modes)
    if n_modes > n_avail:
        raise ValueError(f"n_modes={n_modes} exceeds available field modes {n_avail}")
    c1, c2 = f1.zero_mode, f2.zero_mode
    n = np.arange(1, n_modes + 1, dtype=float)
    s = t * n
    q_x = (f1.xs[:n_modes] ** 2 + f2.xs[:n_modes] ** 2) * np.exp(-s) \
        - 2.0 * f1.xs[:n_modes] * f2.xs[:n_modes]
    q_y = (f1.ys[:n_modes] ** 2 + f2.ys[:n_modes] ** 2) * np.exp(-s) \
        - 2.0 * f1.ys[:n_modes] * f2.ys[:n_modes]
    # q/(4 sinh s) written as q e^{-s} / (2 (1-e^{-2s})) to avoid sinh overflow
    inv_gain = np.exp(-s) / (2.0 * (-np.expm1(-2.0 * s)))
    log_val = (-0.5 * math.log(2.0 * math.pi * t)
               - (c1 - c2) ** 2 / (2.0 * t)
               - np.sum(np.log(-np.expm1(-2.0 * s)))
               - np.sum((q_x + q_y) * inv_gain)
               + _log_product_tail(t, n_modes))
    # worst-case magnitude of the dropped mode exponents
    bound_log = 0.0
    if n_avail > n_modes:
        m = np.arange(n_modes + 1, n_avail + 1, dtype=float)
        sm = t * m
        inv_gain_m = np.exp(-sm) / (2.0 * (-np.expm1(-2.0 * sm)))
        amp = (f1.xs[n_modes:n_avail] ** 2 + f2.xs[n_modes:n_avail] ** 2
               + f1.ys[n_modes:n_avail] ** 2 + f2.ys[n_modes:n_avail] ** 2)
        cross = 2.0 * (np.abs(f1.xs[n_modes:n_avail] * f2.xs[n_modes:n_avail])
                       + np.abs(f1.ys[n_modes:n_avail] * f2.ys[n_modes:n_avail]))
        bound_log = float(np.sum((amp * np.exp(-sm) + cross) * inv_gain_m))
    value = math.exp(log_val)
    bound = value * math.expm1(bound_log) if bound_log < _EXP_CAP else math.inf
    if bound > tail_tol:
        raise TailTolNotMet(
            f"certified truncation bound {bound:.3e} exceeds tail_tol={tail_tol}; "
            f"increase n_modes")
    return KernelEval(t=t, n_modes=n_modes, tail_tol=tail_tol, value=value, tail_bound=bound)


# ---------------------------------------------------------------------------
# Zero-mode quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CQuadrature:
    """Uniform trapezoid quadrature over the zero-mode window."""

    c_min: float
    c_max: float
    n_nodes: int = 65

    def __post_init__(self):
        if self.c_min >= self.c_max:
            raise ValueError("c_min must be < c_max")
        if self.n_nodes < 8:
            raise ValueError("n_nodes must be >= 8")

    def nodes(self):
        c = np.linspace(self.c_min, self.c_max, self.n_nodes)
        w = np.full(self.n_nodes, (self.c_max - self.c_min) / (self.n_nodes - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return c, w


def default_c_quadrature(gamma: float, n_nodes: int = 65,
                         half_width: float = 8.0) -> CQuadrature:
    """The zero-mode window [-w/gamma, w/gamma] of every sampler, w = ``half_width``.

    At the default w = 8 the double-exponential damping makes the tail
    negligible; the boundary diagnostic checks this at run time.
    """
    return CQuadrature(-half_width / gamma, half_width / gamma, n_nodes)


# ---------------------------------------------------------------------------
# Shared path machinery
# ---------------------------------------------------------------------------

def fk_damping(mass_plus, mass_minus, c, mu, gamma):
    """FK damping e^{-mu(e^{gc} M+ + e^{-gc} M-)}; array masses broadcast against c.

    Computed through logs with a cap so extreme masses underflow to weight 0
    instead of producing NaN.  The work is done in place in the two
    broadcast-shaped buffers of the exponents, in the operation order of
    ``capped_exp``, so no further temporaries of that shape are made.
    """
    with np.errstate(divide="ignore"):
        plus = np.log(mass_plus) + gamma * c
        minus = np.log(mass_minus) - gamma * c
    for buf in (plus, minus):
        np.minimum(buf, _EXP_CAP, out=buf)
        np.exp(buf, out=buf)
    plus += minus
    plus *= -mu
    return np.exp(plus, out=plus)


def fk_weights(mass_plus, mass_minus, cs, mu, gamma):
    """FK damping for paths x c nodes: masses (R,), nodes (C,) -> (R, C)."""
    return fk_damping(mass_plus[:, None], mass_minus[:, None], np.atleast_1d(cs)[None, :],
                      mu, gamma)


def _fourier_only(spec: GmcSpec) -> None:
    if spec.kind != "fourier":
        raise RegionOutsideGrid("the circle average of a mass over [0, t] needs slices before 0")


# ---------------------------------------------------------------------------
# Feynman-Kac estimators
# ---------------------------------------------------------------------------

def feynman_kac(observable, t: float, start, params: ModelParams, grid: TimeGrid,
                spec: GmcSpec, n_samples: int, seed, theta_cells: int = 128,
                workers: int = 1) -> EstimatorResult:
    """Monte Carlo estimate of the damped semigroup applied to an observable.

    ``start`` is (c, CircleField); paths are conditioned on that slice.
    ``observable(zero_total, x, y) -> (R,)`` receives c + B_t and the final
    mode coordinates; ``None`` means the constant 1.  Weights are the chaos
    masses of [0, t] x circle for both signs, combined in log space.
    """
    k_end = grid.index_of(t)
    _fourier_only(spec)
    c0, init = start
    gamma, mu = params.gamma, params.mu_scaled
    t0 = time.perf_counter()

    def run(rng, size):
        mass = Trapezoid(grid.dt)
        kernel = SliceMass(gamma, spec, theta_cells)
        for k, b, x, y in stream_paths(rng, size, init.n_modes, grid, initial=init):
            mass.add(*kernel(x, y, b))
            if k == k_end:
                obs = np.ones(size) if observable is None else observable(c0 + b, x, y)
                break
        return {"vals": obs * fk_weights(*mass.integral(), np.array([c0]), mu, gamma)[:, 0]}

    mean, se = mean_and_se(map_replicas(run, seed, n_samples, CHUNK, workers)["vals"])
    return EstimatorResult(mean=mean, std_error=se, wall_ms=1e3 * (time.perf_counter() - t0))


def feynman_kac_circle_potential(observable, t: float, start, params: ModelParams,
                                 grid: TimeGrid, k_trunc: int, n_theta: int,
                                 n_samples: int, seed, workers: int = 1) -> EstimatorResult:
    """Same semigroup, with the damping written as a time integral of slice
    potentials instead of a two-dimensional mass."""
    if params.gamma >= math.sqrt(2.0):
        warnings.warn("circle-potential weights with gamma >= sqrt(2): the "
                      "untruncated potential does not exist in this regime",
                      RuntimeWarning, stacklevel=2)
    k_end = grid.index_of(t)
    c0, init = start
    if k_trunc > init.n_modes:
        raise ValueError("k_trunc exceeds field mode count")
    gamma, mu = params.gamma, params.mu_scaled
    t0 = time.perf_counter()

    def run(rng, size):
        integ = Trapezoid(grid.dt)
        kernel = SliceMass(gamma, fourier_spec(+1, k_trunc), n_theta)
        for k, b, x, y in stream_paths(rng, size, init.n_modes, grid, initial=init):
            v_plus, v_minus = kernel(x, y)
            integ.add(capped_exp(gamma * (c0 + b)) * v_plus
                      + capped_exp(-gamma * (c0 + b)) * v_minus)
            if k == k_end:
                obs = np.ones(size) if observable is None else observable(c0 + b, x, y)
                break
        return {"vals": obs * np.exp(-mu * integ.integral()[0])}

    mean, se = mean_and_se(map_replicas(run, seed, n_samples, CHUNK, workers)["vals"])
    return EstimatorResult(mean=mean, std_error=se, wall_ms=1e3 * (time.perf_counter() - t0))


# ---------------------------------------------------------------------------
# Partition function
# ---------------------------------------------------------------------------

@dataclass
class PartitionPoint:
    """Z estimate at one cylinder half-height."""

    t_half: float
    z: float
    z_se: float
    log_z: float
    log_z_se: float
    boundary_fraction: float
    truncation_warning: bool
    samples: np.ndarray = field(repr=False)   # the (n_samples,) per-path Z column


def partition_curve(t_half_values, params: ModelParams, quad: CQuadrature,
                    dt: float, spec: GmcSpec, n_samples: int, seed,
                    theta_cells: int = 128, workers: int = 1) -> list[PartitionPoint]:
    """Z estimates at several half-heights from one set of shared paths.

    The chaos masses of the nested spans [0, 2T] are one running trapezoid
    integral over the same paths, read at each span's end row, so the curve
    is per-sample coupled: larger T means more mass and a pointwise smaller
    weight.  Each point keeps its per-path Z column as ``samples``.
    """
    t_half_values = sorted(float(v) for v in t_half_values)
    grid, ends = TimeGrid.of_half_heights(t_half_values, dt)
    _fourier_only(spec)
    gamma, mu = params.gamma, params.mu_scaled
    cs, cw = quad.nodes()

    def run(rng, size):
        z_rows = np.empty((size, len(ends)))
        edge = np.zeros((size, len(ends), 2))
        peak = np.zeros((size, len(ends)))
        mass = Trapezoid(grid.dt)
        kernel = SliceMass(gamma, spec, theta_cells)
        for k, b, x, y in stream_paths(rng, size, spec.path_modes, grid):
            mass.add(*kernel(x, y, b))
            for j in [j for j, k_end in enumerate(ends) if k_end == k]:
                w = fk_weights(*mass.integral(), cs, mu, gamma)
                z_rows[:, j] = w @ cw
                edge[:, j] = w[:, [0, -1]]
                peak[:, j] = w.max(axis=1)
        return {"z": z_rows, "edge": edge, "peak": peak}

    cols = map_replicas(run, seed, n_samples, CHUNK, workers)
    z, edge, peak = cols["z"], cols["edge"], cols["peak"]
    points = []
    for j, th in enumerate(t_half_values):
        mean, se = mean_and_se(z[:, j])
        log_se = jackknife_func([z[:, j]], lambda s: np.log(s))[1]
        log_z = math.log(mean)
        frac = float(max(edge[:, j, 0].mean(), edge[:, j, 1].mean()) / max(peak[:, j].mean(), 1e-300))
        points.append(PartitionPoint(
            t_half=th, z=mean, z_se=se, log_z=log_z, log_z_se=log_se,
            boundary_fraction=frac, truncation_warning=frac > 1e-6, samples=z[:, j]))
    return points
