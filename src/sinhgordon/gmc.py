"""Renormalized multiplicative-chaos masses on cylinder regions.

Two regularizations of the same limit measure are supported: truncation to N
Fourier modes (renormalization constant H_N, the exact stationary variance of
the truncated slice field) and averaging over radius-epsilon circles
(renormalization constant log(1/epsilon)).  Masses are midpoint Riemann sums
in theta and trapezoid sums in slice time, with field samples living on the
path's grid nodes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegion, IncompatibleGrids, IndexOutOfRange, RegionOutsideGrid, \
    WindowOutsideCylinder
from .gff import CircleAverage, TimeGrid, fluctuation_grid, stream_paths, theta_basis
from .parallel import CHUNK, map_replicas, stateless_children
from .params import ModelParams
from .results import EstimatorResult, mean_and_se

_CIRCLE_PATH_MODES = 64  # modes sampled for a circle-averaged density


def harmonic_number(n: int) -> float:
    """Exact partial sum H_N = sum_{k<=N} 1/k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.sum(1.0 / np.arange(1, n + 1, dtype=float)))


@dataclass(frozen=True)
class Region:
    """Time strip [t_min, t_max] crossed with the full circle."""

    t_min: float
    t_max: float

    def __post_init__(self):
        if self.t_min > self.t_max:
            raise ValueError("t_min must be <= t_max")

    def scaled(self, factor: float) -> "Region":
        """Region factor^{-1} * A used by the scaling reduction."""
        return Region(self.t_min / factor, self.t_max / factor)


@dataclass(frozen=True)
class GmcSpec:
    """Sign and regularization of a chaos mass.

    ``renorm_constant`` is H_N for ``fourier(N)`` and log(1/eps) for
    ``circle(eps)``.
    """

    sigma: int
    kind: str                      # "fourier" | "circle"
    n_modes: int | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.sigma not in (+1, -1):
            raise ValueError("sigma must be +1 or -1")
        if self.kind == "fourier":
            if not self.n_modes or self.n_modes < 1:
                raise ValueError("fourier regularization needs n_modes >= 1")
        elif self.kind == "circle":
            if not self.epsilon or self.epsilon <= 0:
                raise ValueError("circle regularization needs epsilon > 0")
        else:
            raise ValueError(f"unknown regularization {self.kind!r}")

    @property
    def renorm_constant(self) -> float:
        if self.kind == "fourier":
            return harmonic_number(self.n_modes)
        return float(np.log(1.0 / self.epsilon))

    @property
    def path_modes(self) -> int:
        """Modes a sampled path needs for this density."""
        return self.n_modes if self.kind == "fourier" else _CIRCLE_PATH_MODES


def fourier_spec(sigma: int, n_modes: int) -> GmcSpec:
    return GmcSpec(sigma=sigma, kind="fourier", n_modes=n_modes)


def circle_spec(sigma: int, epsilon: float) -> GmcSpec:
    return GmcSpec(sigma=sigma, kind="circle", epsilon=epsilon)


# ---------------------------------------------------------------------------
# Grid machinery
# ---------------------------------------------------------------------------

def theta_nodes(theta_cells: int):
    """Midpoint nodes and cell width over the circle."""
    if theta_cells < 4:
        raise ValueError("theta_cells must be >= 4")
    width = 2.0 * np.pi / theta_cells
    return width * (np.arange(theta_cells) + 0.5), width


# ---------------------------------------------------------------------------
# Slice-mass kernel: every chaos mass and slice potential goes through here
# ---------------------------------------------------------------------------

class SliceMass:
    """The one slice-mass kernel and the one home of the slice discretization.

    S+-[k] = e^{-gamma^2 renorm/2} * dtheta * e^{+-gamma B_k} * sum_theta e^{+-gamma phi_k}
    over the ``theta_cells`` :func:`theta_nodes`; ``spec`` gives renorm and phi's modes.
    The field is synthesized into a reused buffer and exponentiated in place
    once; the minus sign takes the reciprocal into a second buffer.  The
    midpoint grid is mirror-symmetric, theta_{T-1-j} = 2 pi - theta_j, by
    construction: the cosine sum C is even and the sine sum S odd
    under the mirror, so :meth:`load` synthesizes the first half of the nodes
    only and writes the field as C + S on the first half and C - S, reversed,
    on the second (a middle node, for an odd count, sits at pi, where S
    vanishes), all inside the two buffers.
    ``basis`` is the full basis, shared by every kernel of the same modes and
    cells.  Both theta sums are one matrix-vector product with a weight
    vector: ones, or for a shifted field phi + s the precomputed
    ``(e^{gamma s}, e^{-gamma s})``, with no further exp.
    """

    def __init__(self, gamma: float, spec: GmcSpec, theta_cells: int):
        thetas, dtheta = theta_nodes(theta_cells)
        self.gamma, self.n_modes = gamma, spec.path_modes
        self.scale = math.exp(-0.5 * gamma * gamma * spec.renorm_constant) * dtheta
        self.basis = theta_basis(self.n_modes, thetas)
        self.e = self.inv = self.ones = None

    def load(self, x: np.ndarray, y: np.ndarray) -> "SliceMass":
        """Load a slice from (R, N) mode coefficients; the first ``n_modes`` are used."""
        n = self.n_modes
        cb, sb = self.basis
        cells = cb.shape[1]
        half = cells // 2
        lead = x.shape[:-1]
        if self.e is None or self.e.shape != (*lead, cells):
            self._buffers((*lead, cells))
        # C and S into contiguous blocks of the second buffer, C + S, C - S and
        # C's middle column into blocks of the first, then the field in node
        # order into the second, which becomes the first: every elementwise
        # step runs on contiguous blocks, so numpy takes no iteration buffer
        c, s = _blocks(self.inv, lead, (cells - half, half))
        np.matmul(x[..., :n], cb[:, :cells - half], out=c)
        np.matmul(y[..., :n], sb[:, :half], out=s)
        plus, minus, middle = _blocks(self.e, lead, (half, half, cells - 2 * half))
        np.add(c[..., :half], s, out=plus)
        np.subtract(c[..., :half], s, out=minus)
        middle[...] = c[..., half:]
        field = self.inv
        field[..., :half] = plus
        field[..., half:cells - half] = middle
        field[..., cells - half:] = minus[..., ::-1]
        self.e, self.inv = field, self.e
        return self._exponentiate()

    def _buffers(self, shape) -> None:
        self.e, self.inv, self.ones = np.empty(shape), np.empty(shape), np.ones(shape[-1])

    def _exponentiate(self) -> "SliceMass":
        self.e *= self.gamma
        np.exp(self.e, out=self.e)
        np.reciprocal(self.e, out=self.inv)
        return self

    def pair(self, brownian=0.0, shift=None):
        """(S+, S-) of the loaded slice; of the field phi + s for ``shift`` = (e^{gs}, e^{-gs})."""
        plus_w, minus_w = (self.ones, self.ones) if shift is None else shift
        zero = np.exp(self.gamma * brownian)
        return self.scale * zero * (self.e @ plus_w), self.scale / zero * (self.inv @ minus_w)

    def __call__(self, x: np.ndarray, y: np.ndarray, brownian=0.0):
        return self.load(x, y).pair(brownian)


def _blocks(buffer: np.ndarray, lead: tuple, widths) -> list:
    """Consecutive contiguous (*lead, width) blocks of ``buffer``'s memory."""
    flat, rows, out, at = buffer.reshape(-1), math.prod(lead), [], 0
    for width in widths:
        out.append(flat[at:at + rows * width].reshape(*lead, width))
        at += rows * width
    return out


class Trapezoid:
    """The one trapezoid rule in slice time: running integrals of (R,) columns.

    :meth:`add` takes one row's columns, from the region's first row on, into
    the open sum o = (dt/2) S_first + dt S_{first+1} + ... + dt S_{k-1}, added
    left to right.  :meth:`integral` over [t_first, t_k] is o + (dt/2) S_k and
    :meth:`step` dt (S_{k-1} + S_k) / 2, both 0 at the first row; :meth:`take`
    reorders the paths when a particle flow resamples.
    """

    def __init__(self, dt: float):
        self.dt, self.open, self.prev, self.last = dt, None, None, None

    def add(self, *cols) -> "Trapezoid":
        if self.last is None:
            self.open = [np.zeros(np.shape(c)) for c in cols]
        else:
            w = self.dt / 2.0 if self.prev is None else self.dt
            for o, s in zip(self.open, self.last):
                o += w * s
        self.prev, self.last = self.last, cols
        return self

    def integral(self) -> tuple:
        if self.prev is None:
            return tuple(np.zeros_like(o) for o in self.open)
        return tuple(o + self.dt / 2.0 * s for o, s in zip(self.open, self.last))

    def step(self) -> tuple:
        if self.prev is None:
            return tuple(np.zeros_like(o) for o in self.open)
        return tuple(0.5 * self.dt * (p + s) for p, s in zip(self.prev, self.last))

    def take(self, idx) -> None:
        self.open, self.last = [o[idx] for o in self.open], [s[idx] for s in self.last]
        if self.prev is not None:
            self.prev = [p[idx] for p in self.prev]


def mass_pair_slices(brownian, fields, gamma, renorm, dtheta):
    """Slice masses for both signs, (S+, S-), of stored (..., T) fields, summed as in SliceMass."""
    e = np.exp(gamma * np.asarray(fields, dtype=float))
    ones, zero = np.ones(e.shape[-1]), np.exp(gamma * brownian)
    scale = math.exp(-0.5 * gamma * gamma * renorm) * dtheta
    return scale * zero * (e @ ones), scale / zero * (np.reciprocal(e) @ ones)


class VertexReads:
    """The one reader of vertex insertions: row by row, each group's log factor
    sum_i alpha_i (zero + phi(s_i, theta_i)) - (alpha_i^2/2) renorm.

    ``groups`` are insertion tuples ((alpha, s, theta), ...) in process time,
    ``specs`` their :class:`GmcSpec`.  A Fourier insertion reads phi_N at its
    row and angle.  A circle insertion reads the zero mode at its row and, the
    factor being linear in the field, adds alpha/16 of the field (all
    ``n_modes``) at each point (row + off, theta + a) of its
    :class:`gff.CircleAverage`.  A row reads the field once per regularization,
    at all its angles there, so a group's factor does not depend on the
    groups of other regularizations.  ``first`` holds each group's first row.
    """

    def __init__(self, groups, specs, grid: TimeGrid, n_modes: int):
        self.rows = {}  # row -> ({read: {angle: column}}, [(group, alpha, h, read, column)])
        self.first = np.full(len(groups), np.inf)
        for g, (group, spec) in enumerate(zip(groups, specs)):
            circle = CircleAverage(spec.epsilon, grid.dt) if spec.kind == "circle" else None
            if circle is None and spec.n_modes > n_modes:
                raise IndexOutOfRange(f"requested {spec.n_modes} modes, path has {n_modes}")
            read = (spec, n_modes if circle else spec.n_modes)  # the modes it synthesizes
            for a, s, theta in group:
                k, h = grid.index_of(s), 0.5 * a * a * spec.renorm_constant
                if not 0 < k < grid.n_steps:
                    raise WindowOutsideCylinder(f"insertion time {s} outside the open cylinder")
                if circle is None:
                    self._term(g, k, a, h, read, theta)
                elif not circle.covers(k, grid.n_steps):
                    raise WindowOutsideCylinder("averaging circle leaves the window")
                else:
                    self._term(g, k, a, h)
                    for off, ang in zip(circle.offsets, circle.angles):
                        self._term(g, k + int(off), a / circle.offsets.size, None, read,
                                   theta + ang)

    def _term(self, g, k, a, h, read=None, theta=None):
        """Row k adds a (zero + phi(theta)) - h to group g; h None: no zero, read None: no phi."""
        reads, terms = self.rows.setdefault(k, ({}, []))
        angles = reads.setdefault(read, {})
        terms.append((g, a, h, read, angles.setdefault(theta, len(angles))))
        self.first[g] = min(self.first[g], k)

    def add(self, k: int, zero: np.ndarray, x: np.ndarray, y: np.ndarray, regs: np.ndarray):
        """Add row k's terms to the (G, R) log factors ``regs``, with ``zero`` the (R,) zero mode."""
        if k not in self.rows:
            return
        reads, terms = self.rows[k]
        phi = {read: fluctuation_grid(x, y, np.array(list(angles)), read[1])
               for read, angles in reads.items() if read is not None}
        for g, a, h, read, col in terms:
            if read is None:
                regs[g] += a * zero
            elif h is None:
                regs[g] += a * phi[read][:, col]
            else:
                regs[g] += a * (zero + phi[read][:, col])
            if h:
                regs[g] -= h


# ---------------------------------------------------------------------------
# Region mass sampler used by the statistical checks below
# ---------------------------------------------------------------------------

def sample_region_masses(region: Region, spec: GmcSpec, params: ModelParams,
                         n_samples: int, seed, dt: float = 1.0 / 64.0,
                         theta_cells: int = 128, workers: int = 1) -> np.ndarray:
    """Stationary-start Monte Carlo draws of the mass of one region.

    Returns the (n_samples,) array of masses, drawn in ``parallel.CHUNK``-sized
    chunks through :func:`map_replicas`.  The circle regularization needs
    epsilon of sampled span on both sides of the region: the paths run to
    t_max + epsilon, and t_min must be at least epsilon.
    """
    margin = spec.epsilon if spec.kind == "circle" else 0.0
    if region.t_min - margin < -1e-12:
        what = f"region t_min {region.t_min}" + (f" less its circle margin {margin}"
                                                  if margin else "")
        raise RegionOutsideGrid(f"{what} lies below t=0; shift the region")
    grid = TimeGrid.spanning(region.t_max + margin, dt)
    if region.t_max - region.t_min <= 0.0:
        return np.zeros(n_samples)
    first, last = grid.index_of(region.t_min), grid.index_of(region.t_max)
    sign = 0 if spec.sigma > 0 else 1
    circle = CircleAverage(spec.epsilon, grid.dt) if spec.kind == "circle" else None
    if circle is not None and not (circle.covers(first, grid.n_steps)
                                   and circle.covers(last, grid.n_steps)):
        raise RegionOutsideGrid("averaging circle leaves the sampled span inside the region")
    reach = 0 if circle is None else circle.reach

    def run(rng, size):
        kernel = SliceMass(params.gamma, spec, theta_cells)
        mass = Trapezoid(grid.dt)
        recent = {}  # circle only: the last 2 * reach + 1 slices, what its average reads
        for k, b, x, y in stream_paths(rng, size, spec.path_modes, grid):
            if circle is not None:
                recent[k] = (b.copy(), x.copy(), y.copy())
                recent.pop(k - 2 * reach - 1, None)
            j = k - reach
            if not first <= j <= last:
                continue
            if circle is not None:
                b = recent[j][0]
                x, y = circle.modes(lambda i: recent[i][1:], j)
            mass.add(kernel(x, y, b)[sign])
        return {"mass": mass.integral()[0]}

    return map_replicas(run, seed, n_samples, CHUNK, workers)["mass"]


def expected_mass(region: Region, params: ModelParams) -> float:
    """Stationary mean of the unit-radius mass: 2 pi * int e^{g^2 t/2} dt."""
    g2 = params.gamma ** 2
    return 2.0 * np.pi * (2.0 / g2) * (np.exp(0.5 * g2 * region.t_max)
                                       - np.exp(0.5 * g2 * region.t_min))


def scaling_check(region: Region, params: ModelParams, n_samples: int, seed,
                  dt: float = 1.0 / 64.0, theta_cells: int = 128,
                  n_modes: int = 64, workers: int = 1) -> dict:
    """Compare the radius-R mass of a region against R^{gamma Q} times the
    unit-radius mass of the shrunk region (both at sigma = +1).

    Both sides are Monte Carlo estimates; the radius-R side is produced by the
    time/angle substitution (the only implementation of R != 1).  At R = 1 the
    two sides are one sample and are identical by construction.
    """
    r = params.radius
    scale = r ** (params.gamma * params.q_const)
    reduced = region.scaled(r)
    if reduced.t_max - reduced.t_min > 0 and round((reduced.t_max - reduced.t_min) / dt) < 2:
        raise IncompatibleGrids("reduced region spans fewer than 2 grid steps; decrease dt")
    spec = fourier_spec(+1, n_modes)
    child_a, child_b = stateless_children(seed, 2)
    sample = dict(dt=dt, theta_cells=theta_cells, workers=workers)
    side_r = scale * sample_region_masses(reduced, spec, params, n_samples, child_a, **sample)
    side_unit = side_r if r == 1.0 else sample_region_masses(reduced, spec, params, n_samples,
                                                             child_b, **sample)
    mean_r, se_r = mean_and_se(side_r)
    mean_u, se_u = mean_and_se(side_unit)
    combined_se = math.sqrt(se_r ** 2 + (scale * se_u) ** 2)
    passed = abs(mean_r - scale * mean_u) <= 3.0 * combined_se if combined_se > 0 else mean_r == scale * mean_u
    qs = [0.1, 0.5, 0.9]
    return {
        "radius": r,
        "target_ratio": scale,
        "mean_scaled_side": mean_r,
        "se_scaled_side": se_r,
        "mean_unit_side": mean_u,
        "se_unit_side": se_u,
        "ratio": mean_r / mean_u if mean_u != 0 else float("nan"),
        "quantiles_scaled_side": list(np.quantile(side_r, qs)) if side_r.size else [],
        "quantiles_unit_side": list(np.quantile(side_unit, qs)) if side_unit.size else [],
        "combined_se": combined_se,
        "pass": bool(passed),
    }


def moment_estimator(region: Region, spec: GmcSpec, params: ModelParams, p: float,
                     n_samples: int, seed, dt: float = 1.0 / 64.0,
                     theta_cells: int = 128, workers: int = 1) -> EstimatorResult:
    """Monte Carlo estimate of E[mass^p] with a heavy-tail instability flag.

    Finiteness of moments is not decidable from samples; the flag reports
    whether the s.e./mean ratio keeps shrinking across doubling batch sizes
    (stable) or not (unstable, expected near and beyond p = 4/gamma^2).
    """
    if region.t_max - region.t_min <= 0:
        raise EmptyRegion("moment estimation needs a region of positive area")
    if p == 0:
        raise ValueError("p must be nonzero")
    t0 = time.perf_counter()
    masses = sample_region_masses(region, spec, params, n_samples, seed,
                                  dt=dt, theta_cells=theta_cells, workers=workers)
    vals = masses ** p
    mean, se = mean_and_se(vals)
    ratios = []
    for cut in (n_samples // 4, n_samples // 2, n_samples):
        m_c, se_c = mean_and_se(vals[:cut])
        ratios.append(se_c / abs(m_c) if m_c != 0 else float("inf"))
    stable = ratios[2] < ratios[1] < ratios[0] and ratios[2] <= 0.8 * ratios[0]
    return EstimatorResult(
        mean=mean, std_error=se, wall_ms=1e3 * (time.perf_counter() - t0),
        diagnostics={"se_over_mean_by_batch": ratios, "heavy_tail_flag": not stable})
