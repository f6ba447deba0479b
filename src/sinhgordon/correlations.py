"""Vertex correlations on the finite cylinder.

The finite cylinder [-T, T] x circle maps to process time [0, 2T]; all
estimators below are ratio estimators in which numerator and normalization
share paths and zero-mode quadrature nodes (common random numbers), with
delete-one jackknife errors.  Vertex insertions are renormalized
exponentials of the field; they can be estimated either directly or through
an exact change of measure that trades the exponential for a deterministic
field shift plus an insertion-weighted chaos mass.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GridSpanMismatch,
    InadmissibleAlpha,
    InadmissibleInsertions,
    WindowOutsideCylinder,
)
from .gff import TimeGrid, stream_paths, truncated_slice_cov
from .gmc import GmcSpec, SliceMass, Trapezoid, VertexReads, fourier_spec
from .params import ModelParams, validate_params
from .parallel import CHUNK, map_replicas, stateless_children
from .propagator import CQuadrature, default_c_quadrature, fk_weights
from .results import EstimatorResult, jackknife_func, jackknife_ratio


# ---------------------------------------------------------------------------
# Insertions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InsertionSet:
    """Vertex insertions (alpha, t, theta) in window coordinates.

    ``admissible`` is derived: every |alpha| must stay strictly below the
    bound Q of the model the set was built against.
    """

    entries: tuple[tuple[float, float, float], ...]
    q_bound: float

    def __post_init__(self):
        seen = set()
        for _, t, th in self.entries:
            key = (round(t, 12), round(th % (2.0 * np.pi), 12))
            if key in seen:
                raise ValueError(f"repeated insertion point (t={t}, theta={th})")
            seen.add(key)

    @property
    def admissible(self) -> bool:
        return all(abs(a) < self.q_bound for a, _, _ in self.entries)


def make_insertions(entries, params: ModelParams) -> InsertionSet:
    return InsertionSet(tuple((float(a), float(t), float(th)) for a, t, th in entries),
                        q_bound=params.q_const)


# ---------------------------------------------------------------------------
# Change-of-measure data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftData:
    """Deterministic shift induced by removing vertex exponentials.

    ``insertions`` hold process-time coordinates (alpha, s_i, theta_i).  The
    covariance kernel is the sum over the ``kernel`` modes actually sampled,
    which makes the change of measure exact in law for the simulated process.
    """

    insertions: tuple[tuple[float, float, float], ...]
    kernel: int

    def bulk(self, s, thetas) -> np.ndarray:
        """Mode-field shift on slices, shape (len(s), len(thetas)); decays as s grows."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        total = np.zeros((s.size, thetas.size))
        for a, s_i, th_i in self.insertions:
            total += a * truncated_slice_cov(self.kernel, np.abs(s[:, None] - s_i),
                                             thetas[None, :] - th_i)
        return total

    def drift(self, s) -> np.ndarray:
        """Zero-mode drift sum_i alpha_i min(s, s_i)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        total = np.zeros_like(s)
        for a, s_i, _ in self.insertions:
            total += a * np.minimum(s, s_i)
        return total

    def total_grid(self, s, thetas) -> np.ndarray:
        """Full field shift drift(s) + bulk(s, theta) on a (time, theta) grid."""
        return self.drift(s)[:, None] + self.bulk(s, thetas)

    @cached_property
    def _patterns(self):
        """Each insertion's (N,) mode patterns alpha_i (cos n theta_i, sin n theta_i) / sqrt(n)."""
        n = np.arange(1, self.kernel + 1, dtype=float)
        return n, [(s_i, a * np.cos(n * th_i) / np.sqrt(n), a * np.sin(n * th_i) / np.sqrt(n))
                   for a, s_i, th_i in self.insertions]

    def row(self, s: float, basis) -> np.ndarray:
        """drift(s) + bulk(s, theta) at one s from the mode offsets sum_i
        e^{-n|s - s_i|} pattern_i (:attr:`_patterns`) on a ``theta_basis``."""
        n, patterns = self._patterns
        dx, dy = np.zeros(self.kernel), np.zeros(self.kernel)
        for s_i, px, py in patterns:
            decay = np.exp(-n * abs(s - s_i))
            dx += decay * px
            dy += decay * py
        drift = sum(a * min(s, s_i) for a, s_i, _ in self.insertions)
        return drift + dx @ basis[0][:self.kernel] + dy @ basis[1][:self.kernel]

    def scalar_log(self) -> float:
        """Log of the constant produced by the change of measure.

        (1/2) sum_i alpha_i^2 s_i plus the pairwise interaction
        sum_{i<j} alpha_i alpha_j [min(s_i,s_j) + Cov(phi_{s_i}(th_i), phi_{s_j}(th_j))]
        (empty for a single insertion).
        """
        total = 0.5 * sum(a * a * s_i for a, s_i, _ in self.insertions)
        ins = self.insertions
        for i in range(len(ins)):
            for j in range(i + 1, len(ins)):
                a_i, s_i, th_i = ins[i]
                a_j, s_j, th_j = ins[j]
                cov = float(truncated_slice_cov(self.kernel, abs(s_i - s_j), th_i - th_j))
                total += a_i * a_j * (min(s_i, s_j) + cov)
        return total


# ---------------------------------------------------------------------------
# Shared finite-cylinder engine
# ---------------------------------------------------------------------------

def _cylinder_engine(params: ModelParams, t_half: float, dt: float, n_modes: int,
                     theta_cells: int, quad: CQuadrature, n_samples: int, seed,
                     tasks, workers: int = 1, mirror: bool = False):
    """Per-path numerator/denominator columns for the finite cylinder.

    Each task is a dict with "kind" in {"vertex", "girsanov"}; its zero-mode
    factor comes from its insertions.  Returns {"den": (R,), "num": list of
    (R,)}.  ``mirror=True`` negates the field and the zero-mode axis (used by
    symmetry tests; it leaves the denominator invariant and maps vertex
    weights alpha -> -alpha).

    A chunk integrates its masses in one :class:`gmc.Trapezoid`, and a girsanov
    task its shifted masses in its own, with row k's shift built as the stream
    reaches it (:meth:`ShiftData.row`).  The vertex tasks copy no slice: one
    :class:`gmc.VertexReads` adds each task's log factor, with zero mode B,
    into a (tasks, R) array as the rows pass; the c-integral stays in the
    task's zero-mode factor.  So a chunk holds the stepper's slice and noise
    block, the kernel's two (R, T) buffers and the (R, C) weights, whatever
    the number of steps.
    """
    gamma, mu = params.gamma, params.mu_scaled
    grid = TimeGrid.spanning(2.0 * t_half, dt)
    cs, cw = quad.nodes()
    if mirror:
        cs = -cs
    cfac = []  # each task's zero-mode factor exp(total alpha * c) at the c nodes
    for task in tasks:
        if task["kind"] not in ("vertex", "girsanov"):
            raise ValueError(f"unknown task kind {task['kind']!r}")
        if task["kind"] == "girsanov" and mirror:
            raise ValueError("the girsanov shift is not defined for mirrored paths")
        entries = task["shift"].insertions if task["kind"] == "girsanov" else task["entries"]
        cfac.append(cw * np.exp(sum(a for a, _, _ in entries) * cs))
    vertex = [i for i, task in enumerate(tasks) if task["kind"] == "vertex"]
    reads = VertexReads([tasks[i]["entries"] for i in vertex], [tasks[i]["reg"] for i in vertex],
                        grid, n_modes)

    def run(rng, size):
        kernel = SliceMass(gamma, fourier_spec(+1, n_modes), theta_cells)
        mass = Trapezoid(grid.dt)
        shifted = {i: Trapezoid(grid.dt) for i, task in enumerate(tasks)
                   if task["kind"] == "girsanov"}
        log_v = np.zeros((len(vertex), size))
        for k, b, x, y in stream_paths(rng, size, n_modes, grid):
            sp, sm = kernel(x, y, b)
            for i, acc in shifted.items():
                s = tasks[i]["shift"].row(k * grid.dt, kernel.basis)
                acc.add(*kernel.pair(b, (np.exp(gamma * s), np.exp(-gamma * s))))
            if mirror:  # the negated field swaps the two masses exactly
                b, x, y, sp, sm = -b, -x, -y, sm, sp
            mass.add(sp, sm)
            reads.add(k, b, x, y, log_v)
        w = fk_weights(*mass.integral(), cs, mu, gamma)
        out = {"den": w @ cw}   # and one numerator column per task, keyed by its index
        for g, i in enumerate(vertex):
            out[i] = np.exp(log_v[g]) * (w @ cfac[i])
        for i, acc in shifted.items():
            wg = fk_weights(*acc.integral(), cs, mu, gamma)
            out[i] = math.exp(tasks[i]["shift"].scalar_log()) * (wg @ cfac[i])
        return out

    cols = map_replicas(run, seed, n_samples, CHUNK, workers)
    return {"den": cols["den"], "num": [cols[i] for i in range(len(tasks))]}


def _entries_to_process(entries, t_half: float, grid_dt: float):
    """Window -> process coordinates; every insertion time must be a grid node."""
    grid = TimeGrid.spanning(2.0 * t_half, grid_dt)
    out = []
    for a, t, th in entries:
        if not (-t_half < t < t_half):
            raise WindowOutsideCylinder(f"insertion time {t} outside (-{t_half}, {t_half})")
        try:
            k = grid.index_of(t + t_half)
        except GridSpanMismatch:
            raise GridSpanMismatch(f"insertion time {t} is not on the grid (dt={grid_dt}, "
                                   f"window {t_half})") from None
        out.append((a, k * grid_dt, th))
    return tuple(out)


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------

def _check_admissible(insertions: InsertionSet) -> None:
    if not insertions.admissible:
        raise InadmissibleInsertions(
            f"weights must satisfy |alpha| < {insertions.q_bound}")


def vertex_plain(insertions: InsertionSet, estimators, t_half: float, params: ModelParams,
                 *, dt: float = 1.0 / 32.0, n_modes: int = 64, theta_cells: int = 128,
                 quad: CQuadrature | None = None, n_samples: int = 8192, seed=0,
                 workers: int = 1, mirror: bool = False) -> list[EstimatorResult]:
    """Several plain-backend estimators of one vertex correlation from one path pass.

    ``estimators`` is a sequence of ``("direct", GmcSpec | None)`` and
    ``("girsanov", None)`` entries; a direct entry without a spec uses the
    sampler's Fourier truncation.  Every entry reads the same sampled paths,
    zero-mode nodes and Feynman-Kac denominator, so each result equals the one
    a separate :func:`vertex_direct` or :func:`vertex_girsanov` call returns at
    the same seed; ``wall_ms`` of every result is the time of the shared pass.
    """
    if quad is None:
        quad = default_c_quadrature(params.gamma)
    entries = _entries_to_process(insertions.entries, t_half, dt)
    tasks, diagnostics = [], []
    for kind, reg in estimators:
        if kind == "direct":
            tasks.append({"kind": "vertex", "entries": entries,
                          "reg": fourier_spec(+1, n_modes) if reg is None else reg})
            diagnostics.append({"admissible": insertions.admissible})
        elif kind == "girsanov":
            if reg is not None:
                raise ValueError("a girsanov entry takes no regularization")
            _check_admissible(insertions)
            shift = ShiftData(entries, kernel=n_modes)
            tasks.append({"kind": "girsanov", "shift": shift})
            diagnostics.append({"scalar_log": shift.scalar_log()})
        else:
            raise ValueError(f"unknown vertex estimator {kind!r}")
    t0 = time.perf_counter()
    res = _cylinder_engine(params, t_half, dt, n_modes, theta_cells, quad, n_samples, seed,
                           tasks, workers=workers, mirror=mirror)
    stats = [jackknife_ratio(num, res["den"]) for num in res["num"]]
    wall_ms = 1e3 * (time.perf_counter() - t0)
    return [EstimatorResult(mean=est, std_error=se, wall_ms=wall_ms, diagnostics=diag)
            for (est, se), diag in zip(stats, diagnostics)]


def vertex_direct(insertions: InsertionSet, regularization: GmcSpec | None,
                  t_half: float, params: ModelParams, *, dt: float = 1.0 / 32.0,
                  n_modes: int = 64, theta_cells: int = 128,
                  quad: CQuadrature | None = None, n_samples: int = 8192, seed=0,
                  workers: int = 1, mirror: bool = False) -> EstimatorResult:
    """Renormalized-exponential estimator of a vertex correlation.

    Works for any insertion set; non-admissible weights give estimates that
    sink toward zero as the regularization is refined.  The free-path
    reweighting ratio estimator (fine for short cylinders), a one-entry
    :func:`vertex_plain` that integrates the zero mode with ``quad``.
    """
    return vertex_plain(insertions, [("direct", regularization)], t_half, params, dt=dt,
                        n_modes=n_modes, theta_cells=theta_cells, quad=quad,
                        n_samples=n_samples, seed=seed, workers=workers, mirror=mirror)[0]


def vertex_girsanov(insertions: InsertionSet, t_half: float, params: ModelParams, *,
                    dt: float = 1.0 / 32.0, n_modes: int = 64, theta_cells: int = 128,
                    quad: CQuadrature | None = None, n_samples: int = 8192, seed=0,
                    workers: int = 1) -> EstimatorResult:
    """Shift-based estimator of the same vertex correlation.

    The vertex exponentials are removed exactly: the field acquires the
    deterministic shift of :class:`ShiftData` (with the mode-truncated kernel
    of the simulated process, so the identity is exact in law at any
    truncation), the chaos masses become insertion-weighted, and a scalar
    factor carries the variance terms.  A one-entry :func:`vertex_plain`.
    """
    return vertex_plain(insertions, [("girsanov", None)], t_half, params, dt=dt,
                        n_modes=n_modes, theta_cells=theta_cells, quad=quad,
                        n_samples=n_samples, seed=seed, workers=workers)[0]


def two_point_covariance(ins1, ins2, separations, t_half: float, params: ModelParams, *,
                         dt: float = 1.0 / 16.0, n_modes: int = 64, theta_cells: int = 128,
                         n_samples: int = 16384, seed=0, workers: int = 1,
                         smc_runs: int = 16, quad: CQuadrature | None = None) -> list[dict]:
    """Truncated two-point function of two vertices across separations.

    ``ins1`` and ``ins2`` are (alpha, theta); the insertions sit at window
    times -sep/2 and +sep/2.  A one-pair :func:`two_point_panel`: all
    separations and the three ratio components share one particle
    population, so the connected part benefits from cancellation; errors are
    delete-one jackknife over runs.
    """
    return two_point_panel([(ins1, ins2)], separations, t_half, params, dt=dt,
                           n_modes=n_modes, theta_cells=theta_cells, n_samples=n_samples,
                           seed=seed, smc_runs=smc_runs, workers=workers, quad=quad)[0]


def _two_point_rows(separations, num, den) -> list[dict]:
    """Covariance rows from per-replica columns: ``num`` holds the (pair,
    first, second) columns of each separation in turn, ``den`` the normalizer."""
    rows = []
    for j, s in enumerate(separations):
        u, v1, v2 = num[3 * j:3 * j + 3]
        cov, cov_se = jackknife_func(
            [u, v1, v2, den], lambda su, s1, s2, sd: su / sd - (s1 / sd) * (s2 / sd))
        prod, _ = jackknife_func([u, den], lambda su, sd: su / sd)
        rows.append({"separation": s, "covariance": cov, "std_error": cov_se,
                     "product_moment": prod})
    return rows


def _register_columns(params: ModelParams, t_half: float, groups, *, dt: float,
                      n_modes: int, theta_cells: int, n_samples: int, n_runs: int, seed,
                      workers: int, quad: CQuadrature | None = None):
    """Per-run columns of one particle flow over [-t_half, t_half] that carries
    the register ``groups`` (insertion tuples in process coordinates).

    Returns ([Z_r m_{g,r} for each group g], Z_r), every column over the
    largest Z_r; sum_r Z_r m_{g,r} / sum_r Z_r estimates the group's
    expectation.  ``n_runs`` runs share ``n_samples`` particles, started on
    the zero-mode window of ``quad`` (:func:`smc.smc_flow`).
    """
    from .smc import SmcSettings, smc_flow
    flow = smc_flow(params, [t_half], dt, n_modes, theta_cells,
                    SmcSettings.for_samples(n_samples, n_runs), seed,
                    register_groups=groups, workers=workers, quad=quad)
    ref = flow["log_z"][:, -1]
    scale = np.exp(ref - ref.max())
    means = flow["group_means"]
    return [scale * means[:, g] for g in range(means.shape[1])], scale


def _checked_separations(separations, t_half: float) -> list[float]:
    separations = [float(s) for s in separations]
    for s in separations:
        if s <= 0 or s >= 2.0 * t_half:
            raise WindowOutsideCylinder(f"separation {s} does not fit in the window")
    return separations


def _pair_groups(ins1, ins2, s: float, t_half: float, dt: float):
    """Register groups (pair, first, second) for two insertions at window times -s/2, +s/2."""
    (a1, th1), (a2, th2) = ins1, ins2
    try:
        pair = _entries_to_process(((a1, -s / 2.0, th1), (a2, +s / 2.0, th2)), t_half, dt)
    except GridSpanMismatch as exc:
        raise GridSpanMismatch(f"separation {s}: {exc}") from None
    return pair, pair[:1], pair[1:]


def refinement_report(resolutions, estimates) -> dict:
    """Resolution sequence with a Richardson-style extrapolation flag.

    Refined-limit quantities are reported as the whole sequence; the
    extrapolated value assumes a 1/N leading correction and the flag says
    whether the sequence looks converged (last step within combined errors),
    never presenting a single number as the limit.
    """
    resolutions = [float(n) for n in resolutions]
    vals = [float(v) for v, _ in estimates]
    ses = [float(s) for _, s in estimates]
    if len(vals) < 2 or not all(a < b for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("need at least two strictly increasing resolutions")
    rows = [{"resolution": n, "estimate": v, "std_error": s}
            for n, v, s in zip(resolutions, vals, ses)]
    n1, n2 = resolutions[-2:]
    v1, v2 = vals[-2:]
    richardson = v2 + (v2 - v1) / (n2 / n1 - 1.0)
    last_step = abs(v2 - v1)
    converged = last_step <= 3.0 * math.hypot(ses[-1], ses[-2])
    return {"sequence": rows, "richardson_extrapolation": richardson,
            "last_step": last_step, "converged_flag": bool(converged)}


# Common rotations averaged over per insertion pair, where whole cells allow it.
_IMAGE_TURNS = 8


def _image_turns(theta_cells: int) -> np.ndarray:
    """The common rotations 2 pi k / n_img, n_img = gcd(theta_cells, 8), of a two-point pair.

    Each is a whole number of theta cells, which maps the midpoint mass sum and
    the stationary mode law to themselves, so every image has the pair's law.
    """
    n_img = math.gcd(theta_cells, _IMAGE_TURNS)
    return 2.0 * np.pi * np.arange(n_img) / n_img


def two_point_panel(pairs, separations, t_half: float, params: ModelParams, *,
                    dt: float = 1.0 / 32.0, n_modes: int = 48, theta_cells: int = 96,
                    n_samples: int = 65536, seed=0, smc_runs: int = 16,
                    workers: int = 1, quad: CQuadrature | None = None) -> dict:
    """Two-point curves for several insertion pairs from one particle flow.

    ``pairs`` is a list of ((alpha1, theta1), (alpha2, theta2)); sharing the
    population across pairs and separations gives common random numbers
    everywhere, which is what makes rate comparisons between pairs sharp.
    Both insertions of a pair are also turned together by every rotation of
    :func:`_image_turns`, and each run's pair, first and second columns are
    averaged over these images before the jackknife (source averaging: the
    same expectation, with less noise).  The particles start on the
    zero-mode window of ``quad`` (:func:`smc.smc_flow`).  Returns
    {pair_index: [rows...]} with the same row format as
    :func:`two_point_covariance`.
    """
    separations = _checked_separations(separations, t_half)
    turns = _image_turns(theta_cells)
    groups = [g for (a1, th1), (a2, th2) in pairs for s in separations for turn in turns
              for g in _pair_groups((a1, th1 + turn), (a2, th2 + turn), s, t_half, dt)]
    num, den = _register_columns(params, t_half, groups, dt=dt, n_modes=n_modes,
                                 theta_cells=theta_cells, n_samples=n_samples,
                                 n_runs=smc_runs, seed=seed, workers=workers, quad=quad)
    # (pair, separation, image, component, run) -> image averages, one row per
    # (separation, component) of each pair
    cols = np.reshape(num, (len(pairs), len(separations), turns.size, 3, -1)).mean(axis=2)
    return {pi: _two_point_rows(separations, cols[pi].reshape(3 * len(separations), -1), den)
            for pi in range(len(pairs))}


def _reduced_one_point(alpha: float, radius: float, params: ModelParams, seed, *,
                       t_half: float, dt: float, **flow):
    """(mean, s.e.) of <V_alpha(0)> in the unit-radius reduction of the radius-R
    model on [-t_half/R, t_half/R]: one particle flow of 12 runs from ``seed``."""
    base = validate_params(params.gamma, params.mu, radius)
    if abs(alpha) >= base.q_const:
        raise InadmissibleAlpha(f"|alpha| must be < {base.q_const}")
    entries = _entries_to_process(((float(alpha), 0.0, 0.0),), t_half / radius, dt)
    num, den = _register_columns(base, t_half / radius, [entries],
                                 dt=dt, n_runs=12, seed=seed, **flow)
    return jackknife_ratio(num[0], den)


def rescaled_one_point(alpha: float, radius: float, params: ModelParams, *, seed,
                       **flow) -> tuple[float, float]:
    """(mean, s.e.) of the radius-R one-point function: the reduced estimate from
    the first child of ``seed`` times R^{alpha^2/2}; ``flow`` as :func:`scaling_one_point`."""
    factor = radius ** (alpha * alpha / 2.0)
    mean, se = _reduced_one_point(alpha, radius, params, stateless_children(seed, 2)[0], **flow)
    return factor * mean, factor * se


def scaling_one_point(alpha: float, radius: float, params: ModelParams, *,
                      t_half: float = 1.5, dt: float = 1.0 / 32.0, n_modes: int = 64,
                      theta_cells: int = 128, n_samples: int = 8192, seed=0,
                      workers: int = 1, quad: CQuadrature | None = None) -> dict:
    """One-point function on the radius-R cylinder against the reduced model.

    The left side is :func:`rescaled_one_point`, the right side the reduced
    estimate from the second child of ``seed``.  At R = 1 both sides are the
    same computation, run once, and the ratio is exactly 1.
    """
    flow = dict(t_half=t_half, dt=dt, n_modes=n_modes, theta_cells=theta_cells,
                n_samples=n_samples, workers=workers, quad=quad)
    lhs_mean, lhs_se = rescaled_one_point(alpha, radius, params, seed=seed, **flow)
    rhs_mean, rhs_se = (lhs_mean, lhs_se) if radius == 1.0 else _reduced_one_point(
        alpha, radius, params, stateless_children(seed, 2)[1], **flow)
    ratio = lhs_mean / rhs_mean
    ratio_se = 0.0 if radius == 1.0 else abs(ratio) * math.sqrt(
        (lhs_se / lhs_mean) ** 2 + (rhs_se / rhs_mean) ** 2)
    target = radius ** (alpha * alpha / 2.0)
    return {
        "alpha": alpha, "radius": radius, "target_ratio": target,
        "lhs": lhs_mean, "lhs_se": lhs_se, "rhs": rhs_mean, "rhs_se": rhs_se,
        "ratio": ratio, "ratio_se": ratio_se,
        "pass": abs(ratio - target) <= 3.0 * ratio_se if ratio_se > 0 else ratio == target,
    }
