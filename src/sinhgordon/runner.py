"""Experiment orchestration and persistence.

One experiment per invocation.  Outputs: a manifest (full config, seed,
timings), line-delimited JSON records (one per estimate), and CSV files for
curves.  Identical config and seed reproduce byte-identical records up to the
wall-time fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

# ``run`` holds OpenBLAS at one thread for every experiment, so a CLI process
# never uses the library's worker threads.  Asking for one thread before numpy
# loads keeps that pool from being started at all, which saves start-up CPU.
# An explicit OPENBLAS_NUM_THREADS still wins.  Library modules leave the count
# alone: a process whose OpenBLAS loaded at one thread stays at one.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread count is set)

# Only what parsing, dispatch and writing need loads here.  Each experiment
# imports the estimator modules it calls (correlations, gmc, lz, propagator,
# smc, spectral) in its own body, so a run loads only the code it runs.
from .config import EXPERIMENTS, OPTIONS, RunConfig, _option, load_config, with_overrides
from .errors import ConfigError, SinhGordonError
from .gff import TimeGrid, dump_path, evolve_path, fluctuation_grid, stream_paths, \
    truncated_slice_cov
from .parallel import CHUNK, blas_threads, map_replicas, one_blas_thread, resolve_workers, \
    stateless_children
from .results import _jsonable, params_fingerprint


class OutputWriter:
    """Records, CSVs and the manifest of one run of ``cfg``, under ``out_dir``.

    The directory is made on the first write, so a run that fails before
    writing anything leaves none behind.  Each record is appended to
    ``records.jsonl`` as it is made, so a run that is stopped keeps the
    estimates it has; the manifest is written last, so a directory without
    one holds a run that did not finish.

    Every record, the failure record included, carries one envelope, which
    nothing else writes: ``fingerprint``, the manifest's hash of the
    effective config ``cfg.raw()`` (after ``--seed`` and ``--fast``), and
    that config's ``seed`` and ``n_samples``.
    """

    def __init__(self, out_dir: str | Path, cfg: RunConfig):
        self.dir = Path(out_dir)
        self.cfg = cfg
        self.envelope = {"fingerprint": params_fingerprint(cfg.raw()),
                         "seed": cfg.estimator.seed, "n_samples": cfg.estimator.n_samples}
        self.n_records = 0
        self.stage_seconds = {}   # stage -> perf_counter seconds, for the manifest

    def path(self, name: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        return self.dir / name

    def record(self, rec: dict) -> None:
        if not self.n_records:
            # a manifest left by an earlier run in this directory would vouch
            # for records it never saw
            self.path("manifest.json").unlink(missing_ok=True)
        with open(self.path("records.jsonl"), "a" if self.n_records else "w") as fh:
            fh.write(json.dumps(_jsonable({**rec, **self.envelope}), sort_keys=True) + "\n")
        self.n_records += 1

    def csv(self, name: str, header, rows) -> Path:
        path = self.path(name)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        return path

    def flush(self, wall_s: float, workers: int, traceback_text: str | None = None) -> None:
        """Write the manifest, the last file of a run."""
        manifest = {
            "config": self.cfg.raw(),
            "fingerprint": self.envelope["fingerprint"],
            "wall_seconds": round(wall_s, 3),
            "stage_seconds": {k: round(v, 3) for k, v in self.stage_seconds.items()},
            "n_records": self.n_records,
            "workers": workers,
            "cores": _usable_cores(),
            "blas_threads": blas_threads(workers),
            # the string platform.python_version() gives, without importing platform
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "peak_rss_mb": _peak_rss_mb(),
        }
        if traceback_text is not None:
            manifest["traceback"] = traceback_text
        with open(self.path("manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB of 2**20 bytes."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(rss / (2**20 if sys.platform == "darwin" else 2**10), 1)


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity set, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _gmc_spec(cfg: RunConfig, sigma: int = +1):
    from .gmc import circle_spec, fourier_spec
    if cfg.gmc.kind == "fourier":
        return fourier_spec(sigma, cfg.gmc.n)
    return circle_spec(sigma, cfg.gmc.epsilon)


def _quad(cfg: RunConfig):
    from .propagator import default_c_quadrature
    return default_c_quadrature(cfg.params.gamma, cfg.estimator.c_nodes,
                                cfg.estimator.c_window)


def _region(cfg: RunConfig, spec=None):
    """The region of the ``t_min``/``t_max`` options; with a circle ``spec``, its
    averaging circle must fit above t = 0 (the masses sample from t = 0)."""
    from .gmc import Region
    t_min, t_max = cfg.opts["t_min"], cfg.opts["t_max"]
    if t_min < 0:
        raise ConfigError(f"{cfg.experiment} option t_min must be at least 0, got {t_min}")
    if t_max <= 0:
        raise ConfigError(f"{cfg.experiment} option t_max must be greater than 0, got {t_max}")
    if t_min > t_max:
        raise ConfigError(f"{cfg.experiment} option t_min {t_min} exceeds t_max {t_max}")
    if spec is not None and spec.kind == "circle" and t_min - spec.epsilon < -1e-12:
        raise ConfigError(f"{cfg.experiment} option t_min {t_min} is below the circle "
                          f"epsilon {spec.epsilon}: the averaging circle would reach "
                          f"below t = 0")
    return Region(t_min, t_max)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _exp_validate(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    """Covariance panel: sampled field against the mode-truncated kernels.

    Every probe time must be a node of the ``sampler.dt`` grid.  The modes
    are OU processes stepped with their exact transition, so the field at the
    probe rows has the same law at any step: the paths are stepped from probe
    row to probe row only, on the grid whose step is dt times the gcd of the
    probe rows.  Replicas run in chunks of ``parallel.CHUNK`` through
    ``map_replicas``.  Each chunk reduces the field at the probe points to one
    row of sums per probe pair, f1, f2, f1·f2 and (f1·f2)², and the rows are
    added in chunk order, so the records do not depend on the worker count and
    nothing held grows with ``n_samples``.
    """
    n = cfg.estimator.n_samples
    n_modes = cfg.sampler.n_modes
    grid = TimeGrid.spanning(1.0, cfg.sampler.dt)
    probes = [((0.0, 0.0), (0.0, np.pi)), ((0.0, 0.0), (0.5, 0.0)),
              ((0.25, np.pi / 2), (0.75, np.pi / 2)), ((0.0, 0.0), (1.0, np.pi / 2)),
              ((0.5, 0.0), (0.5, np.pi))]
    points = {(grid.index_of(t), th) for pair in probes for t, th in pair}
    stride = math.gcd(*(k for k, _ in points))
    coarse = TimeGrid(stride * grid.dt, grid.n_steps // stride)

    def panel(rng, size):
        field_at = {}
        for k, _, x, y in stream_paths(rng, size, n_modes, coarse):
            for kk, th in points:
                if kk == k * stride:
                    field_at[kk, th] = fluctuation_grid(x, y, np.array([th]))[:, 0]
        sums = []
        for (t1, th1), (t2, th2) in probes:
            f1, f2 = field_at[grid.index_of(t1), th1], field_at[grid.index_of(t2), th2]
            prod = f1 * f2
            sums.append([f1.sum(), f2.sum(), prod.sum(), (prod * prod).sum()])
        return {"sums": np.array([sums])}          # one row per chunk

    rows = map_replicas(panel, cfg.estimator.seed, n, CHUNK, workers)["sums"]
    means = sum(rows) / n                          # the chunks added in chunk order
    worst = 0.0
    for ((t1, th1), (t2, th2)), (m1, m2, m12, m_sq) in zip(probes, means):
        emp = float(m12 - m1 * m2)
        # the population std of f1·f2 over sqrt(n); its variance is at least
        # half of m_sq for Gaussian f1, f2, so the difference cannot cancel
        se = float(np.sqrt(m_sq - m12 * m12) / np.sqrt(n))
        target = float(truncated_slice_cov(n_modes, t1 - t2, th1 - th2))
        pull = abs(emp - target) / max(se, 1e-12)
        worst = max(worst, pull)
        out.record({"experiment": "validate", "probe": [[t1, th1], [t2, th2]],
                    "empirical": emp, "oracle": target, "std_error": se, "pull": pull})
    if worst > 4.0:
        raise SinhGordonError(f"covariance panel failed: worst pull {worst:.2f} > 4")
    out.record({"experiment": "validate", "status": "pass", "worst_pull": worst})


def _exp_sample(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from .gff import sample_circle_field
    # the start and the steps draw from two streams, so the steps are independent of it
    start_seed, step_seed = stateless_children(cfg.estimator.seed, 2)
    init = sample_circle_field(cfg.sampler.n_modes, "stationary", start_seed)
    grid = TimeGrid.spanning(2 * cfg.sampler.window, cfg.sampler.dt)
    path = evolve_path(init, cfg.opts["c"], grid, seed=step_seed)
    with open(out.path("path.bin"), "wb") as fh:
        dump_path(path, fh)
    out.record({"experiment": "sample", "n_modes": path.n_modes,
                "n_steps": grid.n_steps, "file": "path.bin"})


def _exp_gmc_mass(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from . import gmc as gmc_mod
    t0 = time.perf_counter()
    spec = _gmc_spec(cfg, cfg.opts["sigma"])
    region = _region(cfg, spec)
    masses = gmc_mod.sample_region_masses(region, spec, cfg.params, cfg.estimator.n_samples,
                                          cfg.estimator.seed, dt=cfg.sampler.dt,
                                          theta_cells=cfg.gmc.theta_cells, workers=workers)
    from .results import mean_and_se
    mean, se = mean_and_se(masses)
    out.record({"experiment": "gmc-mass", "estimate": mean, "std_error": se,
                "analytic_mean": gmc_mod.expected_mass(region, cfg.params),
                "wall_ms": round(1e3 * (time.perf_counter() - t0), 3)})


def _exp_moments(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from . import gmc as gmc_mod
    p = cfg.opts["p"]
    if p == 0:
        raise ConfigError("moments option p must be nonzero")
    spec = _gmc_spec(cfg, cfg.opts["sigma"])
    res = gmc_mod.moment_estimator(_region(cfg, spec), spec, cfg.params, p,
                                   cfg.estimator.n_samples, cfg.estimator.seed,
                                   dt=cfg.sampler.dt, theta_cells=cfg.gmc.theta_cells,
                                   workers=workers)
    out.record({**res.to_record("moments"), "p": p})


def _exp_scaling_check(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from . import gmc as gmc_mod
    rep = gmc_mod.scaling_check(_region(cfg), cfg.params, cfg.estimator.n_samples,
                                cfg.estimator.seed, dt=cfg.sampler.dt,
                                theta_cells=cfg.gmc.theta_cells,
                                n_modes=cfg.sampler.n_modes, workers=workers)
    out.record({"experiment": "scaling-check", **rep})


def _exp_partition(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    """Z at each half-height of ``T_list``, weighted with the sampler's Fourier
    truncation like every Feynman-Kac weight (``gmc.regularization`` does not
    apply: a circle average over [0, t] would need slices before 0)."""
    from .gmc import fourier_spec
    from .propagator import partition_curve
    t0 = time.perf_counter()
    t_list = [cfg.sampler.window] if cfg.opts["T_list"] is None else cfg.opts["T_list"]
    points = partition_curve(t_list, cfg.params, _quad(cfg), cfg.sampler.dt,
                             fourier_spec(+1, cfg.sampler.n_modes), cfg.estimator.n_samples,
                             cfg.estimator.seed, theta_cells=cfg.gmc.theta_cells,
                             workers=workers)
    for pt in points:
        out.record({"experiment": "partition", "t_half": pt.t_half, "estimate": pt.z,
                    "std_error": pt.z_se, "log_z": pt.log_z, "log_z_se": pt.log_z_se,
                    "boundary_fraction": pt.boundary_fraction,
                    "truncation_warning": pt.truncation_warning,
                    "wall_ms": round(1e3 * (time.perf_counter() - t0), 3)})


def _exp_lambda0(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from .smc import SmcSettings, smc_log_partition
    from .spectral import lambda0_fit, log_z_curve
    t0 = time.perf_counter()
    t_list = cfg.opts["T_list"]
    TimeGrid.of_half_heights(t_list, cfg.sampler.dt)  # an off-grid T is reported first
    if len(t_list) < 3:
        raise ConfigError(f"lambda0 option T_list needs at least 3 entries for the fit, "
                          f"got {t_list!r}")
    table = smc_log_partition(cfg.params, t_list, cfg.sampler.dt, cfg.sampler.n_modes,
                              cfg.gmc.theta_cells,
                              SmcSettings.for_samples(cfg.estimator.n_samples, 12),
                              cfg.estimator.seed, workers=workers, quad=_quad(cfg))
    curve = [{"t_half": t, "log_z": m, "log_z_se": se}
             for t, (m, se) in zip(t_list, log_z_curve(table))]
    # T_list strictly increases (config.OPTIONS), so the smallest T comes first
    skip = 1 if cfg.opts["drop_smallest"] and len(t_list) > 3 else 0
    fit = lambda0_fit(t_list[skip:], table[skip:])
    out.record({"experiment": "lambda0", "estimate": fit.value, "std_error": fit.std_error,
                "fit_window": fit.fit_window, "r_squared": fit.r_squared, "curve": curve,
                "wall_ms": round(1e3 * (time.perf_counter() - t0), 3)})


def _exp_ground_state(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from .spectral import ground_state_profile
    t = max(1.0, cfg.sampler.window) if cfg.opts["T"] is None else cfg.opts["T"]
    bins_c, bins_x = cfg.opts["bins_c"], cfg.opts["bins_x"]
    prof = ground_state_profile(
        t, cfg.params, dt=cfg.sampler.dt, n_modes=cfg.sampler.n_modes,
        theta_cells=cfg.gmc.theta_cells, quad=_quad(cfg), bins=(bins_c, bins_x),
        n_samples=cfg.estimator.n_samples, seed=cfg.estimator.seed, workers=workers)
    out.csv("ground_state_profile.csv",
            ["c_center", "x1_center", "value", "std_error", "count"],
            list(prof.rows()))
    out.record({"experiment": "ground-state", "T": t, "bins": [bins_c, bins_x],
                "file": "ground_state_profile.csv"})


def _exp_vertex(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from . import correlations as corr
    from .gmc import fourier_spec
    alpha, method, n_list = cfg.opts["alpha"], cfg.opts["method"], cfg.opts["n_list"]
    n_modes = cfg.sampler.n_modes   # after the --fast cap, so checked here, not at parse
    if n_list is not None and (len(n_list) < 2 or n_list[-1] > n_modes):
        raise ConfigError(f"vertex n_list needs at least two entries, none above "
                          f"{n_modes} (sampler.n_modes), got {n_list!r}")
    if n_list is not None and method != "direct":
        raise ConfigError(f"vertex n_list refines the direct estimator only, got method {method!r}")
    ins = corr.make_insertions([(alpha, cfg.opts["t"], cfg.opts["theta"])], cfg.params)
    common = dict(dt=cfg.sampler.dt, n_modes=cfg.sampler.n_modes,
                  theta_cells=cfg.gmc.theta_cells, quad=_quad(cfg),
                  n_samples=cfg.estimator.n_samples, seed=cfg.estimator.seed,
                  workers=workers)
    if n_list:
        # refinement sequence: one estimate per vertex truncation, all read from
        # one path set and reported with a Richardson flag instead of a single
        # number for the limit
        res = corr.vertex_plain(ins, [("direct", fourier_spec(+1, nv)) for nv in n_list],
                                cfg.sampler.window, cfg.params, **common)
        out.record({"experiment": "vertex", "alpha": alpha, "method": "refinement",
                    **corr.refinement_report(n_list, [(r.mean, r.std_error) for r in res])})
        return
    estimators = []
    if method in ("direct", "both"):
        # the direct insertion is cut at gmc.regularization.n of the sampled modes
        if cfg.gmc.kind == "fourier" and cfg.gmc.n > n_modes:
            raise ConfigError(f"vertex gmc.regularization.n {cfg.gmc.n} exceeds "
                              f"{n_modes} (sampler.n_modes)")
        estimators.append(("direct", _gmc_spec(cfg)))
    if method in ("girsanov", "both"):
        estimators.append(("girsanov", None))
    # one path pass serves every estimator (common random numbers)
    results = corr.vertex_plain(ins, estimators, cfg.sampler.window, cfg.params, **common)
    for (kind, _), res in zip(estimators, results):
        out.record({**res.to_record("vertex"), "method": kind, "alpha": alpha})


def _exp_two_point(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from .correlations import two_point_covariance
    t0 = time.perf_counter()
    a1, a2, th1, th2 = (cfg.opts[k] for k in ("alpha1", "alpha2", "theta1", "theta2"))
    a2 = a1 if a2 is None else a2
    th2 = th1 if th2 is None else th2
    rows = two_point_covariance((a1, th1), (a2, th2), cfg.opts["separations"],
                                cfg.sampler.window, cfg.params, dt=cfg.sampler.dt,
                                n_modes=cfg.sampler.n_modes,
                                theta_cells=cfg.gmc.theta_cells,
                                n_samples=cfg.estimator.n_samples,
                                seed=cfg.estimator.seed, workers=workers, quad=_quad(cfg))
    out.csv("two_point.csv", ["separation", "covariance", "std_error"],
            [(r["separation"], r["covariance"], r["std_error"]) for r in rows])
    wall = round(1e3 * (time.perf_counter() - t0), 3)
    for r in rows:
        out.record({"experiment": "two-point", **r, "alpha1": a1, "alpha2": a2,
                    "wall_ms": wall})


# The columns of a gap-fit CSV and the gap-fit options they stand for.
_CURVE_COLUMNS = {"separation": "separations", "covariance": "covariances",
                  "std_error": "std_errors"}


def _read_curve(path: str) -> list[list[float]]:
    """The columns of a gap-fit CSV, each checked as its option in ``OPTIONS``."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        curve = []
        for col, key in _CURVE_COLUMNS.items():
            kind, _, *bound = OPTIONS["gap-fit"][key]
            curve.append(_option([float(row[col]) for row in rows], kind, f"column {col}",
                                 *bound))
        return curve
    except KeyError as exc:
        raise ConfigError(f"gap-fit csv {path} has no column {exc}") from exc
    except (OSError, csv.Error, TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"cannot read gap-fit csv {path}: {exc}") from exc


def _exp_gap_fit(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from .spectral import spectral_gap_fit
    if cfg.opts["csv"]:
        seps, covs, ses = _read_curve(cfg.opts["csv"])
    else:
        seps, covs, ses = (cfg.opts[k] for k in ("separations", "covariances", "std_errors"))
    if not (seps and covs and ses):
        raise ConfigError("gap-fit needs separations/covariances/std_errors or csv")
    if not len(seps) == len(covs) == len(ses):
        raise ConfigError(f"gap-fit separations, covariances and std_errors differ in "
                          f"length: {len(seps)}, {len(covs)}, {len(ses)}")
    fit = spectral_gap_fit(seps, list(zip(covs, ses)))
    out.record({"experiment": "gap-fit", "estimate": fit.value,
                "std_error": fit.std_error, "r_squared": fit.r_squared,
                "fit_window": fit.fit_window})


def _exp_lz(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from .lz import lz_one_point
    alpha = cfg.opts["alpha"]
    res = lz_one_point(cfg.params, alpha, tol=cfg.opts["tol"])
    out.record({"experiment": "lz", "alpha": alpha, "value": res.value,
                "error_bound": res.error_bound, "diagnostics": res.diagnostics})


def _exp_mc_vs_lz(cfg: RunConfig, out: OutputWriter, workers: int) -> None:
    from .lz import mc_vs_lz_report
    alpha, r_values, estimates = (cfg.opts[k] for k in ("alpha", "R_values", "estimates"))
    if estimates is not None:
        if len(estimates) != len(r_values) or any(len(e) != 2 for e in estimates):
            raise ConfigError(f"mc-vs-lz estimates must be one [value, std_error] pair "
                              f"per R value {r_values}, got {estimates!r}")
    else:
        from .correlations import rescaled_one_point
        # R index i draws from the i-th child of the seed, so no two R values
        # share a stream, within a run or across runs at nearby seeds
        estimates = [
            [float(v) for v in rescaled_one_point(
                alpha, r, cfg.params, t_half=cfg.sampler.window, dt=cfg.sampler.dt,
                n_modes=cfg.sampler.n_modes, theta_cells=cfg.gmc.theta_cells,
                n_samples=cfg.estimator.n_samples, seed=child,
                workers=workers, quad=_quad(cfg))]
            for r, child in zip(r_values, stateless_children(cfg.estimator.seed,
                                                             len(r_values)))]
    report = mc_vs_lz_report(alpha, r_values, estimates, cfg.params)
    out.record({"experiment": "mc-vs-lz", **report})


_DISPATCH = {
    "validate": _exp_validate,
    "sample": _exp_sample,
    "gmc-mass": _exp_gmc_mass,
    "moments": _exp_moments,
    "scaling-check": _exp_scaling_check,
    "partition": _exp_partition,
    "lambda0": _exp_lambda0,
    "ground-state": _exp_ground_state,
    "vertex": _exp_vertex,
    "two-point": _exp_two_point,
    "gap-fit": _exp_gap_fit,
    "lz": _exp_lz,
    "mc-vs-lz": _exp_mc_vs_lz,
}
assert set(_DISPATCH) == set(EXPERIMENTS)


# The faults of the program and of numpy: Python's built-in error families.  A
# caller's own exception raised through a wrapped ``_DISPATCH`` entry is not a
# fault of the run and passes through (perfbench stops its setup probes at
# dispatch that way).
_FAULTS = (ArithmeticError, AssertionError, AttributeError, EOFError, ImportError,
           LookupError, MemoryError, NameError, OSError, RuntimeError, TypeError,
           ValueError)


def run(config_path: str, seed: int | None = None, workers: int | None = None,
        fast: bool = False, out_dir: str = "runs") -> int:
    """Execute one experiment; returns the process exit code."""
    t0 = time.perf_counter()
    try:
        workers = resolve_workers(workers)
        cfg = with_overrides(load_config(config_path), seed=seed, fast=fast)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = OutputWriter(Path(out_dir) / cfg.experiment, cfg)
    out.stage_seconds["config"] = time.perf_counter() - t0
    # One BLAS thread for the whole run at every worker count: on the serial
    # path a second thread costs more CPU than it saves on the small per-slice
    # matmuls, and the pool pins it anyway.  The manifest is written inside,
    # so its blas_threads is the count the experiment ran at.
    with one_blas_thread():
        return _execute(cfg, out, workers)


def _execute(cfg: RunConfig, out: OutputWriter, workers: int) -> int:
    t0 = time.perf_counter()
    error = tb = None
    try:
        _DISPATCH[cfg.experiment](cfg, out, workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SinhGordonError as exc:
        error = f"{type(exc).__name__}: {exc}"
    except _FAULTS as exc:
        error = f"{type(exc).__name__}: {exc}"
        import traceback
        tb = "".join(traceback.format_exception(exc))
    out.stage_seconds["experiment"] = time.perf_counter() - t0
    if error is None:
        out.flush(time.perf_counter() - t0, workers)
        print(f"{cfg.experiment}: ok ({out.n_records} records in {out.dir})")
        return 0
    print(f"runtime failure: {error}", file=sys.stderr)
    out.record({"experiment": cfg.experiment, "status": "failed", "error": error})
    out.flush(time.perf_counter() - t0, workers, tb)
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="sinhgordon",
                                 description="Cylinder Sinh-Gordon Monte Carlo toolkit")
    ap.add_argument("--config", required=True, help="path to a JSON run configuration")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    ap.add_argument("--workers", type=int, default=None,
                    help="worker threads, at least 1 (env SINHGORDON_WORKERS also honored)")
    ap.add_argument("--fast", action="store_true",
                    help="CI profile: at most 16 modes and 1000 replicas")
    ap.add_argument("--out-dir", default="runs", help="output directory root")
    args = ap.parse_args(argv)
    return run(args.config, seed=args.seed, workers=args.workers, fast=args.fast,
               out_dir=args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
