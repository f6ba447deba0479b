"""Benchmark of the sinhgordon CLI on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It writes the workload's config with the
seed into ``.perfbench_work/``, and the program receives only that config.
Each workload process (perfbench/child.py) runs ``sinhgordon.runner.run``
from ``src/`` in a fresh interpreter, exactly as ``python -m sinhgordon``
does, so interpreter start and imports are paid on every run.

With ``--trace 0`` it prints the end-to-end metrics, each the median over the
runs it made:

* ``wall_s``: config load to flushed records, inside the workload process;
* ``setup_s``: process launch to experiment dispatch (interpreter start,
  ``import sinhgordon``, config parsing), also taken from extra launches that
  stop at dispatch;
* ``cpu_s``: user plus system CPU seconds of the workload process;
* ``peak_rss_mb``: its peak resident set size.

With ``--trace 1`` it makes the same untraced runs, then a traced run at the
workload's worker count and one at a single worker (perfbench/spans.py wraps
the package's functions from outside), then one plain ``python -m
sinhgordon`` run, and prints the per-layer metrics of perfbench/layers.py.

Every run's records are checked: the workload's own output check, and equality
with the first run's records up to the wall-time field ``wall_ms``, which
covers traced runs, the single-worker run and the plain CLI run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance and each metric's spread.  Workload choices and the per-layer
predictions are recorded in perfbench/predictions.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

SETUP_PROBES = 5          # extra launches per run that stop at dispatch
MIN_RUNS = 3              # a median that one slow run cannot move
RUN_LIMIT_S = 170.0       # every run ends well inside three minutes
LAMBDA0_PINNED = (9.75, 0.02)


def _vertex_config(seed: int) -> dict:
    # 4096 samples (about 1.5 s of wall) rather than 16384, so that one run of
    # the benchmark takes the median over ten or more workload processes
    return {
        "params": {"gamma": 1.0, "mu": 1.0, "radius": 1.0},
        "sampler": {"n_modes": 64, "dt": 1.0 / 32.0, "window": 0.5},
        "gmc": {"regularization": {"kind": "fourier", "n": 64}, "theta_cells": 128},
        "estimator": {"n_samples": 4096, "seed": seed, "c_window": 8.0, "c_nodes": 65},
        "experiment": {"name": "vertex", "options": {"alpha": 0.5, "t": 0.0, "theta": 0.0,
                                                      "method": "both"}},
    }


def _shipped(name: str, n_samples: int | None = None):
    def make(seed: int) -> dict:
        cfg = json.loads((ROOT / "configs" / name).read_text())
        cfg["estimator"]["seed"] = seed
        if n_samples is not None:
            cfg["estimator"]["n_samples"] = n_samples
        return cfg
    return make


def _check_vertex(records):
    by_method = {r.get("method"): r for r in records}
    d, g = by_method.get("direct"), by_method.get("girsanov")
    if d is None or g is None:
        return "missing direct or girsanov record"
    for r in (d, g):
        if not (math.isfinite(r["estimate"]) and r["estimate"] > 0
                and math.isfinite(r["std_error"])):
            return f"{r['method']} estimate not finite and positive"
    gap = abs(d["estimate"] - g["estimate"])
    if gap > 4.0 * math.hypot(d["std_error"], g["std_error"]):
        return f"direct and girsanov differ by {gap:.4g}, over 4 combined s.e."
    return None


def _check_lambda0(records):
    rec = records[-1]
    value, pinned_se = LAMBDA0_PINNED
    if not math.isfinite(rec.get("estimate", math.nan)):
        return "lambda0 not finite"
    if abs(rec["estimate"] - value) > 4.0 * math.hypot(rec["std_error"], pinned_se):
        return f"lambda0 {rec['estimate']:.4f} +- {rec['std_error']:.4f} is not 9.75(2)"
    if not rec["r_squared"] > 0.99:
        return f"lambda0 fit R^2 {rec['r_squared']:.4f} <= 0.99"
    return None


def _check_validate(records):
    rec = records[-1]
    if rec.get("status") != "pass" or not rec.get("worst_pull", math.inf) <= 4.0:
        return f"covariance panel did not pass: {rec}"
    return None


@dataclass(frozen=True)
class Workload:
    make_config: object
    workers: int
    check: object
    headline: object      # records -> (se / target) of the headline estimate, or None


WORKLOADS = {
    "vertex-plain": Workload(
        _vertex_config, 2, _check_vertex,
        lambda recs: next(r["std_error"] / r["estimate"] for r in recs
                          if r.get("method") == "direct") / 0.01),
    # 12 runs x 256 particles (the program's floor) instead of the shipped
    # 2048, so that one run of the benchmark takes the median over about ten
    # workload processes
    "lambda0-smc": Workload(_shipped("lambda0.json", n_samples=3072), 2, _check_lambda0,
                            lambda recs: recs[-1]["std_error"] / 0.01),
    "validate-panel": Workload(_shipped("validate.json"), 1, _check_validate,
                               lambda recs: None),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _records(out_dir: Path):
    """Records of one run with the wall-time field removed, in file order."""
    recs = []
    for path in sorted(out_dir.glob("*/records.jsonl")):
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("wall_ms", None)
            recs.append(rec)
    return recs


class Runner:
    def __init__(self, workload: str, seed: int, start: float):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.wl.make_config(seed), indent=2))
        self.deadline = start + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                                   else []))
        self.count = 0
        self.failures = []
        self.reference = None

    def _spawn(self, argv, rep_dir: Path):
        """Run one process to completion; returns (exit code, rusage or None)."""
        with open(rep_dir / "log.txt", "w") as log:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return None, None
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def launch(self, workers=None, setup_only=False, trace=False, provenance=False,
               plain=False):
        """One workload process; returns its measurements, or None if it failed."""
        self.count += 1
        rep_dir = self.dir / f"run{self.count:03d}"
        rep_dir.mkdir()
        out_dir, timing = rep_dir / "out", rep_dir / "timing.json"
        workers = self.wl.workers if workers is None else workers
        cli = ["--config", str(self.config), "--workers", str(workers),
               "--out-dir", str(out_dir)]
        if plain:
            argv = [sys.executable, "-m", "sinhgordon", *cli]
        else:
            argv = [sys.executable, str(CHILD), *cli, "--timing", str(timing)]
            argv += ["--setup-only"] if setup_only else []
            argv += ["--trace", str(rep_dir / "spans.json")] if trace else []
            argv += ["--provenance"] if provenance else []
        t_launch = time.monotonic()
        rc, usage = self._spawn(argv, rep_dir)
        if rc is None:
            return self.fail(f"run {self.count} killed at the {RUN_LIMIT_S:.0f} s limit")
        if rc != 0:
            tail = (rep_dir / "log.txt").read_text()[-2000:]
            return self.fail(f"run {self.count} exited {rc}: {tail}")
        rep = {"cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "minor_faults": usage.ru_minflt, "invol_ctx_switches": usage.ru_nivcsw}
        if not plain:
            info = json.loads(timing.read_text())
            if Path(info["module"]).resolve().parent != (ROOT / "src" / "sinhgordon").resolve():
                return self.fail(f"sinhgordon was imported from {info['module']}")
            stamps = info["stamps"]
            rep["setup_s"] = stamps["dispatch"] - t_launch
            rep["wall_s"] = stamps["end"] - stamps["start"]
            rep["blas_threads"] = info.get("blas_threads")
        if setup_only:
            return rep
        rep["records"] = _records(out_dir)
        rep["output_bytes"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        if not rep["records"]:
            return self.fail(f"run {self.count} wrote no records")
        problem = self.wl.check(rep["records"])
        if problem:
            return self.fail(f"run {self.count}: {problem}")
        if self.reference is None:
            self.reference = rep["records"]
        elif rep["records"] != self.reference:
            return self.fail(f"run {self.count}: records differ from run 1's")
        if trace:
            rep["spans"] = json.loads((rep_dir / "spans.json").read_text())
        return rep

    def fail(self, message):
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)
        return None


def _provenance(args, workers, blas_threads):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    revision = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        revision = out.stdout.strip() or None
    prov = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "workers": workers,
            "blas_threads": blas_threads, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_revision": revision}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            prov[var] = os.environ[var]
    return prov


def _spread(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def _per_layer(runner, timed, traced, single):
    """Per-layer metrics of the traced run, plus process figures of the timed runs."""
    metrics = layers.layer_metrics(traced["spans"], traced["output_bytes"])
    if layers.count_signature(metrics) != layers.count_signature(
            layers.layer_metrics(single["spans"], single["output_bytes"])):
        runner.fail("computed counts differ between the traced runs at "
                     f"{runner.wl.workers} and 1 workers")
    wall = statistics.median(r["wall_s"] for r in timed)
    cpu = statistics.median(r["cpu_s"] for r in timed)
    ratio = runner.wl.headline(runner.reference)
    metrics.update({
        "proc.cpu_util": (cpu / wall, "ratio"),
        "proc.minor_faults": (statistics.median(r["minor_faults"] for r in timed), "count"),
        "proc.invol_ctx_switches": (statistics.median(r["invol_ctx_switches"]
                                                      for r in timed), "count"),
        "trace.overhead_s": (traced["wall_s"] - wall, "s"),
        "trace.spans": (len(traced["spans"]), "count"),
        "estimator.se_over_target": (ratio or 0.0, "ratio"),
        "estimator.time_to_target_s": (wall * ratio ** 2 if ratio else 0.0, "s"),
    })
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    needed = [ROOT / "src" / "sinhgordon" / "runner.py", ROOT / "configs" / "lambda0.json",
              ROOT / "configs" / "validate.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a sinhgordon checkout, missing {missing}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, start)
    warm = runner.launch(provenance=True)   # a whole checked run that fills caches, not timed
    print(json.dumps({"provenance": _provenance(args, runner.wl.workers,
                                                warm and warm["blas_threads"])}))
    setups = [r["setup_s"] for r in (runner.launch(setup_only=True)
                                     for _ in range(SETUP_PROBES)) if r]
    # a process starts only if one of median length still ends within --seconds
    timed, took = [], []
    t0 = time.monotonic()
    while len(timed) < MIN_RUNS or (
            time.monotonic() - t0 + statistics.median(took) <= args.seconds):
        t_rep = time.monotonic()
        rep = runner.launch()
        if rep is None:
            break
        took.append(time.monotonic() - t_rep)
        timed.append(rep)
    setups += [r["setup_s"] for r in timed]

    summary = {}
    if timed:
        for key in END_TO_END:
            summary[key] = _spread(setups if key == "setup_s" else [r[key] for r in timed])
    if args.trace:
        traced = runner.launch(trace=True) if timed else None
        single = runner.launch(trace=True, workers=1) if traced else None
        plain = runner.launch(plain=True) if single else None
        metrics = _per_layer(runner, timed, traced, single) if plain else {}
    else:
        metrics = {k: (summary[k]["median"], unit) for k, unit in END_TO_END.items()
                   if k in summary}
    print(json.dumps({"end_to_end": summary, "failures": runner.failures}))
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.count,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
