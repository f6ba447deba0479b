#!/usr/bin/env python3
"""Alternating pairs of benchmark workload processes from two checkouts.

    python3 scripts/ab_pairs.py --base DIR --change DIR --workload NAME \
        --work DIR [--pairs 10] [--seed 101] [--out FILE.json]

Each pair launches one workload process from each checkout, the base first in
even pairs and the change first in odd ones, at seed ``--seed + pair`` for
both.  A process is the checkout's own ``perfbench/child.py`` on the config
``perfbench/run.py`` writes for the workload, with that checkout's ``src/``
on ``PYTHONPATH``, so each side runs its own code on the same inputs.  One
unmeasured launch per side fills the caches first.

Per process it records ``wall_s`` (config load to flushed records, from the
child's stamps), ``setup_s`` (launch to experiment dispatch), and from the
rusage of ``os.wait4``: ``cpu_s``, ``peak_rss_mb``, ``nvcsw`` (voluntary
context switches: waits, such as a thread blocking on the interpreter lock)
and ``minflt`` (minor page faults).  It prints, and writes to ``--out``, each
side's median and quartiles of every metric and the change's wins per metric
(lower is better; ties count for neither side).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "nvcsw", "minflt")


def _workloads(checkout: Path):
    """The WORKLOADS table of a checkout's perfbench/run.py."""
    sys.path.insert(0, str(checkout / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      checkout / "perfbench" / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.pop(0)
    return module.WORKLOADS


def launch(checkout: Path, config: Path, workers: int, run_dir: Path) -> dict:
    """One workload process; its measurements, or an ``error``."""
    run_dir.mkdir(parents=True)
    timing = run_dir / "timing.json"
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, str(checkout / "perfbench" / "child.py"), "--config", str(config),
            "--workers", str(workers), "--out-dir", str(run_dir / "out"),
            "--timing", str(timing)]
    t_launch = time.monotonic()
    with open(run_dir / "log.txt", "w") as log:
        proc = subprocess.Popen(argv, cwd=checkout, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return {"error": (run_dir / "log.txt").read_text()[-2000:]}
    stamps = json.loads(timing.read_text())["stamps"]
    return {"wall_s": stamps["end"] - stamps["start"], "setup_s": stamps["dispatch"] - t_launch,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "nvcsw": usage.ru_nvcsw, "minflt": usage.ru_minflt}


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list) -> dict:
    out = {"pairs": len(runs)}
    for m in METRICS:
        base = [r["base"][m] for r in runs]
        change = [r["change"][m] for r in runs]
        b, c = _quartiles(base), _quartiles(change)
        out[m] = {"base": b, "change": c,
                  "change_wins": sum(y < x for x, y in zip(base, change)),
                  "base_wins": sum(x < y for x, y in zip(base, change)),
                  "rel_change": c["median"] / b["median"] - 1.0 if b["median"] else None,
                  "base_iqr": b["q3"] - b["q1"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    workload = _workloads(sides["change"])[args.workload]
    work = args.work / args.workload
    work.mkdir(parents=True, exist_ok=False)

    def run(side, seed, tag):
        config = work / f"config-{seed}.json"
        if not config.exists():
            config.write_text(json.dumps(workload.make_config(seed)))
        rep = launch(sides[side], config, workload.workers, work / f"{tag}-{side}")
        if "error" in rep:
            raise SystemExit(f"{side} {tag} failed: {rep['error']}")
        return rep

    for side in sides:
        run(side, args.seed, "warm")
    runs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        seed = args.seed + i
        runs.append({side: run(side, seed, f"pair{i:02d}") for side in order})
        runs[-1]["seed"], runs[-1]["first"] = seed, order[0]
        print(json.dumps({"pair": i, **runs[-1]}), flush=True)
    result = {"workload": args.workload, "workers": workload.workers,
              "nproc": os.cpu_count(), "summary": summarize(runs), "runs": runs}
    print(json.dumps(result["summary"], indent=1))
    if args.out:
        args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
