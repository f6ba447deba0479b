"""One workload process: a sinhgordon CLI run, timed and optionally traced.

    python3 perfbench/child.py --config C --workers W --out-dir D --timing T.json
        [--trace SPANS.json] [--setup-only] [--provenance]

It calls ``sinhgordon.runner.run`` with the arguments ``python -m sinhgordon
--config C --workers W --out-dir D`` passes, and stamps three instants on the
system-wide monotonic clock, which the parent process shares: the call into
``run`` (config load), the entry to the experiment function (dispatch), and
the return from ``run`` (records flushed).  The dispatch stamp comes from a
wrapper around each entry of ``runner._DISPATCH``; the program itself is not
changed.  ``--setup-only`` stops at dispatch, so only interpreter start,
imports and config parsing run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


class _StopAtDispatch(Exception):
    pass


def _blas_threads():
    """OpenBLAS thread count, read from numpy's bundled library."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return getter()
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--timing", required=True)
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--provenance", action="store_true")
    args = ap.parse_args()

    from sinhgordon import runner

    stamps = {}

    def hook(fn):
        def dispatched(*a, **k):
            stamps["dispatch"] = time.monotonic()
            if args.setup_only:
                raise _StopAtDispatch
            return fn(*a, **k)
        return dispatched

    for name, fn in list(runner._DISPATCH.items()):
        runner._DISPATCH[name] = hook(fn)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    run_args = (args.config,)
    run_kwargs = {"seed": None, "workers": args.workers, "fast": False,
                  "out_dir": args.out_dir}
    stamps["start"] = time.monotonic()
    try:
        if tracer is None:
            rc = runner.run(*run_args, **run_kwargs)
        else:
            rc = tracer.call("runner.run", runner.run, run_args, run_kwargs)
    except _StopAtDispatch:
        rc = 0
    stamps["end"] = time.monotonic()

    timing = {"rc": rc, "stamps": stamps, "module": runner.__file__}
    if args.provenance:
        timing["blas_threads"] = _blas_threads()
    if tracer is not None:
        tracer.dump(args.trace)
    with open(args.timing, "w") as fh:
        json.dump(timing, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
