"""Outside-in tracing of the sinhgordon package, loaded into the workload process.

``install`` wraps each traced public function everywhere the package looks it
up: the modules import functions by name (``from .gff import
sample_path_batch``), so every module global bound to the original function
object is replaced, and nothing under ``src/`` is edited.  Each call records a
span (name, start, end, parent span, thread) in memory; ``Tracer.dump``
writes them out when the run ends.  Counts that follow from array shapes are
attached to the span as attributes (the "computed" metrics of layers.py).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs_fn=None, parent=None):
        """Run ``fn`` inside a span; ``parent`` overrides the thread's own stack."""
        stack = self._stack()
        span_id = next(self._ids)
        outer = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = {"id": span_id, "name": name, "start": start, "end": end,
                "parent": parent if parent is not None else outer,
                "thread": threading.get_ident()}
        if attrs_fn is not None:
            span["attrs"] = attrs_fn(args, kwargs, result)
        self.spans.append(span)
        return result

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _normals(fn):
    def attrs(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        b, xs, ys = result
        n_paths, n_modes = xs.shape[0], xs.shape[-1]
        steps = xs.shape[1] - 1
        initial = 2 * n_paths * n_modes if a["initial"] is None else 0
        return {"normals": initial + steps * n_paths * (1 + 2 * n_modes),
                "path_bytes": b.nbytes + xs.nbytes + ys.nbytes}
    return attrs


def _flops(fn):
    def attrs(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        n_used = a["n_modes_used"] or a["mode_x"].shape[-1]
        cells = result.shape[-1]
        rows = result.size // cells if cells else 0
        return {"flop": 4 * rows * n_used * cells}
    return attrs


def _mass_exps(fn):
    def attrs(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        return {"exps": 2 * (np.size(a["fields"]) + np.size(a["brownian"]))}
    return attrs


def _fk_evals(fn):
    def attrs(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        return {"evals": np.size(a["mass_plus"]) * np.atleast_1d(a["cs"]).size}
    return attrs


def _particle_steps(fn):
    def attrs(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        steps = int(round(2.0 * max(float(t) for t in a["t_half_values"]) / a["dt"]))
        s = a["settings"]
        return {"particle_steps": s.n_particles * s.n_runs * steps}
    return attrs


def _ancestors(args, kwargs, result):
    return {"particles": int(result.size), "distinct": int(np.unique(result).size)}


def _rebind(modules, original, replacement):
    """Point every module global bound to ``original`` at ``replacement``."""
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer):
    """Wrap the traced functions of the imported ``sinhgordon`` package."""
    import sinhgordon  # noqa: F401  (loads every submodule)
    from sinhgordon import (config, correlations, gff, parallel, propagator, results,
                            runner, smc, spectral)

    modules = [m for name, m in sys.modules.items()
               if name == "sinhgordon" or name.startswith("sinhgordon.")]

    def wrap(original, name, attrs_fn=None):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, attrs_fn)
        if not _rebind(modules, original, traced):
            raise RuntimeError(f"no caller looks up {name}")

    wrap(config.load_config, "config.load_config")
    wrap(gff.sample_path_batch, "gff.sample_path_batch", _normals(gff.sample_path_batch))
    wrap(gff.fluctuation_grid, "gff.fluctuation_grid", _flops(gff.fluctuation_grid))
    wrap(propagator.mass_pair_slices, "propagator.mass_pair_slices",
         _mass_exps(propagator.mass_pair_slices))
    wrap(propagator.fk_weights, "propagator.fk_weights", _fk_evals(propagator.fk_weights))
    wrap(correlations.vertex_direct, "correlations.vertex_direct")
    wrap(correlations.vertex_girsanov, "correlations.vertex_girsanov")
    wrap(smc.smc_flow, "smc.smc_flow", _particle_steps(smc.smc_flow))
    wrap(smc._systematic_resample, "smc.resample", _ancestors)
    wrap(results.jackknife_ratio, "results.jackknife")
    wrap(results.jackknife_func, "results.jackknife")
    wrap(spectral.lambda0_fit, "spectral.lambda0_fit")

    map_chunks = parallel.map_chunks

    @functools.wraps(map_chunks)
    def traced_map_chunks(fn, chunks, workers=1):
        chunks = list(chunks)
        resolved = parallel.resolve_workers(workers)
        used = 1 if resolved <= 1 or len(chunks) <= 1 else resolved

        def run_all(fn, chunks, workers):
            parent = tracer.current()

            def timed_chunk(chunk):
                return tracer.call("parallel.chunk", fn, (chunk,), {}, parent=parent)
            return map_chunks(timed_chunk, chunks, workers)

        return tracer.call("parallel.map_chunks", run_all, (fn, chunks, workers), {},
                           lambda a, k, r: {"workers": used, "chunks": len(chunks)})

    if not _rebind(modules, map_chunks, traced_map_chunks):
        raise RuntimeError("no caller looks up parallel.map_chunks")

    flush = runner.OutputWriter.flush

    @functools.wraps(flush)
    def traced_flush(self, *args, **kwargs):
        return tracer.call("runner.flush", flush, (self, *args), kwargs)

    runner.OutputWriter.flush = traced_flush
