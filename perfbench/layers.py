"""Per-layer metrics from the spans of one traced run.

A span's self time is its duration minus the part of that interval its child
spans cover.  Spans of one name are summed over calls and threads, so a layer
that runs in two worker threads reports thread-seconds.
"""

from __future__ import annotations


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, edge = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, edge), min(e, hi)
        if e > s:
            total += e - s
            edge = e
    return total


def self_times(spans):
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    return {sp["id"]: (sp["end"] - sp["start"])
            - _covered(sp["start"], sp["end"], children.get(sp["id"], []))
            for sp in spans}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den > 0 else 0.0


def layer_metrics(spans, output_bytes):
    """Per-layer metrics (value, unit) from one traced run's spans."""
    own = self_times(spans)
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)

    def self_s(name):
        return sum(own[sp["id"]] for sp in by_name.get(name, []))

    def wall(name):
        return sum(sp["end"] - sp["start"] for sp in by_name.get(name, []))

    def attr_sum(name, key):
        return sum(sp["attrs"][key] for sp in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    path_self = self_s("gff.sample_path_batch")
    normals = attr_sum("gff.sample_path_batch", "normals")
    synth_self = self_s("gff.fluctuation_grid")
    gflop = attr_sum("gff.fluctuation_grid", "flop") / 1e9
    mass_self = self_s("propagator.mass_pair_slices")
    exps = attr_sum("propagator.mass_pair_slices", "exps")
    flow_wall = wall("smc.smc_flow")
    particle_steps = attr_sum("smc.smc_flow", "particle_steps")
    resamples = by_name.get("smc.resample", [])
    chunk_s = sorted(sp["end"] - sp["start"] for sp in by_name.get("parallel.chunk", []))
    capacity = sum(sp["attrs"]["workers"] * (sp["end"] - sp["start"])
                   for sp in by_name.get("parallel.map_chunks", []))
    busy = sum(chunk_s)

    return {
        "gff.sample_path_batch.self_s": (path_self, "s"),
        "gff.sample_path_batch.calls": (calls("gff.sample_path_batch"), "count"),
        "gff.normals": (normals, "count"),
        "gff.ns_per_normal": (_ratio(path_self, normals, 1e9), "ns"),
        "gff.path_bytes_max": (max([sp["attrs"]["path_bytes"] for sp in
                                    by_name.get("gff.sample_path_batch", [])], default=0),
                               "bytes"),
        "gff.fluctuation_grid.self_s": (synth_self, "s"),
        "gff.fluctuation_grid.gflop": (gflop, "GFLOP"),
        "gff.fluctuation_grid.gflop_per_s": (_ratio(gflop, synth_self), "GFLOP/s"),
        "propagator.mass_pair_slices.self_s": (mass_self, "s"),
        "propagator.exps": (exps, "count"),
        "propagator.ns_per_exp": (_ratio(mass_self, exps, 1e9), "ns"),
        "propagator.fk_weights.self_s": (self_s("propagator.fk_weights"), "s"),
        "propagator.fk_evals": (attr_sum("propagator.fk_weights", "evals"), "count"),
        "correlations.vertex_direct.self_s": (self_s("correlations.vertex_direct"), "s"),
        "correlations.vertex_girsanov.self_s": (self_s("correlations.vertex_girsanov"), "s"),
        "smc.smc_flow.wall_s": (flow_wall, "s"),
        "smc.particle_steps": (particle_steps, "count"),
        "smc.ns_per_particle_step": (_ratio(flow_wall, particle_steps, 1e9), "ns"),
        "smc.resamples": (len(resamples), "count"),
        "smc.resample.self_s": (self_s("smc.resample"), "s"),
        "smc.distinct_ancestor_frac": (
            _ratio(sum(sp["attrs"]["distinct"] / sp["attrs"]["particles"]
                       for sp in resamples), len(resamples)), "ratio"),
        "parallel.chunks": (len(chunk_s), "count"),
        "parallel.chunk_s.p50": (chunk_s[len(chunk_s) // 2] if chunk_s else 0.0, "s"),
        "parallel.chunk_s.max": (chunk_s[-1] if chunk_s else 0.0, "s"),
        "parallel.busy_frac": (_ratio(busy, capacity), "ratio"),
        "parallel.wait_s": (capacity - busy, "s"),
        "results.jackknife.self_s": (self_s("results.jackknife"), "s"),
        "results.jackknife.calls": (calls("results.jackknife"), "count"),
        "spectral.lambda0_fit.self_s": (self_s("spectral.lambda0_fit"), "s"),
        "config.load_config.self_s": (self_s("config.load_config"), "s"),
        "runner.flush.self_s": (self_s("runner.flush"), "s"),
        "runner.output_bytes": (output_bytes, "bytes"),
    }


def count_signature(metrics):
    """The computed counts, which repeat exactly for one config at any worker count."""
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"
            or k in ("gff.path_bytes_max", "gff.fluctuation_grid.gflop",
                     "smc.distinct_ancestor_frac")}
