"""Run configuration: strict JSON schema with defaults.

Unknown keys are rejected at every level so a typo cannot silently fall back
to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .params import ModelParams, validate_params


class Increasing(list):
    """The option kind ``Increasing([kind])``: a ``[kind]`` array that strictly increases."""


# Each experiment's options: name -> (kind, default[, bound]).  A kind is float
# or int (a finite number, greater than bound if one is given), bool, str (a
# path), a tuple of the allowed values, [kind] (a non-empty JSON array of that
# kind, each entry above bound if one is given), or Increasing([kind]) (one
# whose entries strictly increase).
# A None default is "not given"; the experiment may resolve it from the config.
OPTIONS = {
    "validate": {},
    "sample": {"c": (float, 0.0)},
    "gmc-mass": {"t_min": (float, 0.0), "t_max": (float, 1.0), "sigma": ((1, -1), 1)},
    "moments": {"t_min": (float, 0.5), "t_max": (float, 1.0), "p": (float, 1.0),
                "sigma": ((1, -1), 1)},
    "scaling-check": {"t_min": (float, 0.0), "t_max": (float, 1.0)},
    "partition": {"T_list": (Increasing([float]), None, 0.0)},
    "lambda0": {"T_list": (Increasing([float]), [1.0, 1.5, 2.0, 3.0], 0.0),
                "drop_smallest": (bool, True), "backend": (("smc", "plain"), "smc")},
    "ground-state": {"T": (float, None, 0.0), "bins_c": (int, 12, 0), "bins_x": (int, 8, 0)},
    "vertex": {"alpha": (float, 0.5), "t": (float, 0.0), "theta": (float, 0.0),
               "method": (("direct", "girsanov", "both"), "direct"),
               "n_list": ([int], None)},
    "two-point": {"alpha1": (float, 0.5), "alpha2": (float, None), "theta1": (float, 0.0),
                  "theta2": (float, None),
                  "separations": ([float], [1.0, 1.5, 2.0, 2.5, 3.0])},
    "gap-fit": {"csv": (str, None), "separations": ([float], None),
                "covariances": ([float], None), "std_errors": ([float], None)},
    "lz": {"alpha": (float, 0.5), "tol": (float, 1e-10, 0.0)},
    "mc-vs-lz": {"alpha": (float, 0.5), "R_values": ([float], [1.0, 2.0, 4.0]),
                 "estimates": ([[float]], None)},
}
EXPERIMENTS = tuple(OPTIONS)


@dataclass(frozen=True)
class SamplerCfg:
    n_modes: int = 64
    dt: float = 1.0 / 32.0
    window: float = 1.5          # cylinder half-height T


@dataclass(frozen=True)
class GmcCfg:
    kind: str = "fourier"        # "fourier" | "circle"
    n: int = 64
    epsilon: float = 1.0 / 16.0
    theta_cells: int = 128


@dataclass(frozen=True)
class EstimatorCfg:
    n_samples: int = 8192
    seed: int = 1
    c_window: float = 8.0        # window is [-c_window/gamma, c_window/gamma]
    c_nodes: int = 65


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    sampler: SamplerCfg
    gmc: GmcCfg
    estimator: EstimatorCfg
    experiment: str
    options: dict = field(default_factory=dict)   # as written, for the manifest
    opts: dict = field(default_factory=dict)      # checked against OPTIONS, defaults filled

    def raw(self) -> dict:
        return {
            "params": {"gamma": self.params.gamma, "mu": self.params.mu,
                       "radius": self.params.radius},
            "sampler": {"n_modes": self.sampler.n_modes, "dt": self.sampler.dt,
                        "window": self.sampler.window},
            "gmc": {"regularization": ({"kind": "fourier", "n": self.gmc.n}
                                       if self.gmc.kind == "fourier"
                                       else {"kind": "circle", "epsilon": self.gmc.epsilon}),
                    "theta_cells": self.gmc.theta_cells},
            "estimator": {"n_samples": self.estimator.n_samples, "seed": self.estimator.seed,
                          "c_window": self.estimator.c_window,
                          "c_nodes": self.estimator.c_nodes},
            "experiment": {"name": self.experiment, "options": self.options},
        }


def _take(block: dict, context: str, allowed: dict):
    """Pop known keys with defaults; reject anything unknown."""
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be an object")
    block = dict(block)
    out = {}
    for key, default in allowed.items():
        out[key] = block.pop(key, default)
    if block:
        raise ConfigError(f"unknown keys in {context}: {sorted(block)}")
    return out


def _number(value, name: str, kind=float):
    """``value`` as a finite ``kind``: strings, booleans and fractional ints are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return kind(value)


def _option(value, kind, name: str, bound=None):
    """``value`` as an option of ``kind`` (see ``OPTIONS``), above ``bound`` if given."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty array, got {value!r}")
        values = [_option(v, kind[0], f"{name} entry", bound) for v in value]
        if isinstance(kind, Increasing) and any(a >= b for a, b in zip(values, values[1:])):
            raise ConfigError(f"{name} must be strictly increasing, got {value!r}")
        return values
    if isinstance(kind, tuple):
        if isinstance(value, bool) or value not in kind:
            raise ConfigError(f"{name} must be one of {list(kind)}, got {value!r}")
        return kind[kind.index(value)]
    if kind in (bool, str):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
        return value
    value = _number(value, name, kind)
    if bound is not None and not value > bound:
        raise ConfigError(f"{name} must be greater than {bound}, got {value!r}")
    return value


def _options(experiment: str, options) -> dict:
    """``experiment``'s options checked against ``OPTIONS``, with the defaults filled in."""
    table = OPTIONS[experiment]
    _take(options, f"{experiment} options", table)   # an object with no unknown keys
    return {key: _option(options[key], kind, f"{experiment} option {key}", *bound)
            if key in options else default
            for key, (kind, default, *bound) in table.items()}


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    top = _take(data, "top level", {
        "params": None, "sampler": {}, "gmc": {}, "estimator": {}, "experiment": None,
    })
    if top["params"] is None:
        raise ConfigError("missing required block 'params'")
    if top["experiment"] is None:
        raise ConfigError("missing required block 'experiment'")

    p = _take(top["params"], "params", {"gamma": None, "mu": None, "radius": 1.0})
    if p["gamma"] is None or p["mu"] is None:
        raise ConfigError("params block needs gamma and mu")
    try:
        params = validate_params(p["gamma"], p["mu"], p["radius"])
    except Exception as exc:
        raise ConfigError(f"invalid params: {exc}") from exc

    s = _take(top["sampler"], "sampler", {"n_modes": 64, "dt": 1.0 / 32.0, "window": 1.5})
    sampler = SamplerCfg(_number(s["n_modes"], "sampler.n_modes", int),
                         _number(s["dt"], "sampler.dt"), _number(s["window"], "sampler.window"))
    if sampler.n_modes < 1 or sampler.dt <= 0 or sampler.window <= 0:
        raise ConfigError("sampler block values out of range")

    g = _take(top["gmc"], "gmc", {"regularization": {"kind": "fourier", "n": 64},
                                  "theta_cells": 128})
    if not isinstance(g["regularization"], dict):
        raise ConfigError("gmc.regularization must be an object")
    reg = dict(g["regularization"])
    kind = reg.pop("kind", "fourier")
    theta_cells = _number(g["theta_cells"], "gmc.theta_cells", int)
    if kind == "fourier":
        reg = _take({"kind": kind, **reg}, "gmc.regularization", {"kind": None, "n": 64})
        gmc = GmcCfg(kind="fourier", n=_number(reg["n"], "gmc.regularization.n", int),
                     theta_cells=theta_cells)
    elif kind == "circle":
        reg = _take({"kind": kind, **reg}, "gmc.regularization",
                    {"kind": None, "epsilon": 1.0 / 16.0})
        gmc = GmcCfg(kind="circle",
                     epsilon=_number(reg["epsilon"], "gmc.regularization.epsilon"),
                     theta_cells=theta_cells)
    else:
        raise ConfigError(f"unknown regularization kind {kind!r}")
    if gmc.n < 1 or gmc.epsilon <= 0 or gmc.theta_cells < 4:
        raise ConfigError("gmc block values out of range")

    e = _take(top["estimator"], "estimator",
              {"n_samples": 8192, "seed": 1, "c_window": 8.0, "c_nodes": 65})
    est = EstimatorCfg(_number(e["n_samples"], "estimator.n_samples", int),
                       _number(e["seed"], "estimator.seed", int),
                       _number(e["c_window"], "estimator.c_window"),
                       _number(e["c_nodes"], "estimator.c_nodes", int))
    if est.n_samples < 2 or est.seed < 0 or est.c_nodes < 8 or est.c_window <= 0:
        raise ConfigError("estimator block values out of range")

    exp = _take(top["experiment"], "experiment", {"name": None, "options": {}})
    if exp["name"] not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp['name']!r}; "
                          f"choose one of {', '.join(EXPERIMENTS)}")
    return RunConfig(params=params, sampler=sampler, gmc=gmc, estimator=est,
                     experiment=exp["name"], options=exp["options"],
                     opts=_options(exp["name"], exp["options"]))


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def with_overrides(cfg: RunConfig, seed: int | None = None, fast: bool = False) -> RunConfig:
    """Apply a seed override and the ``--fast`` profile.

    ``--fast`` caps the replicas at 1000 and every sampled mode count at 16:
    the sampler's and the Fourier regularization's.  The circle kind's fixed
    path modes are not capped.
    """
    est = cfg.estimator
    sampler = cfg.sampler
    gmc = cfg.gmc
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        est = EstimatorCfg(est.n_samples, int(seed), est.c_window, est.c_nodes)
    if fast:
        est = EstimatorCfg(min(est.n_samples, 1000), est.seed, est.c_window, est.c_nodes)
        sampler = SamplerCfg(min(sampler.n_modes, 16), sampler.dt, sampler.window)
        if gmc.kind == "fourier":
            gmc = GmcCfg(gmc.kind, min(gmc.n, 16), gmc.epsilon, gmc.theta_cells)
    return replace(cfg, sampler=sampler, gmc=gmc, estimator=est)
