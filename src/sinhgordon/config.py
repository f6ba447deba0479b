"""Run configuration: strict JSON schema with defaults.

Unknown keys are rejected at every level so a typo cannot silently fall back
to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

from .errors import ConfigError, SinhGordonError
from .params import ModelParams, validate_params


class Increasing(list):
    """The option kind ``Increasing([kind])``: a ``[kind]`` array that strictly increases."""


# Each experiment's options: name -> (kind, default[, bound]).  A kind is float
# or int (a finite number, greater than bound if one is given), bool, str (a
# path), dict (a JSON object), a tuple of the allowed values, [kind] (a
# non-empty JSON array of that kind, each entry above bound if one is given),
# or Increasing([kind]) (one whose entries strictly increase).
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
                "drop_smallest": (bool, True)},
    "ground-state": {"T": (float, None, 0.0), "bins_c": (int, 12, 0), "bins_x": (int, 8, 0)},
    "vertex": {"alpha": (float, 0.5), "t": (float, 0.0), "theta": (float, 0.0),
               "method": (("direct", "girsanov", "both"), "direct"),
               "n_list": (Increasing([int]), None, 0)},
    "two-point": {"alpha1": (float, 0.5), "alpha2": (float, None), "theta1": (float, 0.0),
                  "theta2": (float, None),
                  "separations": ([float], [1.0, 1.5, 2.0, 2.5, 3.0])},
    "gap-fit": {"csv": (str, None), "separations": ([float], None),
                "covariances": ([float], None), "std_errors": ([float], None, 0.0)},
    "lz": {"alpha": (float, 0.5), "tol": (float, 1e-10, 0.0)},
    "mc-vs-lz": {"alpha": (float, 0.5), "R_values": ([float], [1.0, 2.0, 4.0], 0.0),
                 "estimates": ([[float]], None)},
}
EXPERIMENTS = tuple(OPTIONS)

# The experiments that read no radius, and why: each exits 2 at a
# params.radius other than 1 rather than write the unit-radius records.
UNIT_RADIUS = {
    "gmc-mass": "its masses are those of the unit-radius field",
    "moments": "its masses are those of the unit-radius field",
    "lz": "it computes the infinite-volume value",
    "mc-vs-lz": "it takes its radii from R_values",
}


# The config blocks: block -> key -> (kind, default[, bound]), in the form of
# OPTIONS.  gmc.regularization is an object whose keys are those of its kind in
# REGULARIZATIONS.  A _REQUIRED key has no default.
_REQUIRED = object()
BLOCKS = {
    "params": {"gamma": (float, _REQUIRED), "mu": (float, _REQUIRED), "radius": (float, 1.0)},
    "sampler": {"n_modes": (int, 64, 0), "dt": (float, 1.0 / 32.0, 0.0),
                "window": (float, 1.5, 0.0)},                 # cylinder half-height T
    "gmc": {"regularization": (dict, {}), "theta_cells": (int, 128, 3)},
    "estimator": {"n_samples": (int, 8192, 1), "seed": (int, 1, -1),
                  "c_window": (float, 8.0, 0.0),  # window is [-c_window/gamma, c_window/gamma]
                  "c_nodes": (int, 65, 7)},
}
REGULARIZATIONS = {"fourier": {"n": (int, 64, 0)},
                   "circle": {"epsilon": (float, 1.0 / 16.0, 0.0)}}
_TOP = {**{name: (dict, {}) for name in BLOCKS}, "params": (dict, _REQUIRED),
        "experiment": (dict, _REQUIRED)}
_EXPERIMENT = {"name": (EXPERIMENTS, _REQUIRED), "options": (dict, {})}


@dataclass(frozen=True)
class SamplerCfg:
    n_modes: int
    dt: float
    window: float


@dataclass(frozen=True)
class GmcCfg:
    kind: str                    # a key of REGULARIZATIONS; the other kind's key is its default
    n: int
    epsilon: float
    theta_cells: int


@dataclass(frozen=True)
class EstimatorCfg:
    n_samples: int
    seed: int
    c_window: float
    c_nodes: int


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    sampler: SamplerCfg
    gmc: GmcCfg
    estimator: EstimatorCfg
    experiment: str
    opts: dict                   # checked against OPTIONS, defaults filled

    def raw(self) -> dict:
        """The config with every default filled in: ``parse_config(raw())`` gives it back.

        Options left unset (a None default) are left out, so two configs that
        describe the same run give the same ``raw()`` and fingerprint.
        """
        fields = {name: asdict(getattr(self, name)) for name in BLOCKS}
        gmc = fields["gmc"]
        gmc["regularization"] = {"kind": gmc["kind"],
                                 **{key: gmc[key] for key in REGULARIZATIONS[gmc["kind"]]}}
        return {**{name: {key: fields[name][key] for key in table}
                   for name, table in BLOCKS.items()},
                "experiment": {"name": self.experiment,
                               "options": {key: value for key, value in self.opts.items()
                                           if value is not None}}}


_NOUNS = {bool: "a boolean", str: "a string", dict: "an object"}


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
    if kind in _NOUNS:
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be {_NOUNS[kind]}, got {value!r}")
        return value
    # a number: strings, booleans and fractional ints are rejected
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = kind(value)
    if bound is not None and not value > bound:
        raise ConfigError(f"{name} must be greater than {bound}, got {value!r}")
    return value


def _checked(block, table: dict, context: str, prefix: str) -> dict:
    """``block`` checked key by key against ``table``, with the defaults filled in.

    ``context`` names the block in errors and ``prefix`` + key names a key.
    """
    _option(block, dict, context)
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {unknown}")
    out = {}
    for key, (kind, default, *bound) in table.items():
        if key in block:
            out[key] = _option(block[key], kind, prefix + key, *bound)
        elif default is _REQUIRED:
            raise ConfigError(f"{prefix}{key} is required")
        else:
            out[key] = default
    return out


def _regularization(reg: dict) -> dict:
    """``gmc.regularization`` checked against its kind; the other kinds' keys at their defaults."""
    kind = _option(reg.get("kind", "fourier"), tuple(REGULARIZATIONS),
                   "gmc.regularization.kind")
    defaults = {key: default for table in REGULARIZATIONS.values()
                for key, (_, default, *_) in table.items()}
    table = {"kind": ((kind,), kind), **REGULARIZATIONS[kind]}   # kind itself is checked above
    return {**defaults, **_checked(reg, table, "gmc.regularization", "gmc.regularization.")}


def parse_config(data: dict) -> RunConfig:
    top = _checked(data, _TOP, "configuration root", "")
    blocks = {name: _checked(top[name], table, name, f"{name}.")
              for name, table in BLOCKS.items()}
    try:
        params = validate_params(**blocks["params"])
    except SinhGordonError as exc:
        raise ConfigError(f"invalid params: {exc}") from exc
    gmc = blocks["gmc"]
    reg = _regularization(gmc.pop("regularization"))
    exp = _checked(top["experiment"], _EXPERIMENT, "experiment", "experiment.")
    name = exp["name"]
    if name in UNIT_RADIUS and params.radius != 1.0:
        raise ConfigError(f"{name} needs params.radius 1, got {params.radius}: "
                          f"{UNIT_RADIUS[name]}")
    return RunConfig(params=params, sampler=SamplerCfg(**blocks["sampler"]),
                     gmc=GmcCfg(**reg, **gmc), estimator=EstimatorCfg(**blocks["estimator"]),
                     experiment=name, opts=_checked(exp["options"], OPTIONS[name],
                                                    f"{name} options", f"{name} option "))


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
    est, sampler, gmc = cfg.estimator, cfg.sampler, cfg.gmc
    if seed is not None:
        kind, _, bound = BLOCKS["estimator"]["seed"]
        est = replace(est, seed=_option(seed, kind, "seed override", bound))
    if fast:
        est = replace(est, n_samples=min(est.n_samples, 1000))
        sampler = replace(sampler, n_modes=min(sampler.n_modes, 16))
        if gmc.kind == "fourier":
            gmc = replace(gmc, n=min(gmc.n, 16))
    return replace(cfg, sampler=sampler, gmc=gmc, estimator=est)
