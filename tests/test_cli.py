import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinhgordon import runner
from sinhgordon.config import BLOCKS, EXPERIMENTS, OPTIONS, parse_config, with_overrides
from sinhgordon.errors import ConfigError
from sinhgordon.results import params_fingerprint
from sinhgordon.runner import run

from conftest import src_callers


def base_config(experiment, options=None, n_samples=400, seed=5, **tweaks):
    cfg = {
        "params": {"gamma": 1.0, "mu": 1.0, "radius": 1.0},
        "sampler": {"n_modes": 12, "dt": 1 / 8, "window": 0.75},
        "gmc": {"regularization": {"kind": "fourier", "n": 12}, "theta_cells": 32},
        "estimator": {"n_samples": n_samples, "seed": seed, "c_window": 8.0,
                      "c_nodes": 17},
        "experiment": {"name": experiment, "options": options or {}},
    }
    cfg.update(tweaks)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_records(out_dir, experiment):
    path = Path(out_dir) / experiment / "records.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_unknown_keys_rejected():
    cfg = base_config("lz")
    cfg["sampler"]["typo"] = 1
    with pytest.raises(ConfigError, match="typo"):
        parse_config(cfg)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        parse_config(base_config("not-an-experiment"))


def test_missing_params_rejected():
    cfg = base_config("lz")
    del cfg["params"]
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_bad_gamma_is_config_error():
    cfg = base_config("lz")
    cfg["params"]["gamma"] = 2.5
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_fast_profile_caps():
    cfg = parse_config(base_config("lz", n_samples=50000))
    fast = with_overrides(cfg, fast=True)
    assert fast.estimator.n_samples == 1000
    assert fast.sampler.n_modes == 12  # already below the cap
    assert fast.gmc.n == 12
    assert with_overrides(cfg, seed=99).estimator.seed == 99
    wide = parse_config(base_config(
        "gmc-mass", sampler={"n_modes": 64, "dt": 1 / 8, "window": 0.75},
        gmc={"regularization": {"kind": "fourier", "n": 64}, "theta_cells": 32}))
    fast = with_overrides(wide, fast=True)
    assert (fast.sampler.n_modes, fast.gmc.n) == (16, 16)
    assert fast.raw()["gmc"]["regularization"]["n"] == 16
    circle = parse_config(base_config(
        "gmc-mass", gmc={"regularization": {"kind": "circle", "epsilon": 0.125},
                         "theta_cells": 32}))
    assert with_overrides(circle, fast=True).gmc == circle.gmc


def _shipped_and_readme_configs():
    root = Path(__file__).parents[1]
    configs = {path.name: json.loads(path.read_text())
               for path in sorted((root / "configs").glob("*.json"))}
    schema = (root / "README.md").read_text().split("### Configuration schema", 1)[1]
    configs["README"] = json.loads(schema.split("```json", 1)[1].split("```", 1)[0])
    return sorted(configs.items())


@pytest.mark.parametrize("overrides", [{}, {"fast": True, "seed": 7}],
                         ids=["as-written", "fast-seed-7"])
@pytest.mark.parametrize("name, raw", _shipped_and_readme_configs())
def test_raw_round_trips(name, raw, overrides):
    # raw() is the manifest's config and the fingerprint's payload: it parses
    # back to the same run, and these configs spell out every key, so as
    # written it is the file itself
    cfg = with_overrides(parse_config(raw), **overrides)
    again = parse_config(cfg.raw())
    assert again == cfg
    assert params_fingerprint(again.raw()) == params_fingerprint(cfg.raw())
    if not overrides:
        assert cfg.raw() == raw
        assert params_fingerprint(cfg.raw()) == params_fingerprint(raw)


def test_config_exit_code_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(str(bad), out_dir=str(tmp_path / "o")) == 2
    cfg = base_config("lz")
    cfg["params"]["gamma"] = 5.0
    assert run(write_config(tmp_path, cfg), out_dir=str(tmp_path / "o2")) == 2


@pytest.mark.parametrize("block, key, value", [
    ("params", "gamma", True),
    ("params", "mu", "1.0"),
    ("params", "radius", "2"),
    ("sampler", "n_modes", "16"),
    ("sampler", "dt", True),
    ("sampler", "n_modes", 12.5),
    ("gmc", "theta_cells", "abc"),
    ("gmc", "theta_cells", 2),
    ("estimator", "n_samples", "100"),
    ("estimator", "c_window", float("nan")),
    ("estimator", "seed", -1),
])
def test_wrong_typed_numbers_exit_two(tmp_path, capsys, block, key, value):
    cfg = base_config("lz")
    cfg[block][key] = value
    assert run(write_config(tmp_path, cfg), out_dir=str(tmp_path / "o")) == 2
    assert "config error:" in capsys.readouterr().err


_UNIT_MASSES = "its masses are those of the unit-radius field"


@pytest.mark.parametrize("experiment, options, radius, message", [
    ("gmc-mass", {}, 2.0, f"gmc-mass needs params.radius 1, got 2.0: {_UNIT_MASSES}"),
    ("moments", {}, 2.0, f"moments needs params.radius 1, got 2.0: {_UNIT_MASSES}"),
    ("lz", {}, 2.0, "lz needs params.radius 1, got 2.0: it computes the infinite-volume value"),
    ("mc-vs-lz", {}, 2.0,
     "mc-vs-lz needs params.radius 1, got 2.0: it takes its radii from R_values"),
    ("lambda0", {"backend": "smc"}, 1.0, "unknown keys in lambda0 options: ['backend']"),
], ids=["gmc-mass-radius-2", "moments-radius-2", "lz-radius-2", "mc-vs-lz-radius-2",
        "lambda0-backend"])
def test_config_refused_at_parse_is_one_line(tmp_path, capsys, experiment, options, radius,
                                             message):
    # the four radius-blind experiments would write the records of radius 1
    # at radius 2, and lambda0 has one code path, so no backend to pick: the
    # parse refuses both before anything is sampled or made
    cfg = base_config(experiment, options, params={"gamma": 1.0, "mu": 1.0, "radius": radius})
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), fast=True, out_dir=str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()


def test_non_object_blocks_exit_two(tmp_path, capsys):
    for tweak in ({"sampler": 5}, {"gmc": {"regularization": "fourier"}}):
        cfg = {**base_config("lz"), **tweak}
        assert run(write_config(tmp_path, cfg), out_dir=str(tmp_path / "o")) == 2
        assert "must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, options", [
    ("validate", {"n_sampels": 5}),
    ("sample", {"c": 0.5, "typo": 1}),
    ("sample", {"c": "1"}),
    ("lambda0", {"T_list": "12"}),
    ("lambda0", {"T_list": [1.0, "2", 3.0]}),
    ("two-point", {"alpha1": "x"}),
    ("two-point", {"separations": "abc"}),
    ("two-point", {"separations": [0.25, None]}),
    ("partition", {"T_list": 0.5}),
    ("gmc-mass", {"sigma": "x"}),
    ("gmc-mass", {"sigma": 2}),
    ("gmc-mass", {"sigma": 1.7}),
    ("gmc-mass", {"sigma": True}),
    ("gmc-mass", {"t_max": "0.5"}),
    ("gmc-mass", {"t_min": 0.5, "t_max": 0.25}),
    ("vertex", {"alpha": "x"}),
    ("vertex", {"n_list": [4, 8], "method": "bogus"}),
    ("vertex", {"alpha": 0.5, "n_list": [4, 8], "method": "girsanov"}),
    ("lz", {"alpha": "x"}),
    ("lz", {"tol": "1e-3"}),
    ("lz", {"tol": 0}),
    ("moments", {"p": "x"}),
    ("mc-vs-lz", {"estimates": [["a", 0.1]]}),
    ("mc-vs-lz", {"estimates": 5}),
    ("mc-vs-lz", {"R_values": "12"}),
    ("mc-vs-lz", {"R_values": [1, 2, 4], "estimates": [[0.95, 0.05], [0.91, 0.03]]}),
    ("gap-fit", {"separations": "abc", "covariances": [0.3, 0.2, 0.1],
                 "std_errors": [1e-6] * 3}),
    ("gap-fit", {"separations": [0.5, 1.0, 1.5, 2.0], "covariances": [0.3, 0.2, 0.1],
                 "std_errors": [1e-6] * 3}),
    ("gap-fit", {"csv": "no-such-curve.csv"}),
    ("gap-fit", {"csv": "no-column.csv"}),
    ("gap-fit", {"csv": "bad-cell.csv"}),
    ("ground-state", {"bins_c": "4"}),
    ("ground-state", {"bins_c": 0}),
    ("ground-state", {"bins_x": 0}),
    ("scaling-check", {"t_min": "0"}),
    ("lambda0", {"drop_smallest": "false"}),
    ("lambda0", {"T_list": []}),
    ("partition", {"T_list": []}),
    ("two-point", {"separations": []}),
    ("mc-vs-lz", {"R_values": []}),
    ("gap-fit", {"separations": [0.5, 1.0, 1.5], "covariances": [0.3, 0.2, 0.1],
                 "std_errors": [1e-3, -1e-3, 1e-3]}),
    ("gap-fit", {"csv": "negative-se.csv"}),
    ("gap-fit", {"separations": [0.5, 1.0, 1.5], "covariances": [0.3, 0.2, 0.1],
                 "std_errors": [0.0, 0.0, 0.0]}),
    ("moments", {"p": 0}),
    ("ground-state", {"T": 0.0}),
    ("ground-state", {"T": -0.25}),
    ("moments", {"t_min": 0.5, "t_max": 0.5}),
    ("scaling-check", {"t_min": 0.5, "t_max": 0.625}),
    ("vertex", {"alpha": 5.0, "method": "girsanov"}),
    ("lz", {"alpha": 5.0}),
    ("two-point", {"separations": [1.5]}),
    ("lambda0", {"T_list": [0.0625]}),
    ("lambda0", {"T_list": [0.0625, 0.125]}),
    ("gmc-mass", {"t_min": -1.0}),
    ("gmc-mass", {"t_max": 0.0}),
    ("moments", {"t_min": -0.5}),
    ("scaling-check", {"t_max": 0.0}),
    ("mc-vs-lz", {"R_values": [0.0, 1.0]}),
    ("mc-vs-lz", {"R_values": [-2.0, 1.0]}),
], ids=["validate-typo", "sample-typo", "sample-string-c", "lambda0-string-T_list",
        "lambda0-string-entry", "two-point-string-alpha", "two-point-string-separations",
        "two-point-null-separation", "partition-scalar-T_list",
        "gmc-mass-string-sigma", "gmc-mass-sigma-two", "gmc-mass-fractional-sigma", "gmc-mass-bool-sigma",
        "gmc-mass-string-t_max", "gmc-mass-reversed-region", "vertex-string-alpha",
        "vertex-unknown-method-with-n_list", "vertex-girsanov-with-n_list", "lz-string-alpha", "lz-string-tol", "lz-zero-tol",
        "moments-string-p", "mc-vs-lz-string-estimate", "mc-vs-lz-scalar-estimates",
        "mc-vs-lz-string-R_values", "mc-vs-lz-estimates-short",
        "gap-fit-string-separations", "gap-fit-unequal-lengths", "gap-fit-missing-csv",
        "gap-fit-csv-missing-column", "gap-fit-csv-non-numeric-cell",
        "ground-state-string-bins_c", "ground-state-zero-bins_c", "ground-state-zero-bins_x",
        "scaling-check-string-t_min", "lambda0-string-drop_smallest",
        "lambda0-empty-T_list", "partition-empty-T_list", "two-point-empty-separations",
        "mc-vs-lz-empty-R_values", "gap-fit-negative-std_error",
        "gap-fit-csv-negative-std_error", "gap-fit-zero-std_error", "moments-zero-p", "ground-state-zero-T",
        "ground-state-negative-T", "moments-empty-region", "scaling-check-one-step-region",
        "vertex-girsanov-inadmissible-alpha", "lz-inadmissible-alpha",
        "two-point-separation-outside-window", "lambda0-one-T", "lambda0-two-T",
        "gmc-mass-negative-t_min", "gmc-mass-zero-t_max", "moments-negative-t_min",
        "scaling-check-zero-t_max", "mc-vs-lz-zero-R", "mc-vs-lz-negative-R"])
def test_bad_experiment_options_exit_two(tmp_path, experiment, options):
    # the csv cases name these files relative to the working directory
    (tmp_path / "no-column.csv").write_text("separation,covariance\n0.5,0.1\n1.0,0.05\n")
    (tmp_path / "bad-cell.csv").write_text(
        "separation,covariance,std_error\n0.5,0.1,1e-6\n1.0,abc,1e-6\n1.5,0.02,1e-6\n")
    (tmp_path / "negative-se.csv").write_text(
        "separation,covariance,std_error\n0.5,0.3,1e-3\n1.0,0.2,-1e-3\n1.5,0.1,1e-3\n")
    path = write_config(tmp_path, base_config(experiment, options))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "sinhgordon", "--config", path, "--fast",
                           "--out-dir", str(tmp_path / "out")], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "config error:" in proc.stderr and "Traceback" not in proc.stderr


def _wrong_values(kind):
    """Values of the wrong type for a kind of OPTIONS or BLOCKS; a nested list
    is three deep, so it is wrong for the arrays of arrays too."""
    wrong = [st.none(), st.just(float("nan")),
             st.lists(st.lists(st.lists(st.floats(-10, 10), min_size=1, max_size=2),
                               min_size=1, max_size=2), min_size=1, max_size=2)]
    if kind is not bool:
        wrong.append(st.booleans())
    if kind is not str:
        wrong.append(st.text(max_size=8).filter(
            lambda v: not (isinstance(kind, tuple) and v in kind)))
    return st.one_of(wrong)


def _wrongly_typed_configs(data):
    """One config per experiment with a wrongly typed option, and one per block
    with a wrongly typed key."""
    for experiment, table in OPTIONS.items():
        if table:
            key = data.draw(st.sampled_from(sorted(table)), label=experiment)
            value = data.draw(_wrong_values(table[key][0]), label=key)
            yield (experiment, key, value), base_config(experiment, {key: value})
    for block, table in BLOCKS.items():
        key = data.draw(st.sampled_from(sorted(table)), label=block)
        value = data.draw(_wrong_values(table[key][0]), label=key)
        cfg = base_config("lz")
        cfg[block][key] = value
        yield (block, key, value), cfg


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_wrongly_typed_option_is_rejected_before_dispatch(data):
    # exit 2 from the config parse, before the output directory exists
    with tempfile.TemporaryDirectory() as tmp:
        for case, cfg in _wrongly_typed_configs(data):
            path = write_config(Path(tmp), cfg)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(path, out_dir=str(Path(tmp) / "out"))
            assert code == 2, case
            assert "config error:" in err.getvalue() and "Traceback" not in err.getvalue()
            assert not (Path(tmp) / "out").exists()


# In-type edge values for one key of a shipped config: the ends of each
# range, times off every shipped grid (0.3) or beyond the cylinder, a
# reversed T_list, alpha at and beyond Q = 2.5 (gamma = 1), and a tolerance
# the quadrature cannot certify.  None makes a run much longer than its
# shipped profile at 200 samples.
_BLOCK_EDGES = {
    ("params", "gamma"): [1e-3, 1.99, 2.0],
    ("params", "mu"): [1e-9, 1e3, 0.0],
    ("params", "radius"): [0.5, 4.0, 0.0],
    ("sampler", "n_modes"): [1, 2],
    ("sampler", "dt"): [0.3, 0.5, 2.0],
    ("sampler", "window"): [0.03125, 0.0625, 0.1],
    ("gmc", "theta_cells"): [4, 5],
    ("gmc", "regularization"): [{"kind": "fourier", "n": 1},
                                {"kind": "circle", "epsilon": 0.0625},
                                {"kind": "circle", "epsilon": 0.07}],
    ("estimator", "n_samples"): [2, 3],
    ("estimator", "seed"): [0, 2**40],
    ("estimator", "c_window"): [1e-3, 0.5, 60.0],
    ("estimator", "c_nodes"): [8, 9],
}
_OPTION_EDGES = {
    "T_list": [[0.3], [0.0625], [0.5, 0.25], [1e-3]],
    "separations": [[0.3], [2.0], [0.0625], [1e-3]],
    "tol": [1e-3, 1e-16, 0.5],
    "sigma": [-1], "drop_smallest": [False],
}
_NUMBER_EDGES = [0.0, -1.0, 0.3, 2.5, 5.0]
_SHIPPED = {path.stem: json.loads(path.read_text())
            for path in sorted((Path(__file__).parents[1] / "configs").glob("*.json"))}


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_shipped_configs_with_one_edge_value_exit_cleanly(data):
    # every shipped config, one key moved to an edge, run at --fast on at
    # most 200 samples: exit 0, 1 or 2 and never a traceback; a run that
    # starts writes its manifest, a config error is one line, and a config
    # the schema rejects exits 2
    with tempfile.TemporaryDirectory() as tmp:
        for name, shipped in _SHIPPED.items():
            cfg = json.loads(json.dumps(shipped))
            cfg["estimator"]["n_samples"] = 200
            keys = sorted(_BLOCK_EDGES) + [("options", key)
                                           for key in OPTIONS[cfg["experiment"]["name"]]]
            block, key = data.draw(st.sampled_from(keys), label=name)
            edges = _BLOCK_EDGES.get((block, key)) or _OPTION_EDGES.get(key, _NUMBER_EDGES)
            value = data.draw(st.sampled_from(edges), label=f"{block}.{key}")
            (cfg["experiment"]["options"] if block == "options" else cfg[block])[key] = value
            out = Path(tmp) / name
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(write_config(Path(tmp), cfg), fast=True, out_dir=str(out))
            case = (name, block, key, value, err.getvalue())
            assert code in (0, 1, 2), case
            assert "Traceback" not in err.getvalue(), case
            manifest = out / cfg["experiment"]["name"] / "manifest.json"
            if code == 2:
                assert err.getvalue().startswith("config error:"), case
                assert len(err.getvalue().splitlines()) == 1, case
            else:
                assert manifest.exists(), case
            try:
                with_overrides(parse_config(cfg), fast=True)
            except ConfigError:
                assert code == 2, case


def test_negative_seed_override_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, base_config("lz"))
    assert run(path, seed=-1, out_dir=str(tmp_path / "o")) == 2
    assert "config error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Experiments end to end
# ---------------------------------------------------------------------------

def test_lz_experiment(tmp_path):
    path = write_config(tmp_path, base_config("lz", {"alpha": 0.0}))
    out = tmp_path / "out"
    assert run(path, out_dir=str(out)) == 0
    recs = read_records(out, "lz")
    assert recs[0]["value"] == pytest.approx(1.0, abs=1e-10)
    assert (out / "lz" / "manifest.json").exists()


def test_validate_experiment(tmp_path):
    path = write_config(tmp_path, base_config("validate", n_samples=4000))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    recs = read_records(tmp_path / "out", "validate")
    assert recs[-1]["status"] == "pass"


def test_gmc_mass_experiment(tmp_path):
    path = write_config(tmp_path, base_config(
        "gmc-mass", {"t_min": 0.0, "t_max": 0.5}, n_samples=2000))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    rec = read_records(tmp_path / "out", "gmc-mass")[0]
    assert abs(rec["estimate"] - rec["analytic_mean"]) < 4 * rec["std_error"]


def test_sample_experiment_dumps_path(tmp_path):
    path = write_config(tmp_path, base_config("sample"))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    assert (tmp_path / "out" / "sample" / "path.bin").exists()


def test_sample_steps_from_their_own_stream(tmp_path):
    # the start and the steps draw from the two children of the seed, so the
    # first Brownian increment is not the start's first x coordinate
    from sinhgordon.gff import TimeGrid, evolve_path, load_path, sample_circle_field
    from sinhgordon.parallel import stateless_children
    path = write_config(tmp_path, base_config("sample", {"c": 0.5}))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    with open(tmp_path / "out" / "sample" / "path.bin", "rb") as fh:
        got = load_path(fh)
    start, steps = stateless_children(5, 2)
    want = evolve_path(sample_circle_field(12, "stationary", start), 0.5,
                       TimeGrid.spanning(1.5, 1 / 8), seed=steps)
    for name in ("brownian", "mode_x", "mode_y"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    np.testing.assert_array_equal(got.initial.xs, want.initial.xs)
    assert got.brownian[1] / math.sqrt(1 / 8) != got.initial.xs[0]


def test_partition_and_lambda0(tmp_path):
    path = write_config(tmp_path, base_config(
        "partition", {"T_list": [0.5, 0.75]}, n_samples=600))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    recs = read_records(tmp_path / "out", "partition")
    assert recs[0]["estimate"] > recs[1]["estimate"] > 0

    path2 = write_config(tmp_path, base_config(
        "lambda0", {"T_list": [0.5, 0.75, 1.0]}, n_samples=1800), "l0.json")
    assert run(path2, out_dir=str(tmp_path / "out2")) == 0
    rec = read_records(tmp_path / "out2", "lambda0")[0]
    assert rec["estimate"] > 0


def _records_without(out_dir, experiment, *keys):
    return [{k: v for k, v in rec.items() if k not in keys}
            for rec in read_records(out_dir, experiment)]


def test_partition_weights_use_the_sampler_truncation(tmp_path):
    # a circle gmc.regularization does not apply to the Feynman-Kac weights:
    # the run is the one of the Fourier config at sampler.n_modes
    options = {"T_list": [0.5, 0.75]}
    circle = write_config(tmp_path, base_config(
        "partition", options, gmc={"regularization": {"kind": "circle", "epsilon": 0.125},
                                   "theta_cells": 32}), "circle.json")
    fourier = write_config(tmp_path, base_config("partition", options), "fourier.json")
    assert run(circle, out_dir=str(tmp_path / "circle")) == 0
    assert run(fourier, out_dir=str(tmp_path / "fourier")) == 0
    keys = ("wall_ms", "fingerprint")
    assert (_records_without(tmp_path / "circle", "partition", *keys)
            == _records_without(tmp_path / "fourier", "partition", *keys))


def test_lambda0_ignores_the_regularization_modes(tmp_path):
    # the particle flow weights with the sampler's Fourier truncation, like
    # every Feynman-Kac weight, so gmc.regularization.n changes nothing
    options = {"T_list": [0.5, 0.75, 1.0]}
    for n in (12, 4):
        path = write_config(tmp_path, base_config(
            "lambda0", options, gmc={"regularization": {"kind": "fourier", "n": n},
                                     "theta_cells": 32}), f"n{n}.json")
        assert run(path, out_dir=str(tmp_path / f"n{n}")) == 0
    keys = ("wall_ms", "fingerprint")
    assert (_records_without(tmp_path / "n12", "lambda0", *keys)
            == _records_without(tmp_path / "n4", "lambda0", *keys))


def test_lambda0_drop_smallest_false_keeps_the_smallest_t(tmp_path):
    path = write_config(tmp_path, base_config(
        "lambda0", {"T_list": [0.5, 0.75, 1.0, 1.25], "drop_smallest": False}))
    assert run(path, out_dir=str(tmp_path / "out"), fast=True) == 0
    assert read_records(tmp_path / "out", "lambda0")[0]["fit_window"] == [0.5, 0.75, 1.0, 1.25]


def test_each_partition_estimator_has_one_caller():
    # partition runs on the plain estimator alone and lambda0 on the particle
    # flow alone; a second caller would be a second code path for one estimate
    assert src_callers("partition_curve") == {("runner", "_exp_partition")}
    assert src_callers("smc_log_partition") == {("runner", "_exp_lambda0")}


def test_vertex_and_two_point(tmp_path):
    path = write_config(tmp_path, base_config(
        "vertex", {"alpha": 0.0, "method": "direct"}))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    rec = read_records(tmp_path / "out", "vertex")[0]
    assert rec["estimate"] == pytest.approx(1.0, abs=1e-12)

    path2 = write_config(tmp_path, base_config(
        "two-point", {"alpha1": 0.0, "alpha2": 0.0, "separations": [0.5]},
        n_samples=800), "tp.json")
    assert run(path2, out_dir=str(tmp_path / "out2")) == 0
    assert (tmp_path / "out2" / "two-point" / "two_point.csv").exists()


def test_gap_fit_from_inline_and_csv(tmp_path):
    opts = {"separations": [0.5, 1.0, 1.5],
            "covariances": [0.5 * math.exp(-1.3 * s) for s in (0.5, 1.0, 1.5)],
            "std_errors": [1e-6] * 3}
    path = write_config(tmp_path, base_config("gap-fit", opts))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    rec = read_records(tmp_path / "out", "gap-fit")[0]
    assert rec["estimate"] == pytest.approx(1.3, abs=1e-3)

    csv_path = tmp_path / "curve.csv"
    csv_path.write_text("separation,covariance,std_error\n" + "\n".join(
        f"{s},{0.5 * math.exp(-1.3 * s)},1e-6" for s in (0.5, 1.0, 1.5)))
    path2 = write_config(tmp_path, base_config("gap-fit", {"csv": str(csv_path)}),
                         "gf2.json")
    assert run(path2, out_dir=str(tmp_path / "out2")) == 0


def test_moments_and_scaling_check(tmp_path):
    path = write_config(tmp_path, base_config(
        "moments", {"p": 1.0, "t_min": 0.0, "t_max": 0.5}, n_samples=2000))
    assert run(path, out_dir=str(tmp_path / "out")) == 0

    cfg = base_config("scaling-check", {"t_min": 0.0, "t_max": 0.5}, n_samples=1500)
    cfg["params"]["radius"] = 2.0
    cfg["sampler"]["dt"] = 1 / 16
    path2 = write_config(tmp_path, cfg, "sc.json")
    assert run(path2, out_dir=str(tmp_path / "out2")) == 0
    rec = read_records(tmp_path / "out2", "scaling-check")[0]
    assert rec["pass"]


def test_ground_state_experiment(tmp_path):
    path = write_config(tmp_path, base_config(
        "ground-state", {"T": 0.5, "bins_c": 4, "bins_x": 2}, n_samples=1500))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    assert (tmp_path / "out" / "ground-state" / "ground_state_profile.csv").exists()


def test_mc_vs_lz_with_inline_estimates(tmp_path):
    path = write_config(tmp_path, base_config(
        "mc-vs-lz", {"alpha": 0.5, "R_values": [1, 2],
                     "estimates": [[0.95, 0.05], [0.91, 0.03]]}))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    rec = read_records(tmp_path / "out", "mc-vs-lz")[0]
    assert rec["flag"] in ("approaching", "not-approaching")


def test_determinism_identical_records(tmp_path):
    cfg = base_config("gmc-mass", {"t_min": 0.0, "t_max": 0.5}, n_samples=500)
    p1 = write_config(tmp_path, cfg, "a.json")
    assert run(p1, out_dir=str(tmp_path / "o1")) == 0
    assert run(p1, out_dir=str(tmp_path / "o2")) == 0

    def strip(rec):
        return {k: v for k, v in rec.items() if k != "wall_ms"}

    r1 = [strip(r) for r in read_records(tmp_path / "o1", "gmc-mass")]
    r2 = [strip(r) for r in read_records(tmp_path / "o2", "gmc-mass")]
    assert r1 == r2


def _records_at_one_and_two_workers(tmp_path, experiment, options, n_samples, **tweaks):
    p = write_config(tmp_path, base_config(experiment, options, n_samples=n_samples,
                                           **tweaks))
    records = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert run(p, out_dir=str(out), workers=workers) == 0
        records.append([{k: v for k, v in rec.items() if k != "wall_ms"}
                        for rec in read_records(out, experiment)])
        manifest = json.loads((out / experiment / "manifest.json").read_text())
        assert manifest["workers"] == workers
        blas = manifest["blas_threads"]
        assert blas is None or (blas == 1 if workers > 1 else blas >= 1)
    return records


def test_workers_do_not_change_results(tmp_path):
    r1, r2 = _records_at_one_and_two_workers(
        tmp_path, "lambda0", {"T_list": [0.5, 0.75, 1.0]}, 1200)
    assert r1 == r2


def test_workers_do_not_change_two_point_records(tmp_path):
    # one image-averaged particle run per chunk, in the pool and on the serial path
    r1, r2 = _records_at_one_and_two_workers(
        tmp_path, "two-point", {"alpha1": 0.5, "separations": [0.25, 0.5]}, 600)
    assert len(r1) == 2 and all("status" not in r for r in r1)
    assert r1 == r2


def test_workers_do_not_change_plain_engine_records(tmp_path):
    # three chunks of the plain engine, in the pool and on the serial path;
    # the run holds the matmuls at 1 BLAS thread on both
    r1, r2 = _records_at_one_and_two_workers(
        tmp_path, "vertex", {"alpha": 0.5, "method": "both"}, 600)
    assert [r["method"] for r in r1] == ["direct", "girsanov"]
    assert r1 == r2


@pytest.mark.parametrize("experiment, options, tweaks", [
    ("gmc-mass", {"t_min": 0.0, "t_max": 0.5}, {}),
    ("moments", {"p": 2.0, "t_min": 0.0, "t_max": 0.5}, {}),
    ("scaling-check", {"t_min": 0.0, "t_max": 0.5},
     {"params": {"gamma": 1.0, "mu": 1.0, "radius": 2.0}}),
], ids=["gmc-mass", "moments", "scaling-check"])
def test_workers_do_not_change_region_mass_records(tmp_path, experiment, options, tweaks):
    # three chunks of region masses, in the pool and on the serial path
    r1, r2 = _records_at_one_and_two_workers(tmp_path, experiment, options, 600, **tweaks)
    assert len(r1) == 1 and "status" not in r1[0]
    assert r1 == r2


def test_gmc_mass_maps_its_replicas_on_the_pool(tmp_path, monkeypatch):
    # a 2-worker gmc-mass run hands its chunks to the worker pool, one chunk
    # per CHUNK replicas
    from sinhgordon import parallel
    calls, map_chunks = [], parallel.map_chunks

    def spy(fn, chunks, workers=1):
        calls.append((len(chunks), workers))
        return map_chunks(fn, chunks, workers)

    monkeypatch.setattr(parallel, "map_chunks", spy)
    n_samples = 600
    path = write_config(tmp_path, base_config("gmc-mass", {"t_min": 0.0, "t_max": 0.5},
                                              n_samples=n_samples))
    assert run(path, out_dir=str(tmp_path / "out"), workers=2) == 0
    assert calls == [(-(-n_samples // parallel.CHUNK), 2)]


def test_moments_record_is_timed(tmp_path):
    path = write_config(tmp_path, base_config(
        "moments", {"p": 1.0, "t_min": 0.0, "t_max": 0.5}, n_samples=600))
    assert run(path, out_dir=str(tmp_path / "out"), fast=True) == 0
    [rec] = read_records(tmp_path / "out", "moments")
    assert rec["wall_ms"] > 0


def test_mc_vs_lz_runs_at_nearby_seeds_share_no_radius_stream(tmp_path):
    # R index i draws from the i-th child of the seed: seed 5 with R values
    # [1, 2] and seed 6 with [2, 3] estimate R = 2 from different streams
    rows = []
    for seed, r_values in ((5, [1.0, 2.0]), (6, [2.0, 3.0])):
        out = tmp_path / f"s{seed}"
        path = write_config(tmp_path, base_config(
            "mc-vs-lz", {"alpha": 0.5, "R_values": r_values}, n_samples=600, seed=seed),
            f"s{seed}.json")
        assert run(path, out_dir=str(out), fast=True) == 0
        [rec] = read_records(out, "mc-vs-lz")
        rows.append(next(row for row in rec["rows"] if row["radius"] == 2.0))
    assert rows[0]["estimate"] != rows[1]["estimate"]
    assert rows[0]["std_error"] != rows[1]["std_error"]


def test_smc_off_grid_span_is_a_clean_failure(tmp_path):
    cfg = base_config("lambda0", {"T_list": [0.5, 0.53]}, sampler={
        "n_modes": 12, "dt": 1 / 16, "window": 0.75})
    path = write_config(tmp_path, cfg)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "sinhgordon", "--config", path,
                           "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    # an off-grid span is a configuration error: exit 2, one line, no output
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "config error: half-height T=0.53 is not on the grid (2T must be a multiple of "
        "dt=0.0625)"]
    assert not (tmp_path / "out").exists()


_DT32 = {"n_modes": 12, "dt": 1 / 32, "window": 0.75}


@pytest.mark.parametrize("experiment, options, sampler", [
    ("sample", {}, {"n_modes": 12, "dt": 1 / 32, "window": 0.51}),
    ("vertex", {"t": 0.01}, _DT32),
    ("vertex", {"t": 0.01, "method": "both"}, _DT32),
    ("two-point", {"separations": [0.25, 0.3, 0.5]}, _DT32),
    ("ground-state", {"T": 0.51}, _DT32),
    ("validate", {}, {"n_modes": 12, "dt": 0.3, "window": 0.75}),
], ids=["sample-window", "vertex-t-direct", "vertex-t-both", "two-point-separation",
        "ground-state-T", "validate-dt"])
def test_off_grid_time_is_a_typed_failure(tmp_path, capsys, experiment, options, sampler):
    # a span or time that is not a node of the dt grid is neither snapped nor a
    # crash: it is a configuration error, exit 2 with one line and no output
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(experiment, options, sampler=sampler))
    assert run(path, out_dir=str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "not a multiple of dt" in err[0] or "not on the grid" in err[0]
    assert not out.exists()


def test_circle_epsilon_off_the_grid_exits_two_before_sampling(tmp_path, capsys,
                                                                monkeypatch):
    # a circle radius that is not a multiple of dt is a configuration error,
    # found before any path is stepped
    import sinhgordon.correlations as corr
    monkeypatch.setattr(corr, "stream_paths", lambda *a, **k: pytest.fail("paths sampled"))
    cfg = base_config("vertex", gmc={"regularization": {"kind": "circle", "epsilon": 0.01},
                                     "theta_cells": 32},
                      sampler={"n_modes": 12, "dt": 1 / 16, "window": 0.75})
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), fast=True, out_dir=str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: epsilon=0.01 is not a positive multiple of dt=0.0625"]
    assert not out.exists()


@pytest.mark.parametrize("experiment, options", [
    ("gmc-mass", {"t_min": 0.0, "t_max": 0.5}),
    ("moments", {"t_min": 0.0, "t_max": 0.5, "p": 1.0}),
])
def test_circle_margin_below_zero_exits_two(tmp_path, capsys, experiment, options):
    # the averaging circle of a region starting at t_min < epsilon would reach
    # below t = 0, where no path is sampled: a configuration error
    cfg = base_config(experiment, options,
                      gmc={"regularization": {"kind": "circle", "epsilon": 0.25},
                           "theta_cells": 32})
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), fast=True, out_dir=str(out)) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"config error: {experiment} option t_min 0.0 is below the circle epsilon 0.25: "
        "the averaging circle would reach below t = 0"]
    assert "Traceback" not in err
    assert not out.exists()


_HALF_HEIGHT_0515 = ("config error: half-height T=0.515 is not on the grid "
                     "(2T must be a multiple of dt=0.03125)")


@pytest.mark.parametrize("experiment, options, message", [
    ("vertex", {"t": 0.01}, "insertion time 0.01 is not on the grid"),
    ("two-point", {"separations": [0.25, 0.3]},
     "separation 0.3: insertion time -0.15 is not on the grid"),
    ("lambda0", {"T_list": [0.25, 0.5, 0.515, 0.75]}, _HALF_HEIGHT_0515),
    ("partition", {"T_list": [0.25, 0.515, 0.75]}, _HALF_HEIGHT_0515),
    ("partition", {"T_list": [0.25, 0.5, 0.515]}, _HALF_HEIGHT_0515),
], ids=["vertex-t", "two-point-separation", "lambda0-smc-T_list",
        "partition-T_list", "partition-largest-T_list"])
def test_off_grid_insertion_names_the_configured_time(tmp_path, capsys, experiment, options,
                                                      message):
    # the message holds the time the config gives, not the process time: the
    # window time t, not t + T, and a T_list entry T, not the span 2T
    path = write_config(tmp_path, base_config(experiment, options, sampler=_DT32))
    assert run(path, out_dir=str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err


_UNSORTED = "option T_list must be strictly increasing"
_NOT_POSITIVE = "option T_list entry must be greater than 0.0"


@pytest.mark.parametrize("experiment, options, message", [
    ("lambda0", {"T_list": [1.5, 1.0, 2.0, 3.0]}, _UNSORTED),
    ("lambda0", {"T_list": [1.0, 1.5, 1.5, 2.0]}, _UNSORTED),
    ("partition", {"T_list": [0.75, 0.5]}, _UNSORTED),
    ("partition", {"T_list": [0.5, 0.5]}, _UNSORTED),
    ("lambda0", {"T_list": [0.0, 0.5, 0.75], "drop_smallest": False}, _NOT_POSITIVE),
    ("partition", {"T_list": [0.0, 0.5]}, _NOT_POSITIVE),
], ids=["lambda0-smc-unsorted", "lambda0-repeated", "partition-unsorted",
        "partition-repeated", "lambda0-smc-zero", "partition-zero"])
def test_t_list_is_checked_before_sampling(tmp_path, capsys, experiment, options, message):
    # an unsorted T_list used to fit the wrong points, and a T of 0 gave the
    # SMC backend a NaN estimate, both with exit 0; both are config errors now
    path = write_config(tmp_path, base_config(experiment, options))
    assert run(path, out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {experiment} {message}, got ")
    assert not (tmp_path / "out").exists()


def test_unexpected_exception_is_a_clean_failure(tmp_path, capsys, monkeypatch):
    def broken(cfg, out, workers):
        out.record({"experiment": "lz", "value": 1.0})
        return 1 / 0

    monkeypatch.setitem(runner._DISPATCH, "lz", broken)
    out = tmp_path / "out"
    assert run(write_config(tmp_path, base_config("lz")), out_dir=str(out)) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["runtime failure: ZeroDivisionError: division by zero"]
    manifest = json.loads((out / "lz" / "manifest.json").read_text())
    assert read_records(out, "lz")[-1] == {
        "experiment": "lz", "status": "failed",
        "error": "ZeroDivisionError: division by zero",
        "fingerprint": manifest["fingerprint"], "seed": 5, "n_samples": 400}
    assert manifest["n_records"] == 2
    assert "in broken" in manifest["traceback"]


def test_register_overflow_is_a_typed_failure(tmp_path, capsys):
    # at gamma 1e-3 the zero-mode window is +-8000, so a pair register reaches
    # about e^8000: a runtime failure of a package type, not a Python OverflowError
    cfg = base_config("two-point", {"separations": [0.25]}, n_samples=200,
                      params={"gamma": 1e-3, "mu": 1.0, "radius": 1.0})
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), fast=True, out_dir=str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: RegisterOverflow: ") and "OverflowError:" not in err
    assert read_records(out, "two-point")[-1]["error"].startswith("RegisterOverflow: ")
    assert "traceback" not in json.loads((out / "two-point" / "manifest.json").read_text())


@pytest.mark.parametrize("experiment, options", [
    ("two-point", {"separations": [0.25, 0.5]}),
    ("mc-vs-lz", {"R_values": [1.0]}),
])
def test_particle_flows_honour_c_window(tmp_path, experiment, options):
    # estimator.c_window sets the zero-mode window of the particle flows
    found = []
    for c_window in (8.0, 4.0):
        raw = base_config(experiment, options, n_samples=300)
        raw["estimator"]["c_window"] = c_window
        out = tmp_path / str(c_window)
        assert run(write_config(tmp_path, raw), fast=True, out_dir=str(out)) == 0
        found.append([{k: v for k, v in rec.items() if k not in ("fingerprint", "wall_ms")}
                      for rec in read_records(out, experiment)])
    assert found[0] != found[1]


def test_particle_flows_read_the_c_window_quadrature(tmp_path):
    # at estimator.c_window 6 the particle flows of two-point and SMC lambda0
    # start on the window of default_c_quadrature(gamma, half_width=6.0), the
    # quadrature a library caller passes
    from sinhgordon.correlations import two_point_covariance
    from sinhgordon.propagator import default_c_quadrature
    from sinhgordon.smc import SmcSettings, smc_log_partition

    found = {}
    for experiment, options in [("two-point", {"separations": [0.25, 0.5]}),
                                ("lambda0", {"T_list": [0.25, 0.5, 0.75]})]:
        raw = base_config(experiment, options, n_samples=600)
        raw["estimator"]["c_window"] = 6.0
        assert run(write_config(tmp_path, raw, f"{experiment}.json"),
                   out_dir=str(tmp_path / "out")) == 0
        found[experiment] = read_records(tmp_path / "out", experiment)
    cfg = parse_config(raw)
    quad = default_c_quadrature(cfg.params.gamma, half_width=6.0)
    rows = two_point_covariance((0.5, 0.0), (0.5, 0.0), [0.25, 0.5], 0.75, cfg.params,
                                dt=1 / 8, n_modes=12, theta_cells=32, n_samples=600,
                                seed=5, quad=quad)
    assert [{k: rec[k] for k in row} for rec, row in zip(found["two-point"], rows)] == rows
    pairs = smc_log_partition(cfg.params, [0.25, 0.5, 0.75], 1 / 8, 12, 32,
                              SmcSettings.for_samples(600, 12), 5, quad=quad)
    assert [(p["log_z"], p["log_z_se"]) for p in found["lambda0"][0]["curve"]] == pairs


def test_config_error_inside_an_experiment_leaves_no_output(tmp_path, capsys):
    path = write_config(tmp_path, base_config("gap-fit", {"csv": str(tmp_path / "missing.csv")}))
    assert run(path, out_dir=str(tmp_path / "out")) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_records_are_written_as_they_are_made(tmp_path, monkeypatch):
    # a validate run stopped at its second probe keeps the first probe's
    # record; the manifest of an earlier run in the directory goes, since it
    # is written last and only by a run that finished
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config("validate"))
    assert run(path, out_dir=str(out)) == 0
    assert (out / "validate" / "manifest.json").exists()
    calls, oracle = [], runner.truncated_slice_cov

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return oracle(*args)

    monkeypatch.setattr(runner, "truncated_slice_cov", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(path, out_dir=str(out))
    recs = read_records(out, "validate")
    assert len(recs) == 1 and recs[0]["probe"] == [[0.0, 0.0], [0.0, math.pi]]
    assert not (out / "validate" / "manifest.json").exists()


def test_manifest_records_versions_and_peak_rss(tmp_path):
    out = tmp_path / "out"
    assert run(write_config(tmp_path, base_config("lz")), out_dir=str(out)) == 0
    manifest = json.loads((out / "lz" / "manifest.json").read_text())
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert 1.0 < manifest["peak_rss_mb"] < 1e5
    assert 1 <= manifest["cores"] <= (os.cpu_count() or 1)
    assert "traceback" not in manifest
    # provenance stays out of the records
    assert all("cores" not in rec for rec in read_records(out, "lz"))


def test_worker_env_override(monkeypatch):
    from sinhgordon.parallel import resolve_workers
    monkeypatch.setenv("SINHGORDON_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    monkeypatch.setenv("SINHGORDON_WORKERS", "junk")
    with pytest.raises(ConfigError, match="SINHGORDON_WORKERS"):
        resolve_workers(None)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_bad_worker_env_exits_two(tmp_path, capsys, monkeypatch, value):
    # a set SINHGORDON_WORKERS that is not an integer of at least 1 is a
    # config error, like --workers 0, not a silent run at one worker
    monkeypatch.setenv("SINHGORDON_WORKERS", value)
    out = tmp_path / "out"
    assert runner.main(["--config", write_config(tmp_path, base_config("validate")),
                        "--fast", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: SINHGORDON_WORKERS must be an integer of at least 1, got {value!r}"]
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_exit_two(tmp_path, capsys, monkeypatch, workers):
    # an explicit count below 1 is refused, not replaced by the env value or 1
    monkeypatch.setenv("SINHGORDON_WORKERS", "2")
    out = tmp_path / "out"
    assert run(write_config(tmp_path, base_config("lz")), workers=workers,
               out_dir=str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: workers must be at least 1, got {workers}"]
    assert not out.exists()


def test_vertex_refinement_sequence(tmp_path):
    path = write_config(tmp_path, base_config(
        "vertex", {"alpha": 0.5, "n_list": [4, 8, 12]}, n_samples=600))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    rec = read_records(tmp_path / "out", "vertex")[0]
    assert rec["method"] == "refinement"
    assert len(rec["sequence"]) == 3
    assert "richardson_extrapolation" in rec and "converged_flag" in rec


def test_vertex_refinement_equals_per_truncation_estimates(tmp_path):
    # the truncations share one path pass; each equals its own vertex_direct
    import sinhgordon as sg
    from sinhgordon.gmc import fourier_spec
    from sinhgordon.runner import _quad

    raw = base_config("vertex", {"alpha": 0.5, "n_list": [4, 8, 12]}, n_samples=600)
    assert run(write_config(tmp_path, raw), out_dir=str(tmp_path / "out"), workers=2) == 0
    rec = read_records(tmp_path / "out", "vertex")[0]
    cfg = parse_config(raw)
    ins = sg.make_insertions([(0.5, 0.0, 0.0)], cfg.params)
    for row, nv in zip(rec["sequence"], [4, 8, 12]):
        res = sg.vertex_direct(ins, fourier_spec(+1, nv), cfg.sampler.window, cfg.params,
                               dt=cfg.sampler.dt, n_modes=cfg.sampler.n_modes,
                               theta_cells=cfg.gmc.theta_cells, quad=_quad(cfg),
                               n_samples=600, seed=5)
        assert (row["estimate"], row["std_error"]) == (res.mean, res.std_error)


@pytest.mark.parametrize("n_list, fast", [([8, "16"], False), ([8, 32], True)],
                         ids=["string-entry", "above-fast-cap"])
def test_vertex_n_list_checked_before_sampling(tmp_path, capsys, monkeypatch, n_list, fast):
    import sinhgordon.correlations as corr
    monkeypatch.setattr(corr, "stream_paths", lambda *a, **k: pytest.fail("paths sampled"))
    cfg = base_config("vertex", {"alpha": 0.5, "n_list": n_list},
                      sampler={"n_modes": 64, "dt": 1 / 8, "window": 0.75})
    assert run(write_config(tmp_path, cfg), fast=fast, out_dir=str(tmp_path / "o")) == 2
    assert "n_list" in capsys.readouterr().err


def test_vertex_direct_is_cut_at_the_regularization_modes(tmp_path):
    # gmc.regularization.n sets the direct insertion's truncation: n 4 is the
    # n_list entry 4 of the same paths, not the n 12 estimate
    def direct(n, name):
        raw = base_config("vertex", {"alpha": 0.5, "method": "direct"},
                          gmc={"regularization": {"kind": "fourier", "n": n},
                               "theta_cells": 32})
        assert run(write_config(tmp_path, raw, f"{name}.json"),
                   out_dir=str(tmp_path / name)) == 0
        return read_records(tmp_path / name, "vertex")
    n12, n4 = direct(12, "n12"), direct(4, "n4")
    assert n12[0]["estimate"] != n4[0]["estimate"]
    raw = base_config("vertex", {"alpha": 0.5, "n_list": [4, 12]})
    assert run(write_config(tmp_path, raw, "list.json"), out_dir=str(tmp_path / "list")) == 0
    seq = read_records(tmp_path / "list", "vertex")[0]["sequence"]
    for rec, row in zip((n4[0], n12[0]), seq):
        assert (rec["estimate"], rec["std_error"]) == (row["estimate"], row["std_error"])


@pytest.mark.parametrize("n, fast", [(16, False), (40, True)],
                         ids=["above-modes", "above-fast-cap"])
def test_vertex_regularization_above_the_modes_exits_two(tmp_path, capsys, monkeypatch, n, fast):
    # --fast caps the regularization's 40 at 16, still above the sampler's 12
    import sinhgordon.correlations as corr
    monkeypatch.setattr(corr, "stream_paths", lambda *a, **k: pytest.fail("paths sampled"))
    cfg = base_config("vertex", {"alpha": 0.5, "method": "both"},
                      gmc={"regularization": {"kind": "fourier", "n": n}, "theta_cells": 32})
    out = tmp_path / "o"
    assert run(write_config(tmp_path, cfg), fast=fast, out_dir=str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: vertex gmc.regularization.n 16 exceeds 12 (sampler.n_modes)"]
    assert not out.exists()


def test_scipy_stays_off_the_import_path():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, sinhgordon.runner; print('scipy' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


_ESTIMATOR_MODULES = [f"sinhgordon.{name}" for name in
                      ("correlations", "gmc", "propagator", "smc", "spectral", "lz")]


def _loaded_in_subprocess(code, names, cwd=None):
    """Which of ``names`` are in sys.modules after ``code`` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    script = (f"import json, sys\n{code}\n"
              f"print(json.dumps(sorted(n for n in {names!r} if n in sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_runner_import_leaves_the_estimators_and_stdlib_extras_unloaded():
    # the runner loads only what parsing, dispatch and writing need; numpy
    # itself may load ``platform``, so only what the runner adds is counted
    names = [*_ESTIMATOR_MODULES, "concurrent.futures", "traceback", "platform"]
    by_numpy = _loaded_in_subprocess("import numpy", names)
    assert set(_loaded_in_subprocess("import sinhgordon.runner", names)) <= set(by_numpy)
    assert set(by_numpy) <= {"platform"}


def test_validate_run_loads_no_estimator_module(tmp_path):
    path = write_config(tmp_path, base_config("validate"))
    code = ("from sinhgordon.runner import run\n"
            f"assert run({path!r}, fast=True, out_dir='out') == 0")
    assert _loaded_in_subprocess(code, _ESTIMATOR_MODULES, cwd=tmp_path) == []
    manifest = json.loads((tmp_path / "out" / "validate" / "manifest.json").read_text())
    assert manifest["python"] == platform.python_version()


def test_plain_vertex_run_leaves_smc_unloaded(tmp_path):
    # correlations imports smc only in its particle branches
    path = write_config(tmp_path, base_config("vertex", {"alpha": 0.5, "method": "both"}))
    code = ("from sinhgordon.runner import run\n"
            f"assert run({path!r}, fast=True, out_dir='out') == 0")
    loaded = _loaded_in_subprocess(code, _ESTIMATOR_MODULES, cwd=tmp_path)
    assert "sinhgordon.correlations" in loaded and "sinhgordon.smc" not in loaded


def test_threaded_vertex_run_leaves_the_executor_unloaded(tmp_path):
    # map_chunks runs its pool on plain threads
    path = write_config(tmp_path, base_config("vertex", {"alpha": 0.5, "method": "both"}))
    code = ("from sinhgordon.runner import run\n"
            f"assert run({path!r}, fast=True, workers=2, out_dir='out') == 0")
    assert _loaded_in_subprocess(code, ["concurrent.futures"], cwd=tmp_path) == []
    manifest = json.loads((tmp_path / "out" / "vertex" / "manifest.json").read_text())
    assert manifest["workers"] == 2


def test_package_import_loads_no_numpy():
    # the runner must be able to set the OpenBLAS thread count before numpy loads
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", "import sys, sinhgordon; "
                           "print('numpy' in sys.modules, 'scipy' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout.split() == ["False", "False"], proc.stderr


def test_package_names_resolve_to_their_modules():
    import importlib

    import sinhgordon
    for name in sinhgordon.__all__:
        value = getattr(sinhgordon, name)
        if name in sinhgordon._MODULES:
            assert value is importlib.import_module(f"sinhgordon.{name}")
        else:
            module = importlib.import_module(f"sinhgordon.{sinhgordon._ORIGIN[name]}")
            assert value is getattr(module, name), name
    assert set(sinhgordon.__all__) <= set(dir(sinhgordon))
    with pytest.raises(AttributeError, match="no_such_name"):
        sinhgordon.no_such_name


# Closed-form references that only the acceptance tests call, by design, and
# the two-sided one-point scaling check of criterion 11 (mc-vs-lz reads one side).
_ORACLES = {"covariance_oracle", "free_kernel", "mehler_factor", "feynman_kac",
            "feynman_kac_circle_potential", "lz_one_point_brute", "load_path",
            "scaling_one_point"}


def test_every_public_definition_has_a_caller():
    # a public top-level definition of the package must be named outside its
    # own body by the package (not ``__init__.py``), a script or perfbench.  A
    # name counts only where it resolves to its module: ``from .gmc import x``,
    # ``gmc.x`` through a module alias, ``sg.x`` through the package exports,
    # or a bare ``x`` in its own module
    import ast

    import sinhgordon

    root = Path(__file__).parents[1]
    modules = {p.stem: p for p in sorted((root / "src" / "sinhgordon").glob("*.py"))
               if p.name != "__init__.py"}
    trees = {p: ast.parse(p.read_text()) for p in
             [*modules.values(), *(root / "scripts").glob("*.py"),
              *(root / "perfbench").glob("*.py")]}

    def resolved(module, name):
        # the package ("") exports each name of _EXPORTS from its module
        return (sinhgordon._ORIGIN.get(name, ""), name) if module == "" else (module, name)

    def references(tree):
        """The (module, name) pairs a file names through an import or a module alias."""
        aliases, found = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.partition(".")[0] == "sinhgordon":
                        aliases[a.asname or "sinhgordon"] = (a.name.partition(".")[2]
                                                             if a.asname else "")
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    module = node.module or ""
                elif (node.module or "").partition(".")[0] == "sinhgordon":
                    module = node.module.partition(".")[2]
                else:
                    continue
                for a in node.names:
                    if module == "" and a.name in sinhgordon._MODULES:
                        aliases[a.asname or a.name] = a.name
                    else:
                        found.add(resolved(module, a.name))

        def module_of(expr):
            if isinstance(expr, ast.Name):
                return aliases.get(expr.id)
            if (isinstance(expr, ast.Attribute) and module_of(expr.value) == ""
                    and expr.attr in sinhgordon._MODULES):
                return expr.attr
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and module_of(node.value) is not None:
                found.add(resolved(module_of(node.value), node.attr))
        return found

    def bare_names(tree, skip):
        found, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if isinstance(node, ast.Name):
                found.add(node.id)
            stack.extend(ast.iter_child_nodes(node))
        return found

    referenced = set().union(*(references(tree) for tree in trees.values()))
    unused = []
    for module, path in modules.items():
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                if (not name.startswith("_") and name not in _ORACLES
                        and (module, name) not in referenced
                        and name not in bare_names(trees[path], node)):
                    unused.append(f"{module}:{name}")
    assert unused == []


def test_vertex_both_streams_each_chunk_once(tmp_path, monkeypatch):
    import sinhgordon.correlations as corr
    calls = []
    real = corr.stream_paths

    def counted(rng, n_paths, *args, **kwargs):
        calls.append(n_paths)
        return real(rng, n_paths, *args, **kwargs)

    monkeypatch.setattr(corr, "stream_paths", counted)
    path = write_config(tmp_path, base_config("vertex", {"alpha": 0.5, "method": "both"},
                                              n_samples=600))
    assert run(path, out_dir=str(tmp_path / "out"), workers=2) == 0
    assert sorted(calls) == [88, 256, 256]
    recs = read_records(tmp_path / "out", "vertex")
    assert [r["method"] for r in recs] == ["direct", "girsanov"]
    assert recs[0]["wall_ms"] == recs[1]["wall_ms"]


def test_mc_vs_lz_runs_one_flow_per_radius(tmp_path, monkeypatch):
    # the report reads only the rescaled side, so no R runs the second flow
    import sinhgordon.correlations as corr
    calls = []
    real = corr._register_columns

    def counted(*args, **kwargs):
        calls.append(kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(corr, "_register_columns", counted)
    path = write_config(tmp_path, base_config("mc-vs-lz", {"alpha": 0.5, "R_values": [1, 2]},
                                              n_samples=300))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Records pinned across refactors
# ---------------------------------------------------------------------------

# Records (without wall_ms) of these configs at --fast and seed 5, written when
# every draw moved to the SFC64 generator and the two-point pairs to their
# rotation images.  A change that keeps the draw order must reproduce them to
# 1e-12 relative: re-associated sums and products move them by a few ulps.
# gap-fit and lz sample nothing: their pins hold the deterministic paths and
# the record envelope.
PINNED = json.loads((Path(__file__).parent / "pinned_records.json").read_text())
PINNED_CONFIGS = {
    "vertex": ({"alpha": 0.5, "method": "both"}, 400),
    "partition": ({"T_list": [0.5, 0.75]}, 600),
    "gmc-mass": ({"t_min": 0.0, "t_max": 0.5}, 700),
    "lambda0": ({"T_list": [0.5, 0.75, 1.0]}, 1200),
    "validate": ({}, 3000),
    "two-point": ({"alpha1": 0.5, "separations": [0.25, 0.5, 0.75]}, 600),
    "mc-vs-lz": ({"alpha": 0.5, "R_values": [1.0, 2.0]}, 600),
    "gap-fit": ({"separations": [0.5, 1.0, 1.5], "covariances": [0.26, 0.136, 0.071],
                 "std_errors": [0.01, 0.008, 0.005]}, 400),
    "lz": ({"alpha": 0.5}, 400),
}


def _assert_same_record(got, want, where):
    if isinstance(want, dict):
        assert set(got) == set(want), where
        for key in want:
            _assert_same_record(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_record(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where
    else:
        assert got == want, where


@pytest.mark.parametrize("experiment", sorted(PINNED_CONFIGS))
def test_records_match_pinned(tmp_path, experiment):
    options, n_samples = PINNED_CONFIGS[experiment]
    path = write_config(tmp_path, base_config(experiment, options, n_samples=n_samples))
    assert run(path, out_dir=str(tmp_path / "out"), fast=True) == 0
    got = [{k: v for k, v in rec.items() if k != "wall_ms"}
           for rec in read_records(tmp_path / "out", experiment)]
    _assert_same_record(got, PINNED[experiment], experiment)


# ---------------------------------------------------------------------------
# The record envelope
# ---------------------------------------------------------------------------

def _fingerprints(tmp_path, name, raw):
    """The set of record fingerprints of one --fast run of ``raw``, and its manifest's."""
    out = tmp_path / name
    assert run(write_config(tmp_path, raw, f"{name}.json"), fast=True, out_dir=str(out)) == 0
    experiment = raw["experiment"]["name"]
    manifest = json.loads((out / experiment / "manifest.json").read_text())
    return {rec["fingerprint"] for rec in read_records(out, experiment)}, manifest["fingerprint"]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_spelled_out_default_options_hash_like_omitted_ones(experiment):
    # the fingerprint names the run, not the config text: options at their
    # defaults, written or left out, give one raw() and one fingerprint
    defaults = {key: default for key, (_, default, *_) in OPTIONS[experiment].items()
                if default is not None}
    terse, spelled = (parse_config(base_config(experiment, options))
                      for options in ({}, defaults))
    assert terse.raw() == spelled.raw()
    assert params_fingerprint(terse.raw()) == params_fingerprint(spelled.raw())


@pytest.mark.parametrize("experiment, options, option", [
    ("vertex", {"alpha": 0.5, "method": "both"}, ("alpha", 0.25)),
    ("moments", {"p": 1.0, "t_min": 0.0, "t_max": 0.5}, ("p", 2.0)),
    ("gmc-mass", {"t_min": 0.0, "t_max": 0.5}, ("t_max", 0.25)),
], ids=["vertex", "moments", "gmc-mass"])
def test_record_fingerprint_names_the_run(tmp_path, experiment, options, option):
    # two runs that differ in one discretization, sampling or experiment
    # setting write different fingerprints, and every record carries its
    # run's manifest fingerprint
    base = base_config(experiment, options, n_samples=300)
    variants = {"base": base}
    for block, key, value in [("sampler", "dt", 1 / 16), ("sampler", "n_modes", 16),
                              ("gmc", "theta_cells", 16), ("estimator", "n_samples", 256),
                              ("estimator", "seed", 6)]:
        raw = json.loads(json.dumps(base))
        raw[block][key] = value
        variants[f"{block}.{key}"] = raw
    raw = json.loads(json.dumps(base))
    raw["experiment"]["options"][option[0]] = option[1]
    variants[f"option.{option[0]}"] = raw
    seen = {}
    for name, raw in variants.items():
        records, manifest = _fingerprints(tmp_path, name, raw)
        assert records == {manifest}, name
        seen[name] = manifest
    assert len(set(seen.values())) == len(seen), seen


# A small run of every experiment: the pinned configs, and the others here.
_SMALL_RUNS = {**PINNED_CONFIGS,
               "sample": ({"c": 0.5}, 300),
               "moments": ({"p": 1.0, "t_min": 0.0, "t_max": 0.5}, 300),
               "scaling-check": ({"t_min": 0.0, "t_max": 0.5}, 300),
               "ground-state": ({"T": 0.5, "bins_c": 4, "bins_x": 2}, 300)}


@pytest.mark.parametrize("experiment, options, n_samples, fails", [
    *[(e, *_SMALL_RUNS[e], False) for e in EXPERIMENTS],
    ("vertex", {"alpha": 0.5, "n_list": [4, 8, 12]}, 300, False),
    ("lz", {}, 300, True),
], ids=[*EXPERIMENTS, "vertex-refinement", "failed"])
def test_every_record_carries_the_envelope(tmp_path, monkeypatch, experiment, options,
                                           n_samples, fails):
    if fails:
        def broken(cfg, out, workers):
            raise RuntimeError("broken")
        monkeypatch.setitem(runner._DISPATCH, experiment, broken)
    raw = base_config(experiment, options, n_samples=n_samples)
    out = tmp_path / "out"
    assert run(write_config(tmp_path, raw), fast=True, out_dir=str(out)) == (1 if fails else 0)
    manifest = json.loads((out / experiment / "manifest.json").read_text())
    records = read_records(out, experiment)
    assert records and all(rec.get("status") == "failed" for rec in records) == fails
    for rec in records:
        assert (rec["fingerprint"], rec["seed"], rec["n_samples"]) == (
            manifest["fingerprint"], 5, min(n_samples, 1000))


def test_validate_streams_the_sampled_paths(tmp_path):
    # the panel steps from probe row to probe row (0.25 apart) in replica
    # chunks; its covariances must equal the ones reduced from the stored
    # paths of sample_path_batch on that grid, from the seed_chunks children of
    # the seed: per chunk the sums of f1, f2, f1·f2 and (f1·f2)², added chunk
    # after chunk in chunk order
    from sinhgordon.gff import TimeGrid, fluctuation_grid, sample_path_batch
    from sinhgordon.parallel import generator, seed_chunks

    n, seed = 600, 11
    path = write_config(tmp_path, base_config("validate", n_samples=n, seed=seed))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    recs = [r for r in read_records(tmp_path / "out", "validate") if "probe" in r]
    grid = TimeGrid(0.25, 4)
    chunks = seed_chunks(seed, n, runner.CHUNK)
    assert [size for _, size in chunks] == [256, 256, 88]
    paths = [sample_path_batch(generator(child), size, 12, grid)
             for child, size in chunks]

    def field(chunk_paths, t, th):
        _, xs, ys = chunk_paths
        k = grid.index_of(t)
        return fluctuation_grid(xs[:, k, :], ys[:, k, :], np.array([th]))[:, 0]

    assert len(recs) == 5
    for rec in recs:
        (t1, th1), (t2, th2) = rec["probe"]
        s1 = s2 = s12 = s_sq = 0.0
        for chunk_paths in paths:
            f1, f2 = field(chunk_paths, t1, th1), field(chunk_paths, t2, th2)
            prod = f1 * f2
            s1, s2 = s1 + f1.sum(), s2 + f2.sum()
            s12, s_sq = s12 + prod.sum(), s_sq + (prod * prod).sum()
        m1, m2, m12, m_sq = s1 / n, s2 / n, s12 / n, s_sq / n
        assert rec["empirical"] == float(m12 - m1 * m2)
        assert rec["std_error"] == float(np.sqrt(m_sq - m12 * m12) / np.sqrt(n))


def test_validate_records_do_not_depend_on_workers(tmp_path):
    r1, r2 = _records_at_one_and_two_workers(tmp_path, "validate", {}, 700)
    assert len(r1) == 6 and r1[-1]["status"] == "pass"
    assert r1 == r2


@pytest.mark.parametrize("n_samples", [300, 2000])
def test_validate_streams_in_bounded_chunks(tmp_path, monkeypatch, n_samples):
    # the panel never steps more than one chunk of paths at a time, however
    # many samples it is asked for, and covers every sample once; each chunk
    # reduces its probe fields before it returns, so the joined arrays hold
    # one row per chunk, never one row per sample
    batches, stream_paths = [], runner.stream_paths
    joined, map_replicas = [], runner.map_replicas

    def counting(rng, n_paths, *args):
        batches.append(n_paths)
        return stream_paths(rng, n_paths, *args)

    def capturing(*args, **kwargs):
        joined.append(map_replicas(*args, **kwargs))
        return joined[-1]

    monkeypatch.setattr(runner, "stream_paths", counting)
    monkeypatch.setattr(runner, "map_replicas", capturing)
    path = write_config(tmp_path, base_config("validate", n_samples=n_samples))
    assert run(path, out_dir=str(tmp_path / "out")) == 0
    assert max(batches) <= runner.CHUNK
    assert sum(batches) == n_samples
    n_chunks = -(-n_samples // runner.CHUNK)
    assert len(joined) == 1 and joined[0]
    assert all(len(rows) == n_chunks < n_samples for rows in joined[0].values())

