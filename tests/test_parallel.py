"""The replica driver ``map_replicas``, OpenBLAS thread pinning around the
worker pool of ``map_chunks`` and around a whole ``runner.run``, and the
OpenBLAS thread count a CLI process starts at."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sinhgordon import runner
from sinhgordon.errors import ConfigError, SinhGordonError
from sinhgordon.parallel import (_BLAS, blas_threads, generator, map_chunks, map_replicas,
                                 seed_chunks)

from conftest import src_callers


def _columns(rng, size):
    return {"flat": rng.standard_normal(size), "wide": rng.standard_normal((size, 3)),
            "empty": np.zeros((size, 0)), "size": np.full(size, size)}


def test_map_replicas_is_the_same_at_any_worker_count():
    one = map_replicas(_columns, 17, 10, 4, workers=1)
    three = map_replicas(_columns, 17, 10, 4, workers=3)
    assert one.keys() == three.keys()
    for key in one:
        assert np.array_equal(one[key], three[key]), key


def test_map_replicas_joins_chunks_in_order():
    # 10 replicas in chunks of 4: the last chunk has 2, and chunk i draws from
    # the i-th child seed whichever worker ran it
    got = map_replicas(_columns, 17, 10, 4, workers=3)
    assert got["size"].tolist() == [4] * 4 + [4] * 4 + [2] * 2
    want = np.concatenate([generator(child).standard_normal(size)
                           for child, size in seed_chunks(17, 10, 4)])
    assert np.array_equal(got["flat"], want)


def test_map_replicas_joins_columns_along_the_first_axis():
    got = map_replicas(_columns, 17, 10, 4, workers=2)
    assert got["wide"].shape == (10, 3)
    assert got["empty"].shape == (10, 0)
    first = generator(seed_chunks(17, 10, 4)[0][0])
    first.standard_normal(4)
    assert np.array_equal(got["wide"][:4], first.standard_normal((4, 3)))


@pytest.fixture
def two_blas_threads():
    # the count before each test is 2 whatever the core count, so that a
    # pool that failed to pin or to restore is seen
    if _BLAS.threads() is None:
        pytest.skip("numpy has no bundled OpenBLAS to pin")
    saved = _BLAS.threads()
    _BLAS._funcs[1](2)
    yield 2
    _BLAS._funcs[1](saved)


def test_pool_runs_at_one_blas_thread_and_restores(two_blas_threads):
    seen = map_chunks(lambda c: _BLAS.threads(), range(4), workers=2)
    assert seen == [1, 1, 1, 1]
    assert _BLAS.threads() == two_blas_threads


def test_restored_when_a_chunk_raises(two_blas_threads):
    def fn(c):
        if c == 2:
            raise RuntimeError("chunk failed")
        return c

    with pytest.raises(RuntimeError, match="chunk failed"):
        map_chunks(fn, list(range(4)), workers=2)
    assert _BLAS.threads() == two_blas_threads


def test_the_lowest_failed_chunk_is_raised():
    # chunk 3 fails first; chunk 1, already running, fails after it: the error
    # raised is chunk 1's, as on the serial path, and no chunk starts after both
    three_failed = threading.Event()
    started = []

    def fn(c):
        started.append(c)
        if c == 1:
            assert three_failed.wait(timeout=60)
            raise ValueError("chunk 1")
        if c == 3:
            three_failed.set()
            raise ValueError("chunk 3")
        return c

    with pytest.raises(ValueError, match="chunk 1"):
        map_chunks(fn, list(range(8)), workers=2)
    assert sorted(started) == [0, 1, 2, 3]


@pytest.mark.parametrize("workers, chunks", [(1, 4), (2, 1)])
def test_serial_path_leaves_the_count(two_blas_threads, workers, chunks):
    seen = map_chunks(lambda c: _BLAS.threads(), list(range(chunks)), workers=workers)
    assert seen == [two_blas_threads] * chunks
    assert _BLAS.threads() == two_blas_threads


def test_blas_threads_reports_the_pool_count(two_blas_threads):
    assert blas_threads(1) == two_blas_threads
    assert blas_threads(2) == 1


def test_overlapping_pools_restore_the_count_once(two_blas_threads):
    # more pools than cores, switching often: a pool that restored the count
    # while another still ran would show a chunk at 2 threads or leave 1 behind
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    seen, errors = [], []

    def pool():
        try:
            seen.extend(map_chunks(lambda c: _BLAS.threads(), range(6), workers=3))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    try:
        threads = [threading.Thread(target=pool) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert seen == [1] * 36
    assert _BLAS.threads() == two_blas_threads


def _gap_fit_config(tmp_path):
    path = tmp_path / "gap-fit.json"
    path.write_text(json.dumps({
        "params": {"gamma": 1.0, "mu": 1.0, "radius": 1.0},
        "sampler": {"n_modes": 8, "dt": 0.125, "window": 0.5},
        "gmc": {"regularization": {"kind": "fourier", "n": 8}, "theta_cells": 16},
        "estimator": {"n_samples": 100, "seed": 1, "c_window": 8.0, "c_nodes": 17},
        "experiment": {"name": "gap-fit", "options": {
            "separations": [0.5, 1.0, 1.5, 2.0], "covariances": [0.3, 0.2, 0.12, 0.07],
            "std_errors": [1e-3] * 4}},
    }))
    return str(path)


class _CallerStop(Exception):
    """A caller's own exception, not one of the run's faults."""


@pytest.mark.parametrize("raised, code", [
    (None, 0), (ConfigError("bad option"), 2), (SinhGordonError("signal lost"), 1),
    (ZeroDivisionError("division by zero"), 1), (_CallerStop(), None),
], ids=["ok", "config-error", "package-error", "unexpected", "caller-exception"])
def test_run_holds_one_blas_thread_and_restores(two_blas_threads, tmp_path, monkeypatch,
                                                raised, code):
    experiment = runner._DISPATCH["gap-fit"]
    seen = []

    def dispatched(*args):
        seen.append(_BLAS.threads())
        if raised is not None:
            raise raised
        experiment(*args)

    monkeypatch.setitem(runner._DISPATCH, "gap-fit", dispatched)
    path = _gap_fit_config(tmp_path)
    if code is None:
        with pytest.raises(_CallerStop):
            runner.run(path, workers=1, out_dir=str(tmp_path / "out"))
    else:
        assert runner.run(path, workers=1, out_dir=str(tmp_path / "out")) == code
    assert seen == [1]
    assert _BLAS.threads() == two_blas_threads


def test_manifest_reports_the_count_the_run_used(two_blas_threads, tmp_path):
    path = _gap_fit_config(tmp_path)
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert runner.run(path, workers=workers, out_dir=str(out)) == 0
        manifest = json.loads((out / "gap-fit" / "manifest.json").read_text())
        assert (manifest["workers"], manifest["blas_threads"]) == (workers, 1)
    assert _BLAS.threads() == two_blas_threads


# A fresh interpreter's OpenBLAS thread count, printed after ``code`` runs.
_COUNT = "\nfrom sinhgordon.parallel import _BLAS\nprint(_BLAS.threads())"


def _in_a_new_process(args, **env):
    """Run ``python args`` with ``env`` in place of any OPENBLAS_NUM_THREADS."""
    if _BLAS.threads() is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full.update(env, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=full, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_a_cli_process_starts_at_one_blas_thread():
    # the runner asks for one thread before numpy loads, so no pool is started
    for code in ("import sinhgordon.runner", "from sinhgordon import runner"):
        assert _in_a_new_process(["-c", code + _COUNT]) == ["1"], code


def test_an_explicit_blas_thread_count_wins(tmp_path):
    if runner._usable_cores() < 2:
        pytest.skip("OpenBLAS caps the count at the usable cores")
    assert _in_a_new_process(["-c", "import sinhgordon.runner" + _COUNT],
                             OPENBLAS_NUM_THREADS="2") == ["2"]
    # and an experiment still runs at one thread
    _in_a_new_process(["-m", "sinhgordon", "--config", _gap_fit_config(tmp_path),
                       "--out-dir", str(tmp_path / "out")], OPENBLAS_NUM_THREADS="2")
    manifest = json.loads((tmp_path / "out" / "gap-fit" / "manifest.json").read_text())
    assert manifest["blas_threads"] == 1


def test_the_runner_leaves_a_loaded_blas_alone():
    # a library caller that loaded numpy first keeps its thread count
    code = "import numpy" + _COUNT + "\nimport sinhgordon.runner" + _COUNT
    before, after = _in_a_new_process(["-c", code])
    assert after == before


def test_only_map_replicas_and_single_path_draws_make_generators():
    # every replica draws through map_replicas (chunk i from the i-th child of
    # the seed); outside it, src/ makes a generator only for the single-path
    # draws of gff, and every generator is built by parallel.generator (SFC64).
    # A second replica rule or bit generator would make its own generator here
    assert src_callers("generator") == {("parallel", "map_replicas"),
                                        ("gff", "sample_circle_field"),
                                        ("gff", "evolve_path")}
    assert src_callers("default_rng") == set()
    assert src_callers("SFC64") == {("parallel", "generator")}


def test_vertex_insertions_have_one_reader():
    # the plain engine and the particle flow read their insertions through
    # gmc.VertexReads; outside it only the validate probes synthesize the field
    assert src_callers("fluctuation_grid") == {("gmc", "VertexReads"),
                                               ("runner", "_exp_validate")}


def test_slice_discretization_has_one_home():
    # every slice mass takes its theta nodes, cell width and renormalization
    # from the GmcSpec and cell count handed to gmc.SliceMass
    assert src_callers("theta_nodes") == {("gmc", "SliceMass")}
    assert src_callers("harmonic_number") == {("gmc", "GmcSpec")}


def test_time_stepping_has_one_kernel():
    # every sampled path is stepped by gff.ou_step inside the one stepper,
    # gff.stream_paths; a second stepping loop would call it from elsewhere
    assert src_callers("ou_step") == {("gff", "stream_paths")}


def test_generator_is_sfc64_of_the_seed_sequence():
    seq = np.random.SeedSequence(17, spawn_key=(3,))
    rng = generator(seq)
    assert isinstance(rng.bit_generator, np.random.SFC64)
    assert np.array_equal(rng.standard_normal(5), generator(seq).standard_normal(5))
    assert np.array_equal(generator(17).standard_normal(5),
                          generator(np.random.SeedSequence(17)).standard_normal(5))
