import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sinhgordon as sg
from sinhgordon import gff
from sinhgordon.errors import (
    CoincidentPoints,
    EpsilonGridMismatch,
    GridSpanMismatch,
)
from sinhgordon.gff import (
    CircleAverage,
    CircleField,
    TimeGrid,
    dump_path,
    fluctuation_grid,
    load_path,
    ou_step,
    ou_step_coeffs,
    sample_path_batch,
    stream_paths,
    truncated_slice_cov,
)

from conftest import agree


# ---------------------------------------------------------------------------
# Exact transition algebra
# ---------------------------------------------------------------------------

@given(n=st.integers(1, 64), dt=st.sampled_from([1 / 64, 1 / 8, 1.0]))
def test_ou_half_step_composition(n, dt):
    dec, std = ou_step_coeffs(n, dt)
    dec_h, std_h = ou_step_coeffs(n, dt / 2)
    assert dec == pytest.approx(dec_h * dec_h, abs=1e-12)
    var_two = std_h ** 2 * dec_h ** 2 + std_h ** 2
    assert std ** 2 == pytest.approx(var_two, abs=1e-12)


@pytest.mark.parametrize("m", [2, 16])
def test_ou_coarse_step_is_the_composed_fine_steps(m):
    # one step of m*dt is m steps of dt in law: decay^m, and the m noises
    # carried forward, std^2 * sum_{j<m} decay^(2j)
    n = np.arange(1, 65)
    dec, std = ou_step_coeffs(n, 1 / 64)
    dec_m, std_m = ou_step_coeffs(n, m / 64)
    np.testing.assert_allclose(dec_m, dec ** m, rtol=0, atol=1e-12)
    composed = std ** 2 * sum(dec ** (2 * j) for j in range(m))
    np.testing.assert_allclose(std_m ** 2, composed, rtol=0, atol=1e-12)


def test_ou_stationary_variance_preserved(rng):
    dec, std = ou_step_coeffs(np.arange(1, 8), 0.37)
    assert np.allclose(dec ** 2 + std ** 2, 1.0, atol=1e-14)


def test_ou_step_is_the_exact_update_bit_for_bit(rng):
    # in place, the step equals x * decay + std * z drawn from the same
    # generator state in the order B, x, y
    dec, std = ou_step_coeffs(np.arange(1, 6), 0.1)
    sqrt_dt = math.sqrt(0.1)
    b0, x0, y0 = rng.standard_normal(7), rng.standard_normal((7, 5)), rng.standard_normal((7, 5))
    ref = np.random.default_rng(44)
    want = (b0 + sqrt_dt * ref.standard_normal(7),
            x0 * dec + std * ref.standard_normal((7, 5)),
            y0 * dec + std * ref.standard_normal((7, 5)))
    noise = np.empty((14, 5))
    b, modes = b0.copy(), np.concatenate([x0, y0])
    ou_step(np.random.default_rng(44), b, modes, dec, std, sqrt_dt, noise)
    for g, w in zip((b, *np.split(modes, 2)), want):
        assert np.array_equal(g, w)


def _unblocked_step(ref, b0, x0, y0, dec, std, sqrt_dt):
    """Reference step: one fill each for B, x and y from the generator ``ref``."""
    return (b0 + sqrt_dt * ref.standard_normal(b0.shape),
            x0 * dec + std * ref.standard_normal(x0.shape),
            y0 * dec + std * ref.standard_normal(y0.shape))


@pytest.mark.parametrize("n_paths, n_modes, rows", [(10, 5, 3), (1, 5, 1), (17, 3, 2)],
                         ids=["partial-last-block", "one-row", "brownian-in-pieces"])
def test_blocked_ou_step_is_the_unblocked_update_bit_for_bit(rng, n_paths, n_modes, rows):
    # a noise scratch of ``rows`` rows steps the 2R rows of x then y block by
    # block: 6.7 blocks, one of them across the x/y boundary, a single row,
    # and a Brownian part (17) longer than the scratch (6)
    dec, std = ou_step_coeffs(np.arange(1, n_modes + 1), 0.1)
    sqrt_dt = math.sqrt(0.1)
    b0 = rng.standard_normal(n_paths)
    x0, y0 = rng.standard_normal((2, n_paths, n_modes))
    want = _unblocked_step(np.random.default_rng(45), b0, x0, y0, dec, std, sqrt_dt)
    noise = np.empty((rows, n_modes))
    b, modes = b0.copy(), np.concatenate([x0, y0])
    ou_step(np.random.default_rng(45), b, modes, dec, std, sqrt_dt, noise)
    for g, w in zip((b, *np.split(modes, 2)), want):
        assert np.array_equal(g, w)


def _multi_block_batch(n_modes=64):
    """2.5 stepper blocks of rows at ``n_modes``: the last block is partial."""
    rows = gff._BLOCK_ELEMENTS // n_modes
    return 2 * rows + rows // 2


def test_stream_steps_multi_block_batches_bit_for_bit():
    # the real block size: the stream and the stored batch equal a reference
    # stepped with one fill per B, x and y
    n_paths, n_modes, grid = _multi_block_batch(), 64, TimeGrid(1 / 16, 3)
    ref = np.random.default_rng(9)
    want = [(np.zeros(n_paths), ref.standard_normal((n_paths, n_modes)),
             ref.standard_normal((n_paths, n_modes)))]
    dec, std = ou_step_coeffs(np.arange(1, n_modes + 1), grid.dt)
    for _ in range(grid.n_steps):
        want.append(_unblocked_step(ref, *want[-1], dec, std, math.sqrt(grid.dt)))
    stored = sample_path_batch(np.random.default_rng(9), n_paths, n_modes, grid)
    for k, bk, xk, yk in stream_paths(np.random.default_rng(9), n_paths, n_modes, grid):
        for got, w, s in zip((bk, xk, yk), want[k], stored):
            assert np.array_equal(got, w) and np.array_equal(s[:, k], w)


def test_stream_scratch_is_one_block():
    # beyond x and y the stream holds one noise block (1 MB), not a third
    # (R, N) array: 2.5 blocks of 64 modes peak below 2 R N 8 bytes + 2 MB
    n_paths, n_modes = _multi_block_batch(), 64
    tracemalloc.start()
    try:
        for _ in stream_paths(np.random.default_rng(2), n_paths, n_modes, TimeGrid(1 / 16, 4)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_paths * n_modes * 8 + 2 * 2 ** 20


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_circle_field_stationary_moments():
    field = sg.sample_circle_field(2, "stationary", seed=1)
    assert field.n_modes == 2
    rng = np.random.default_rng(7)
    draws = rng.standard_normal((200000, 2))
    assert abs(draws[:, 0].var() - 1.0) < 0.02  # sanity anchor for the scale below

    fields = [sg.sample_circle_field(2, "stationary", seed=s) for s in range(5000)]
    x1 = np.array([f.xs[0] for f in fields])
    assert abs(x1.var() - 1.0) < 5.0 / math.sqrt(len(x1))


def test_sample_circle_field_fixed_zero():
    field = sg.CircleField(0.0, np.zeros(4), np.zeros(4))
    for theta in (0.0, 1.0, 2.5):
        assert fluctuation_grid(field.xs, field.ys, np.array([theta]))[0] == 0.0


def test_circle_covariance_at_pi():
    # empirical E[phi(0) phi(pi)] for the N-mode field against the truncated kernel
    rng = np.random.default_rng(11)
    n = 60000
    xs = rng.standard_normal((n, 64))
    ys = rng.standard_normal((n, 64))
    f0 = fluctuation_grid(xs, ys, np.array([0.0]))[:, 0]
    fpi = fluctuation_grid(xs, ys, np.array([np.pi]))[:, 0]
    emp = float(np.mean(f0 * fpi))
    se = float(np.std(f0 * fpi) / math.sqrt(n))
    target = float(truncated_slice_cov(64, 0.0, np.pi))
    assert agree(emp, se, target, 0.0)
    assert abs(target - (-math.log(2.0))) < 1.0 / 64  # truncation tail only


def test_evolve_path_deterministic(unit_params):
    init = sg.sample_circle_field(8, "stationary", seed=3)
    grid = TimeGrid(1 / 16, 8)
    a = sg.evolve_path(init, 0.5, grid, seed=12)
    b = sg.evolve_path(init, 0.5, grid, seed=12)
    assert np.array_equal(a.brownian, b.brownian)
    assert np.array_equal(a.mode_x, b.mode_x)
    assert np.array_equal(a.mode_y, b.mode_y)
    assert a.brownian[0] == 0.0
    assert np.array_equal(a.mode_x[0], init.xs)


def test_evolve_transition_moments_from_zero():
    # from a zero start the mode covariance is e^{-n|t-s|} - e^{-n(t+s)}
    rng = np.random.default_rng(5)
    grid = TimeGrid(1 / 8, 8)
    n_paths = 40000
    zeros = np.zeros(3)
    _, xs, _ = sample_path_batch(rng, n_paths, 3, grid,
                                 initial=CircleField(0.0, zeros, zeros))
    t_a, t_b, n = 4, 8, 2  # times 0.5 and 1.0, mode index 2
    emp = float(np.mean(xs[:, t_a, n - 1] * xs[:, t_b, n - 1]))
    se = float(np.std(xs[:, t_a, n - 1] * xs[:, t_b, n - 1]) / math.sqrt(n_paths))
    target = math.exp(-n * 0.5) - math.exp(-n * 1.5)
    assert agree(emp, se, target, 0.0)


def test_stationary_marginal_stays_standard_normal():
    rng = np.random.default_rng(6)
    grid = TimeGrid(1 / 8, 16)
    b, xs, ys = sample_path_batch(rng, 30000, 4, grid)
    for k in (4, 16):
        v = xs[:, k, 0].var()
        assert abs(v - 1.0) < 4 * math.sqrt(2.0 / 30000)


def test_empty_grid_rejected():
    with pytest.raises(Exception):
        TimeGrid(1 / 8, 0)


@pytest.mark.parametrize("span, dt", [(1.0, 1 / 32), (1.5, 1 / 16), (0.375, 1 / 8),
                                      (3.0, 0.0625), (1.0, 0.1)])
def test_spanning_grid_of_an_on_grid_span(span, dt):
    grid = TimeGrid.spanning(span, dt)
    assert (grid.dt, grid.n_steps) == (dt, round(span / dt))
    assert grid.index_of(span) == grid.n_steps


def test_off_grid_span_and_time_raise_grid_span_mismatch():
    with pytest.raises(GridSpanMismatch, match="not a multiple of dt"):
        TimeGrid.spanning(1.02, 1 / 32)
    grid = TimeGrid.spanning(1.0, 1 / 32)
    with pytest.raises(GridSpanMismatch, match="not on the grid"):
        grid.index_of(0.51)
    with pytest.raises(GridSpanMismatch):  # a time beyond the span is not a node either
        grid.index_of(1.5)


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------

def test_eval_field_covariance_probe():
    # Cov(eval(0,0), eval(1,0)) with stationary start equals the slice kernel
    # (the Brownian part contributes min(0,1)=0).
    rng = np.random.default_rng(13)
    grid = TimeGrid(1 / 16, 16)
    n = 60000
    b, xs, ys = sample_path_batch(rng, n, 64, grid)
    f0 = fluctuation_grid(xs[:, 0, :], ys[:, 0, :], np.array([0.0]))[:, 0] + b[:, 0]
    f1 = fluctuation_grid(xs[:, 16, :], ys[:, 16, :], np.array([0.0]))[:, 0] + b[:, 16]
    emp = float(np.mean(f0 * f1) - np.mean(f0) * np.mean(f1))
    se = float(np.std(f0 * f1) / math.sqrt(n))
    target = sg.covariance_oracle("slice", 0.0, 0.0, 1.0, 0.0)
    assert target == pytest.approx(0.458675, abs=1e-6)
    assert agree(emp, se, target, 0.0, slack=0.01)


# ---------------------------------------------------------------------------
# Harmonic extension
# ---------------------------------------------------------------------------

def test_harmonic_extension_variance():
    rng = np.random.default_rng(3)
    n = 60000
    xs = rng.standard_normal((n, 64))
    ys = rng.standard_normal((n, 64))
    nvec = np.arange(1, 65)
    damp = np.exp(-nvec * 1.0)
    vals = (xs * damp / np.sqrt(nvec)).sum(axis=1)  # theta = 0
    emp = float(vals.var())
    se = float(np.std(vals ** 2) / math.sqrt(n))
    target = sg.covariance_oracle("harmonic", 1.0, 0.0, 1.0, 0.0)
    assert target == pytest.approx(0.145413, abs=1e-6)
    assert agree(emp, se, target, 0.0)


# ---------------------------------------------------------------------------
# Covariance oracle
# ---------------------------------------------------------------------------

def test_oracle_values():
    assert sg.covariance_oracle("slice", 0, 0, 0, np.pi) == pytest.approx(math.log(0.5), rel=1e-12)
    assert sg.covariance_oracle("harmonic", 1, 0, 1, 0) == pytest.approx(-math.log1p(-math.exp(-2)), rel=1e-12)


def test_oracle_regular_part_at_equal_times():
    # dirichletY minus slice at t=t2=1, equal angles: the log singularities and
    # the min(t,t2) term cancel against the +1, leaving log(1-e^{-2}).
    for delta in (1e-3, 1e-6, 1e-9):
        y = sg.covariance_oracle("dirichletY", 1.0, delta, 1.0, 0.0)
        s = sg.covariance_oracle("slice", 1.0, delta, 1.0, 0.0)
        h = sg.covariance_oracle("harmonic", 1.0, delta, 1.0, 0.0)
        assert y - s == pytest.approx(-h, abs=1e-10)
    y = sg.covariance_oracle("dirichletY", 1.0, 1e-9, 1.0, 0.0)
    s = sg.covariance_oracle("slice", 1.0, 1e-9, 1.0, 0.0)
    assert y - s == pytest.approx(math.log1p(-math.exp(-2.0)), abs=1e-9)
    assert math.log1p(-math.exp(-2.0)) == pytest.approx(-0.145413, abs=1e-6)


def test_oracle_decomposition_identity():
    # slice = dirichletY + harmonic at non-coincident points
    pts = [(0.2, 0.3, 1.1, 2.0), (0.0, 0.0, 0.7, 0.1), (1.5, 2.0, 0.4, 5.0)]
    for t, th, t2, th2 in pts:
        s = sg.covariance_oracle("slice", t, th, t2, th2)
        y = sg.covariance_oracle("dirichletY", t, th, t2, th2)
        h = sg.covariance_oracle("harmonic", t, th, t2, th2)
        assert s == pytest.approx(y + h, abs=1e-12)


@given(t=st.floats(0, 3), th=st.floats(0, 2 * math.pi), t2=st.floats(0, 3),
       th2=st.floats(0, 2 * math.pi))
@settings(max_examples=60)
def test_oracle_symmetry(t, th, t2, th2):
    for kind in ("slice", "dirichletY", "harmonic"):
        try:
            a = sg.covariance_oracle(kind, t, th, t2, th2)
        except CoincidentPoints:
            continue
        assert a == pytest.approx(sg.covariance_oracle(kind, t2, th2, t, th), rel=1e-12)


def test_oracle_coincident_rejected():
    with pytest.raises(CoincidentPoints):
        sg.covariance_oracle("slice", 1.0, 0.5, 1.0, 0.5)
    with pytest.raises(CoincidentPoints):
        sg.covariance_oracle("dirichletY", 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(CoincidentPoints):
        sg.covariance_oracle("harmonic", 0.0, 0.0, 0.0, 0.0)


def test_dirichlet_y_from_paths():
    # subtracting the harmonic extension of the start isolates the zero-boundary part
    rng = np.random.default_rng(17)
    grid = TimeGrid(1 / 16, 16)
    n = 50000
    b, xs, ys = sample_path_batch(rng, n, 64, grid)
    nvec = np.arange(1, 65)

    def y_at(k, t):
        damp = np.exp(-nvec * t)
        harm = ((xs[:, 0, :] * damp) / np.sqrt(nvec)).sum(axis=1)
        return fluctuation_grid(xs[:, k, :], ys[:, k, :], np.array([0.0]))[:, 0] - harm

    y1 = y_at(16, 1.0)
    y2 = y_at(8, 0.5)
    emp = float(np.mean(y1 * y2))
    se = float(np.std(y1 * y2) / math.sqrt(n))
    target = sg.covariance_oracle("dirichletY", 1.0, 0.0, 0.5, 0.0)
    assert agree(emp, se, target, 0.0, slack=0.01)


# ---------------------------------------------------------------------------
# Circle average
# ---------------------------------------------------------------------------

def test_circle_average_epsilon_must_fit_grid():
    with pytest.raises(EpsilonGridMismatch):
        CircleAverage(0.013, 1 / 16)


def test_circle_average_zero_path():
    zeros = np.zeros((3, 8))
    ax, ay = CircleAverage(1 / 8, 1 / 16).modes(lambda r: (zeros, zeros), 16)
    assert not ax.any() and not ay.any()


def test_circle_average_small_radius_limit():
    # frozen-in-time field: average -> point value as epsilon shrinks, O(eps^2)
    init = sg.sample_circle_field(6, "stationary", seed=9)
    point = fluctuation_grid(init.xs, init.ys, np.array([0.0]))[0]
    errs = []
    for eps in (1 / 4, 1 / 8, 1 / 16):
        ax, ay = CircleAverage(eps, 1 / 256).modes(lambda r: (init.xs, init.ys), 256)
        errs.append(abs(fluctuation_grid(ax, ay, np.array([0.0]))[0] - point))
    assert errs[2] < errs[0]
    assert errs[2] < 0.25 * errs[0] * 1.5  # roughly quadratic shrinkage


def test_circle_average_variance_tracks_log():
    # Var(phi^eps) - log(1/eps) shrinks as eps decreases
    rng = np.random.default_rng(23)
    grid = TimeGrid(1 / 64, 64)
    n = 12000
    b, xs, ys = sample_path_batch(rng, n, 64, grid)
    gaps = []
    for eps in (1 / 4, 1 / 8, 1 / 16):
        ax, ay = CircleAverage(eps, grid.dt).modes(lambda r: (xs[:, r], ys[:, r]), 32)
        vals = fluctuation_grid(ax, ay, np.array([0.0]))[:, 0]
        gaps.append(abs(vals.var() - math.log(1.0 / eps)))
    assert gaps[2] < gaps[0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_path_dump_round_trip():
    init = sg.sample_circle_field(6, "stationary", seed=4)
    path = sg.evolve_path(init, -0.7, TimeGrid(1 / 8, 12), seed=4)
    buf = io.BytesIO()
    dump_path(path, buf)
    buf.seek(0)
    back = load_path(buf)
    assert back.grid == path.grid
    assert np.array_equal(back.brownian, path.brownian)
    assert np.array_equal(back.mode_x, path.mode_x)
    assert np.array_equal(back.mode_y, path.mode_y)
    assert back.initial.zero_mode == path.initial.zero_mode
