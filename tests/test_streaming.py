"""The streamed plain engine against stored-path references.

Every consumer of the slice stepper and the fused slice-mass kernel is
checked against a reference built here from the stored paths of
``sample_path_batch`` and the two-exp mass formula
e^{sigma gamma B} * sum_theta e^{sigma gamma phi - gamma^2 H / 2} * dtheta,
at the same seed, to 1e-12 relative.
"""

import math
import tracemalloc

import numpy as np
import pytest

import sinhgordon as sg
from sinhgordon import smc
from sinhgordon.correlations import ShiftData, _cylinder_engine, _entries_to_process
from sinhgordon.gff import CIRCLE_QUADRATURE_POINTS, TimeGrid, fluctuation_grid, \
    sample_path_batch, stream_paths
from sinhgordon.gmc import SliceMass, Trapezoid, circle_spec, fourier_spec, \
    harmonic_number, theta_nodes
from sinhgordon.parallel import CHUNK, generator, seed_chunks
from sinhgordon.propagator import capped_exp, default_c_quadrature, fk_damping, fk_weights
from sinhgordon.results import jackknife_func, jackknife_ratio, mean_and_se

REL = 1e-12
GAMMA = 1.0


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=REL, atol=0.0)


def trapezoid_weights(grid, t_min, t_max):
    """Trapezoid weights (K+1,) of [t_min, t_max] on the grid's rows; all 0 if t_min = t_max."""
    w = np.zeros(grid.n_steps + 1)
    ka, kb = grid.index_of(t_min), grid.index_of(t_max)
    if kb > ka:
        w[ka:kb + 1] = grid.dt
        w[ka] = w[kb] = grid.dt / 2.0
    return w


def two_exp_pair(brownian, fields, gamma, renorm, dtheta):
    """(S+, S-) with one exp per sign and cell, as before the fused kernel."""
    return tuple(np.exp(sigma * gamma * brownian)
                 * np.exp(sigma * gamma * fields - 0.5 * gamma * gamma * renorm).sum(axis=-1)
                 * dtheta for sigma in (+1, -1))


def point_circle_field(xs, ys, grid, k, thetas, spec):
    """Circle average at row k from point values of the stored field."""
    qp = CIRCLE_QUADRATURE_POINTS
    v = 2.0 * np.pi * (np.arange(qp) + 0.5) / qp
    offs = np.rint(spec.epsilon * np.cos(v) / grid.dt).astype(int)
    return sum(fluctuation_grid(xs[:, k + off], ys[:, k + off], thetas + ang)
               for off, ang in zip(offs, spec.epsilon * np.sin(v))) / qp


def test_stream_is_the_stored_batch_bit_for_bit():
    grid = TimeGrid(1 / 8, 6)
    init = sg.sample_circle_field(5, "stationary", seed=3)
    for initial in (None, init):
        b, xs, ys = sample_path_batch(np.random.default_rng(7), 9, 5, grid, initial=initial)
        for k, bk, x, y in stream_paths(np.random.default_rng(7), 9, 5, grid, initial):
            assert np.array_equal(bk, b[:, k])
            assert np.array_equal(x, xs[:, k]) and np.array_equal(y, ys[:, k])


def test_fused_kernel_matches_two_exp_formula():
    rng = np.random.default_rng(4)
    nodes, dth = theta_nodes(32)
    x, y, b = rng.standard_normal((6, 10)), rng.standard_normal((6, 10)), rng.standard_normal(6)
    s = rng.standard_normal(32)
    kernel = SliceMass(1.3, fourier_spec(+1, 8), 32)
    f = fluctuation_grid(x, y, nodes, 8)
    for got, want in zip(kernel(x, y, b), two_exp_pair(b, f, 1.3, harmonic_number(8), dth)):
        close(got, want)
    shifted = kernel.pair(b, (np.exp(1.3 * s), np.exp(-1.3 * s)))
    for got, want in zip(shifted, two_exp_pair(b, f + s, 1.3, harmonic_number(8), dth)):
        close(got, want)


@pytest.mark.parametrize("first", [0, 3])
def test_trapezoid_matches_weights_and_its_increments(first):
    grid = TimeGrid(1 / 16, 12)
    rng = np.random.default_rng(first)
    cols = rng.exponential(size=(2, grid.n_steps + 1, 5))   # two (R,) columns per row
    for end in range(first, grid.n_steps + 1):
        acc, steps = Trapezoid(grid.dt), []
        for k in range(first, end + 1):
            steps.append(acc.add(cols[0, k], cols[1, k]).step())
        w = trapezoid_weights(grid, first * grid.dt, end * grid.dt)
        for j, got in enumerate(acc.integral()):
            if end == first:
                assert np.array_equal(got, np.zeros(5))
            else:
                close(got, w @ cols[j])
            close(sum(s[j] for s in steps), got)
    # resampling between two rows: the increments of the permuted columns
    idx = rng.integers(0, 5, size=5)
    acc, ref = Trapezoid(grid.dt), Trapezoid(grid.dt)
    for k in range(first, first + 4):
        acc.add(cols[0, k])
        ref.add(cols[0, k][idx])
    acc.take(idx)
    assert np.array_equal(acc.step()[0], ref.step()[0])
    for k in range(first + 4, grid.n_steps + 1):
        assert np.array_equal(acc.add(cols[0, k]).step()[0], ref.add(cols[0, k]).step()[0])
    assert np.array_equal(acc.integral()[0], ref.integral()[0])


# ---------------------------------------------------------------------------
# Finite-cylinder engine: vertex (Fourier, circle, n_list), girsanov
# ---------------------------------------------------------------------------

def reference_engine(params, t_half, dt, n_modes, theta_cells, quad, n_samples, seed,
                     tasks):
    gamma, mu = params.gamma, params.mu_scaled
    grid = TimeGrid(dt, int(round(2 * t_half / dt)))
    nodes, dth = theta_nodes(theta_cells)
    cs, cw = quad.nodes()
    trap = trapezoid_weights(grid, 0.0, grid.span)
    den, nums = [], [[] for _ in tasks]
    for sub_seed, size in seed_chunks(seed, n_samples, CHUNK):
        b, xs, ys = sample_path_batch(generator(sub_seed), size, n_modes, grid)
        fields = fluctuation_grid(xs, ys, nodes)
        sp, sm = two_exp_pair(b, fields, gamma, harmonic_number(n_modes), dth)
        w = fk_weights((sp * trap).sum(-1), (sm * trap).sum(-1), cs, mu, gamma)
        den.append(w @ cw)
        for out, task in zip(nums, tasks):
            if task["kind"] == "girsanov":
                sh = task["shift"]
                s_grid = sh.total_grid(grid.times(), nodes)
                gp, gm = two_exp_pair(b, fields + s_grid, gamma, harmonic_number(n_modes), dth)
                wg = fk_weights((gp * trap).sum(-1), (gm * trap).sum(-1), cs, mu, gamma)
                total = sum(a for a, _, _ in sh.insertions)
                out.append(math.exp(sh.scalar_log()) * (wg @ (cw * np.exp(total * cs))))
                continue
            reg, log_v = task["reg"], np.zeros(size)
            for a, s_i, th_i in task["entries"]:
                k = grid.index_of(s_i)
                if reg.kind == "fourier":
                    val = fluctuation_grid(xs[:, k], ys[:, k], np.array([th_i]), reg.n_modes)
                else:
                    val = point_circle_field(xs, ys, grid, k, np.array([th_i]), reg)
                log_v += a * (b[:, k] + val[:, 0]) - 0.5 * a * a * reg.renorm_constant
            out.append(np.exp(log_v) * (w @ (cw * np.exp(task["total_alpha"] * cs))))
    return np.concatenate(den), [np.concatenate(n) for n in nums]


def test_engine_vertex_girsanov_and_n_list_match_reference(unit_params):
    quad = default_c_quadrature(GAMMA, n_nodes=17)
    entries = _entries_to_process(((0.5, 0.0, 0.3), (-0.25, 0.25, 2.0)), 0.5, 1 / 16)
    vertex = [{"kind": "vertex", "entries": entries, "total_alpha": 0.25, "reg": reg}
              for reg in (fourier_spec(+1, 16), fourier_spec(+1, 4), fourier_spec(+1, 8),
                          circle_spec(+1, 0.125))]
    tasks = vertex + [{"kind": "girsanov", "shift": ShiftData(entries, kernel=16)}]
    args = (unit_params, 0.5, 1 / 16, 16, 32, quad, 600, 41, tasks)  # chunks 256, 256, 88
    got = _cylinder_engine(*args, workers=2)
    den, nums = reference_engine(*args)
    close(got["den"], den)
    for g, r in zip(got["num"], nums):
        close(g, r)

    ins = sg.make_insertions([(0.5, 0.0, 0.3), (-0.25, 0.25, 2.0)], unit_params)
    res = sg.vertex_plain(ins, [("direct", None), ("direct", circle_spec(+1, 0.125)),
                                ("girsanov", None)], 0.5, unit_params, dt=1 / 16,
                          n_modes=16, theta_cells=32, quad=quad, n_samples=600, seed=41,
                          workers=2)
    for r, col in zip(res, (nums[0], nums[3], nums[4])):
        est, se = jackknife_ratio(col, den)
        close([r.mean, r.std_error], [est, se])


def test_mirrored_engine_matches_negated_reference(unit_params):
    quad = default_c_quadrature(GAMMA, n_nodes=17)
    entries = _entries_to_process(((0.5, 0.0, 0.3),), 0.5, 1 / 16)
    task = [{"kind": "vertex", "entries": entries, "total_alpha": 0.5,
             "reg": fourier_spec(+1, 16)}]
    neg = [{**task[0], "entries": ((-0.5, *entries[0][1:]),), "total_alpha": -0.5}]
    args = (unit_params, 0.5, 1 / 16, 16, 32, quad, 200, 43)
    mirrored = _cylinder_engine(*args, task, mirror=True)
    den, nums = reference_engine(*args, neg)
    close(mirrored["den"], den)
    close(mirrored["num"][0], nums[0])


# ---------------------------------------------------------------------------
# Partition curve, Feynman-Kac estimators, ground-state profile, region masses
# ---------------------------------------------------------------------------

def test_partition_curve_matches_reference(unit_params):
    quad = default_c_quadrature(GAMMA, n_nodes=17)
    spec = fourier_spec(+1, 12)
    pts = sg.partition_curve([0.25, 0.5], unit_params, quad, 1 / 16, spec, 600, 44,
                             theta_cells=32, workers=2)
    grid = TimeGrid(1 / 16, 16)
    nodes, dth = theta_nodes(32)
    cs, cw = quad.nodes()
    z = []
    for sub_seed, size in seed_chunks(44, 600, CHUNK):
        b, xs, ys = sample_path_batch(generator(sub_seed), size, 12, grid)
        sp, sm = two_exp_pair(b, fluctuation_grid(xs, ys, nodes), GAMMA,
                              harmonic_number(12), dth)
        cols = []
        for k_end in (8, 16):
            w = trapezoid_weights(grid, 0.0, k_end / 16)
            cols.append(fk_weights((sp * w).sum(-1), (sm * w).sum(-1), cs, 1.0, GAMMA) @ cw)
        z.append(np.stack(cols, axis=1))
    z = np.concatenate(z)
    for j, pt in enumerate(pts):
        close(pt.samples, z[:, j])
        close([pt.z, pt.log_z_se], [z[:, j].mean(),
                                    jackknife_func([z[:, j]], lambda s: np.log(s))[1]])


def obs(zero, x, y):
    return np.cos(zero) * np.tanh(x[:, 0]) + y[:, 1]


def test_feynman_kac_matches_reference(unit_params):
    init = sg.sample_circle_field(16, "stationary", seed=45)
    grid = TimeGrid(1 / 16, 16)  # longer than t: the stream stops at t
    spec = fourier_spec(+1, 12)
    res = sg.feynman_kac(obs, 0.75, (0.2, init), unit_params, grid, spec, 600, 46,
                         theta_cells=32, workers=2)
    nodes, dth = theta_nodes(32)
    w_t = trapezoid_weights(grid, 0.0, 0.75)
    vals = []
    for sub_seed, size in seed_chunks(46, 600, CHUNK):
        b, xs, ys = sample_path_batch(generator(sub_seed), size, 16, grid,
                                      initial=init)
        sp, sm = two_exp_pair(b, fluctuation_grid(xs, ys, nodes, 12), GAMMA,
                              harmonic_number(12), dth)
        w = fk_weights((sp * w_t).sum(-1), (sm * w_t).sum(-1), np.array([0.2]), 1.0, GAMMA)
        vals.append(obs(0.2 + b[:, 12], xs[:, 12], ys[:, 12]) * w[:, 0])
    vals = np.concatenate(vals)
    close([res.mean, res.std_error], mean_and_se(vals))


def test_feynman_kac_circle_potential_matches_reference(unit_params):
    init = sg.sample_circle_field(16, "stationary", seed=47)
    grid = TimeGrid(1 / 16, 12)
    res = sg.feynman_kac_circle_potential(obs, 0.75, (0.2, init), unit_params, grid, 10, 32,
                                          600, 48)
    nodes, dth = theta_nodes(32)
    w_t = trapezoid_weights(grid, 0.0, 0.75)
    vals = []
    for sub_seed, size in seed_chunks(48, 600, CHUNK):
        b, xs, ys = sample_path_batch(generator(sub_seed), size, 16, grid,
                                      initial=init)
        vp, vm = two_exp_pair(0.0, fluctuation_grid(xs, ys, nodes, 10), GAMMA,
                              harmonic_number(10), dth)
        integ = capped_exp(GAMMA * (0.2 + b)) * vp + capped_exp(-GAMMA * (0.2 + b)) * vm
        w = np.exp(-(integ * w_t).sum(-1))
        vals.append(obs(0.2 + b[:, 12], xs[:, 12], ys[:, 12]) * w)
    vals = np.concatenate(vals)
    close([res.mean, res.std_error], mean_and_se(vals))


def test_ground_state_profile_matches_reference(unit_params):
    quad = default_c_quadrature(GAMMA, n_nodes=17)
    prof = sg.ground_state_profile(0.5, unit_params, dt=1 / 16, n_modes=12, theta_cells=32,
                                   quad=quad, bins=(4, 3), n_samples=600, seed=49, workers=2)
    grid = TimeGrid(1 / 16, 8)
    nodes, dth = theta_nodes(32)
    trap = trapezoid_weights(grid, 0.0, 0.5)
    c, x1, w = [], [], []
    for sub_seed, size in seed_chunks(49, 600, CHUNK):
        rng = generator(sub_seed)
        cs = rng.uniform(quad.c_min, quad.c_max, size)
        b, xs, ys = sample_path_batch(rng, size, 12, grid)
        sp, sm = two_exp_pair(b, fluctuation_grid(xs, ys, nodes), GAMMA,
                              harmonic_number(12), dth)
        c.append(cs)
        x1.append(xs[:, 0, 0])
        w.append(fk_damping((sp * trap).sum(-1), (sm * trap).sum(-1), cs, 1.0, GAMMA))
    c, x1, w = map(np.concatenate, (c, x1, w))
    ci = np.clip(np.digitize(c, prof.c_edges) - 1, 0, 3)
    xi = np.clip(np.digitize(x1, prof.x_edges) - 1, 0, 2)
    values = np.array([[w[(ci == i) & (xi == j)].mean() for j in range(3)] for i in range(4)])
    assert prof.counts.min() > 1
    close(prof.values, values / values.sum())


@pytest.mark.parametrize("spec", [fourier_spec(-1, 12), circle_spec(+1, 0.125)],
                         ids=["fourier", "circle"])
def test_sample_region_masses_matches_reference(unit_params, spec):
    region = sg.Region(0.25, 0.75)
    got = sg.gmc.sample_region_masses(region, spec, unit_params, 1100, 50, dt=1 / 16,
                                      theta_cells=32)
    margin = spec.epsilon if spec.kind == "circle" else 0.0
    grid = TimeGrid(1 / 16, int(round((0.75 + margin) * 16)))
    nodes, dth = theta_nodes(32)
    weights = trapezoid_weights(grid, 0.25, 0.75)
    chunks = seed_chunks(50, 1100, CHUNK)
    assert [size for _, size in chunks] == [256, 256, 256, 256, 76]
    want = []
    for child, size in chunks:
        b, xs, ys = sample_path_batch(generator(child), size, spec.path_modes,
                                      grid)
        mass = np.zeros(size)
        for k in np.flatnonzero(weights):
            if spec.kind == "fourier":
                f = fluctuation_grid(xs[:, k], ys[:, k], nodes, spec.n_modes)
            else:
                f = point_circle_field(xs, ys, grid, k, nodes, spec)
            pair = two_exp_pair(b[:, k], f, GAMMA, spec.renorm_constant, dth)
            mass += weights[k] * pair[0 if spec.sigma > 0 else 1]
        want.append(mass)
    close(got, np.concatenate(want))


# ---------------------------------------------------------------------------
# SMC flow
# ---------------------------------------------------------------------------

class TwoExpMass(SliceMass):
    """Slice masses from the stored field with two exps per cell."""

    def __init__(self, gamma, spec, theta_cells):
        super().__init__(gamma, spec, theta_cells)
        self.renorm, self.dtheta = spec.renorm_constant, theta_nodes(theta_cells)[1]

    def _exponentiate(self):
        self.field = self.e.copy()
        return self

    def pair(self, brownian=0.0):
        return two_exp_pair(brownian, self.field, self.gamma, self.renorm, self.dtheta)


def test_smc_flow_with_shift_task_matches_two_exp_kernel(unit_params, monkeypatch):
    # the flow's normalizers and register means: fused kernel against the two-exp formula
    entries = ((0.5, 0.5, 0.0),)
    settings = smc.SmcSettings(n_particles=64, n_runs=3)
    args = (unit_params, [0.25, 0.5], 1 / 16, 12, 32, settings, 51)
    flows = [smc.smc_flow(*args, register_groups=[entries])]
    monkeypatch.setattr(smc, "SliceMass", TwoExpMass)
    flows.append(smc.smc_flow(*args, register_groups=[entries]))
    close(flows[0]["log_z"], flows[1]["log_z"])
    close(flows[0]["group_means"], flows[1]["group_means"])


# ---------------------------------------------------------------------------
# Memory of one engine chunk
# ---------------------------------------------------------------------------

def _chunk_peak(unit_params, n_steps):
    quad = default_c_quadrature(GAMMA)
    t_half = n_steps / 64.0
    entries = _entries_to_process(((0.5, 0.0, 0.0),), t_half, 1 / 32)
    tasks = [{"kind": "vertex", "entries": entries, "total_alpha": 0.5,
              "reg": fourier_spec(+1, 64)},
             {"kind": "girsanov", "shift": ShiftData(entries, kernel=64)}]
    tracemalloc.start()
    try:
        _cylinder_engine(unit_params, t_half, 1 / 32, 64, 128, quad, 256, 52, tasks)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_engine_chunk_memory_does_not_grow_with_steps(unit_params):
    _chunk_peak(unit_params, 32)  # first-call allocations are not the chunk's
    short, long = _chunk_peak(unit_params, 32), _chunk_peak(unit_params, 256)
    assert long <= 1.1 * short, (short, long)


def test_engine_chunk_holds_only_its_working_set(unit_params):
    # a 256-path chunk at 64 modes and 128 cells: the slice and the noise
    # block, the kernel's two (R, T) buffers and the (R, C) weights, no copied
    # slices and no third slice buffer
    _chunk_peak(unit_params, 32)
    assert _chunk_peak(unit_params, 32) <= 1.75 * 2**20
