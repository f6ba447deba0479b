import math

import numpy as np
import pytest
from scipy.integrate import quad as sp_quad

import sinhgordon as sg
from sinhgordon.errors import GridSpanMismatch, NonPositiveTime, TailTolNotMet
from sinhgordon.gff import TimeGrid
from sinhgordon.gmc import fourier_spec
from sinhgordon.propagator import mehler_factor, partition_curve, default_c_quadrature

from conftest import agree, src_callers


# ---------------------------------------------------------------------------
# Free kernel
# ---------------------------------------------------------------------------

def test_mehler_normalization_grid():
    for t in (0.1, 0.5, 1.0):
        for n in (1, 2, 8):
            s = t * n
            val, err = sp_quad(
                lambda xp: mehler_factor(s, 0.7, xp) * math.exp(-xp * xp / 2) / math.sqrt(2 * math.pi),
                -12, 12, limit=200)
            assert abs(val - 1.0) < 1e-8


def test_kernel_symmetry_exact():
    f1 = sg.sample_circle_field(16, "stationary", seed=1)
    f2 = sg.sample_circle_field(16, "stationary", seed=2)
    f1.zero_mode, f2.zero_mode = 0.4, -0.2
    a = sg.free_kernel(0.7, f1, f2, 16, tail_tol=1.0)
    b = sg.free_kernel(0.7, f2, f1, 16, tail_tol=1.0)
    assert a.value == b.value


def test_kernel_large_time_heat_limit():
    f1 = sg.sample_circle_field(16, "stationary", seed=1)
    f2 = sg.sample_circle_field(16, "stationary", seed=2)
    f1.zero_mode, f2.zero_mode = 0.4, -0.2
    k = sg.free_kernel(50.0, f1, f2, 16, tail_tol=1.0)
    ref = (2 * math.pi * 50) ** -0.5 * math.exp(-(0.4 + 0.2) ** 2 / 100.0)
    assert k.value == pytest.approx(ref, rel=1e-10)


def test_kernel_tail_bound_is_true_bound():
    f1 = sg.sample_circle_field(32, "stationary", seed=5)
    f2 = sg.sample_circle_field(32, "stationary", seed=6)
    for t in (0.5, 1.0):
        part = sg.free_kernel(t, f1, f2, 16, tail_tol=1e6)
        full = sg.free_kernel(t, f1, f2, 32, tail_tol=1e6)
        assert abs(part.value - full.value) <= part.tail_bound


def test_kernel_tail_tol_enforced():
    f1 = sg.sample_circle_field(64, "stationary", seed=7)
    f2 = sg.sample_circle_field(64, "stationary", seed=8)
    with pytest.raises(TailTolNotMet):
        sg.free_kernel(0.05, f1, f2, 2, tail_tol=1e-12)


def test_kernel_rejects_bad_time():
    f = sg.sample_circle_field(4, "stationary", seed=1)
    with pytest.raises(NonPositiveTime):
        sg.free_kernel(0.0, f, f, 4)


# ---------------------------------------------------------------------------
# Feynman-Kac estimators
# ---------------------------------------------------------------------------

def test_fk_free_weight_is_one():
    p = sg.validate_params(1.0, 1e-300, 1.0)  # mu ~ 0
    init = sg.sample_circle_field(8, "stationary", seed=3)
    grid = TimeGrid(1 / 8, 8)
    res = sg.feynman_kac(None, 1.0, (0.0, init), p, grid, fourier_spec(+1, 8), 64, 5)
    assert res.mean == pytest.approx(1.0, abs=1e-12)
    assert res.std_error == pytest.approx(0.0, abs=1e-12)


def test_fk_free_semigroup_matches_direct_average():
    # mu -> 0: matches the free evolution average of a bounded mode functional
    p = sg.validate_params(1.0, 1e-300, 1.0)
    init = sg.sample_circle_field(8, "stationary", seed=4)
    grid = TimeGrid(1 / 8, 8)

    def obs(zero, x, y):
        return np.tanh(x[:, 0])

    res = sg.feynman_kac(obs, 1.0, (0.0, init), p, grid, fourier_spec(+1, 8), 20000, 6)
    # direct: x_1(1) = x_1(0) e^{-1} + sqrt(1-e^{-2}) xi
    rng = np.random.default_rng(123)
    xi = rng.standard_normal(200000)
    direct = np.tanh(init.xs[0] * math.exp(-1.0) + math.sqrt(1 - math.exp(-2.0)) * xi)
    assert agree(res.mean, res.std_error, direct.mean(), direct.std() / math.sqrt(xi.size))


def test_fk_monotone_in_mu_per_sample():
    init = sg.sample_circle_field(8, "stationary", seed=9)
    grid = TimeGrid(1 / 8, 8)
    means = []
    for mu in (0.5, 2.0):
        p = sg.validate_params(1.0, mu, 1.0)
        res = sg.feynman_kac(None, 1.0, (0.0, init), p, grid, fourier_spec(+1, 8), 256, 77)
        means.append(res.mean)
    assert means[1] <= means[0]


def test_fk_weights_in_unit_interval():
    p = sg.validate_params(1.0, 1.0, 1.0)
    init = sg.sample_circle_field(8, "stationary", seed=10)
    grid = TimeGrid(1 / 8, 8)
    res = sg.feynman_kac(None, 1.0, (0.0, init), p, grid, fourier_spec(+1, 8), 512, 11)
    assert 0.0 < res.mean <= 1.0


def test_fk_circle_potential_identity_per_sample():
    # same truncation and theta grid: the time-integral weight coincides with
    # the two-dimensional mass weight sample by sample
    p = sg.validate_params(1.0, 1.0, 1.0)
    init = sg.sample_circle_field(24, "stationary", seed=12)
    grid = TimeGrid(1 / 16, 16)
    a = sg.feynman_kac(None, 1.0, (0.3, init), p, grid, fourier_spec(+1, 24), 512, 13,
                       theta_cells=64)
    b = sg.feynman_kac_circle_potential(None, 1.0, (0.3, init), p, grid, 24, 64, 512, 13)
    assert a.mean == pytest.approx(b.mean, rel=1e-12)


def test_fk_representation_cross_check_independent_seeds():
    p = sg.validate_params(1.0, 1.0, 1.0)
    init = sg.sample_circle_field(32, "stationary", seed=14)
    grid = TimeGrid(1 / 16, 16)
    a = sg.feynman_kac(None, 1.0, (0.0, init), p, grid, fourier_spec(+1, 32), 4000, 15,
                       theta_cells=64)
    b = sg.feynman_kac_circle_potential(None, 1.0, (0.0, init), p, grid, 32, 64, 4000, 16)
    assert agree(a.mean, a.std_error, b.mean, b.std_error)


def test_fk_grid_span_checked():
    p = sg.validate_params(1.0, 1.0, 1.0)
    init = sg.sample_circle_field(8, "stationary", seed=17)
    with pytest.raises(GridSpanMismatch):
        sg.feynman_kac(None, 2.0, (0.0, init), p, TimeGrid(1 / 8, 8),
                       fourier_spec(+1, 8), 16, 1)


def test_fk_semigroup_composition():
    # T_{t+s} against the nested estimate T_t(T_s F) with restarted inner paths
    p = sg.validate_params(1.0, 1.0, 1.0)
    init = sg.sample_circle_field(16, "stationary", seed=18)
    t = s = 0.5
    grid_full = TimeGrid(1 / 16, 16)
    grid_half = TimeGrid(1 / 16, 8)

    def obs(zero, x, y):
        return np.cos(zero) * np.tanh(x[:, 0])

    full = sg.feynman_kac(obs, 1.0, (0.2, init), p, grid_full, fourier_spec(+1, 16),
                          6000, 19, theta_cells=64)
    # nested: outer to t, then from each endpoint state one inner path to s
    from sinhgordon.gff import sample_path_batch, fluctuation_grid, CircleField
    from sinhgordon.gmc import theta_nodes, harmonic_number
    from sinhgordon.propagator import mass_pair_slices
    rng = np.random.default_rng(20)
    n_out = 6000
    nodes, dth = theta_nodes(64)
    trap = np.full(9, 1 / 16)
    trap[0] = trap[-1] = 1 / 32
    b1, x1, y1 = sample_path_batch(rng, n_out, 16, grid_half, initial=init)
    f1 = fluctuation_grid(x1, y1, nodes)
    sp1, sm1 = mass_pair_slices(b1, f1, 1.0, harmonic_number(16), dth)
    m1p = (sp1 * trap).sum(-1)
    m1m = (sm1 * trap).sum(-1)
    w1 = np.exp(-(np.exp(0.2) * m1p + np.exp(-0.2) * m1m))
    vals = np.empty(n_out)
    for i in range(n_out):
        start = CircleField(0.0, x1[i, -1, :], y1[i, -1, :])
        c_i = 0.2 + b1[i, -1]
        b2, x2, y2 = sample_path_batch(rng, 1, 16, grid_half, initial=start)
        f2 = fluctuation_grid(x2, y2, nodes)
        sp2, sm2 = mass_pair_slices(b2, f2, 1.0, harmonic_number(16), dth)
        m2p = (sp2 * trap).sum(-1)[0]
        m2m = (sm2 * trap).sum(-1)[0]
        w2 = math.exp(-(math.exp(c_i) * m2p + math.exp(-c_i) * m2m))
        o = obs(np.array([c_i + b2[0, -1]]), x2[:, -1, :], y2[:, -1, :])[0]
        vals[i] = w1[i] * w2 * o
    nested_mean = vals.mean()
    nested_se = vals.std() / math.sqrt(n_out)
    assert agree(full.mean, full.std_error, nested_mean, nested_se)


# ---------------------------------------------------------------------------
# Partition function
# ---------------------------------------------------------------------------

def test_partition_monotone_in_t_per_sample():
    p = sg.validate_params(1.0, 1.0, 1.0)
    quad = default_c_quadrature(1.0, n_nodes=33)
    pts = partition_curve([0.5, 1.0, 1.5], p, quad, 1 / 16, fourier_spec(+1, 24),
                          512, 21, theta_cells=64)
    z1, z2, z3 = (pt.samples for pt in pts)
    assert np.all(z2 <= z1) and np.all(z3 <= z2)


def test_partition_monotone_in_mu_per_sample():
    quad = default_c_quadrature(1.0, n_nodes=33)
    samples = []
    for mu in (1.0, 2.0):
        p = sg.validate_params(1.0, mu, 1.0)
        pts = partition_curve([0.75], p, quad, 1 / 16, fourier_spec(+1, 24),
                              512, 22, theta_cells=64)
        samples.append(pts[0].samples)
    assert np.all(samples[1] <= samples[0])


def test_partition_integrand_weight_bounded():
    p = sg.validate_params(1.0, 1.0, 1.0)
    quad = default_c_quadrature(1.0, n_nodes=17)
    pts = partition_curve([0.5], p, quad, 1 / 16, fourier_spec(+1, 16),
                          256, 23, theta_cells=64)
    width = quad.c_max - quad.c_min
    assert np.all(pts[0].samples <= width + 1e-12)


def test_only_default_c_quadrature_builds_a_zero_mode_window():
    # the window [-w/gamma, w/gamma] of every sampler, the plain quadrature
    # and the particle flows' uniform start, is written in one place
    assert src_callers("CQuadrature") == {("propagator", "default_c_quadrature")}
    quad = default_c_quadrature(0.5, n_nodes=9, half_width=6.0)
    assert (quad.c_min, quad.c_max, quad.n_nodes) == (-12.0, 12.0, 9)


def test_partition_boundary_diagnostic():
    p = sg.validate_params(1.0, 1.0, 1.0)
    pts = partition_curve([0.5], p, default_c_quadrature(1.0), 1 / 16,
                          fourier_spec(+1, 16), 256, 24, theta_cells=64)
    assert not pts[0].truncation_warning
    narrow = sg.CQuadrature(-1.0, 1.0, 9)
    pts2 = partition_curve([0.5], p, narrow, 1 / 16, fourier_spec(+1, 16),
                           256, 24, theta_cells=64)
    assert pts2[0].truncation_warning


def test_partition_c_symmetry():
    # field negation swaps the mass pair, so the +c and -c integrands agree in law
    p = sg.validate_params(1.0, 1.0, 1.0)
    from sinhgordon.gff import sample_path_batch, fluctuation_grid
    from sinhgordon.gmc import theta_nodes, harmonic_number
    from sinhgordon.propagator import mass_pair_slices, fk_weights
    rng = np.random.default_rng(25)
    grid = TimeGrid(1 / 16, 16)
    nodes, dth = theta_nodes(64)
    b, xs, ys = sample_path_batch(rng, 4000, 24, grid)
    f = fluctuation_grid(xs, ys, nodes)
    sp, sm = mass_pair_slices(b, f, 1.0, harmonic_number(24), dth)
    trap = np.full(17, 1 / 16)
    trap[0] = trap[-1] = 1 / 32
    mp = (sp * trap).sum(-1)
    mm = (sm * trap).sum(-1)
    w_plus = fk_weights(mp, mm, np.array([1.5]), 1.0, 1.0)[:, 0]
    w_minus = fk_weights(mp, mm, np.array([-1.5]), 1.0, 1.0)[:, 0]
    # per-sample identity on negated paths
    w_minus_neg = fk_weights(mm, mp, np.array([-1.5]), 1.0, 1.0)[:, 0]
    assert np.allclose(w_plus, w_minus_neg, rtol=1e-12)
    assert agree(w_plus.mean(), w_plus.std() / 63.2, w_minus.mean(), w_minus.std() / 63.2)
