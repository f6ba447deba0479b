import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sinhgordon as sg
from sinhgordon.errors import EmptyRegion, RegionOutsideGrid
from sinhgordon.gff import fluctuation_grid
from sinhgordon.gmc import (
    Region,
    SliceMass,
    circle_spec,
    expected_mass,
    fourier_spec,
    sample_region_masses,
    theta_nodes,
)

from conftest import agree


def test_harmonic_number_values():
    assert sg.harmonic_number(1) == 1.0
    assert sg.harmonic_number(2) == 1.5
    # anchors the large-N asymptotics log N + Euler-Mascheroni
    h = sg.harmonic_number(10 ** 6)
    assert h - math.log(10 ** 6) == pytest.approx(0.577216, abs=1e-6)


def test_gmc_spec_renorm_constants():
    assert fourier_spec(+1, 3).renorm_constant == pytest.approx(1 + 0.5 + 1 / 3, rel=1e-15)
    assert circle_spec(-1, 1 / 16).renorm_constant == pytest.approx(math.log(16.0), rel=1e-15)
    with pytest.raises(ValueError):
        sg.GmcSpec(sigma=0, kind="fourier", n_modes=4)


# ---------------------------------------------------------------------------
# Mass of a region: small-coupling limit, mean identity, sign symmetry
# ---------------------------------------------------------------------------

def _masses(region, params, theta_cells=64, spec=None, n_samples=12, seed=5):
    return sample_region_masses(region, spec or fourier_spec(+1, 16), params, n_samples,
                                seed, dt=1 / 16, theta_cells=theta_cells)


def test_mass_small_gamma_is_area():
    masses = _masses(Region(0.0, 1.0), sg.validate_params(1e-9, 1.0, 1.0))
    np.testing.assert_allclose(masses, 2 * math.pi, rtol=0.0, atol=1e-6)


def test_mass_mean_identity_gamma_1(unit_params):
    masses = sample_region_masses(Region(0.0, 1.0), fourier_spec(+1, 64), unit_params,
                                  8000, seed=101, dt=1 / 64, theta_cells=128)
    mean = masses.mean()
    se = masses.std() / math.sqrt(masses.size)
    target = expected_mass(Region(0.0, 1.0), unit_params)
    assert target == pytest.approx(8.15206, abs=1e-4)
    assert agree(mean, se, target, 0.0)


def test_mass_mean_identity_any_n_modes(unit_params):
    # renormalization is exact at every truncation, not just N = 64
    for n in (4, 16):
        masses = sample_region_masses(Region(0.0, 1.0), fourier_spec(+1, n), unit_params,
                                      6000, seed=7 + n, dt=1 / 32, theta_cells=96)
        mean = masses.mean()
        se = masses.std() / math.sqrt(masses.size)
        assert agree(mean, se, expected_mass(Region(0.0, 1.0), unit_params), 0.0)


def test_mass_mean_gamma_half():
    p = sg.validate_params(0.5, 1.0, 1.0)
    masses = sample_region_masses(Region(0.0, 1.0), fourier_spec(+1, 64), p,
                                  6000, seed=42, dt=1 / 64, theta_cells=128)
    target = expected_mass(Region(0.0, 1.0), p)
    assert target == pytest.approx(6.69279, abs=1e-4)
    assert agree(masses.mean(), masses.std() / math.sqrt(masses.size), target, 0.0)


def test_sign_symmetry_per_sample(unit_params):
    # the minus mass of (x, y, b) is the plus mass of the negated slice
    rng = np.random.default_rng(31)
    x, y, b = rng.standard_normal((5, 16)), rng.standard_normal((5, 16)), rng.standard_normal(5)
    kernel = SliceMass(unit_params.gamma, fourier_spec(+1, 16), 64)
    minus = kernel(x, y, b)[1]
    np.testing.assert_allclose(minus, kernel(-x, -y, -b)[0], rtol=1e-12, atol=0.0)


def test_mass_nonnegative_and_region_checks(unit_params):
    assert np.all(_masses(Region(0.5, 0.5), unit_params) == 0.0)
    assert np.all(_masses(Region(0.0, 1.0), unit_params) > 0.0)
    with pytest.raises(RegionOutsideGrid, match="^region t_min -0.5 lies below t=0"):
        _masses(Region(-0.5, 1.0), unit_params)


def test_weighted_mass_circle_outside_span_raises(unit_params):
    # the averaging circle leaves [0, 1] near both ends of the region: the
    # streamed mass refuses it instead of returning NaN
    with pytest.raises(RegionOutsideGrid, match="circle margin 0.125 lies below t=0"):
        _masses(Region(0.0, 1.0), unit_params, spec=circle_spec(+1, 1 / 8))


# ---------------------------------------------------------------------------
# The slice-mass kernel: mirror pairs, one reduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cells", [16, 17, 96, 128])
def test_slice_mass_load_is_the_full_synthesis(cells):
    # the masses of a slice synthesized on half the nodes and summed over
    # mirror pairs are the sums of the full-basis field over every node, the
    # middle node at pi of an odd count included
    rng = np.random.default_rng(cells)
    nodes, width = theta_nodes(cells)
    x, y = rng.standard_normal((33, 20)), rng.standard_normal((33, 20))
    plus, minus = SliceMass(1.0, fourier_spec(+1, 16), cells).load(x, y).pair()
    field = fluctuation_grid(x, y, nodes, 16)
    scale = math.exp(-0.5 * sg.harmonic_number(16)) * width
    np.testing.assert_allclose(plus, scale * np.exp(field).sum(axis=1), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(minus, scale * np.exp(-field).sum(axis=1), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("cells", [17, 33])
def test_slice_mass_cosh_pairs_match_two_exp_sums_at_odd_counts(cells):
    # gamma 1.3 and independent random positive weights (w+, w-): every
    # pair, plain or shifted, in any order and with the sinh S of a slice
    # reused by a second shift, is the node-by-node two-exp sum
    gamma, rng = 1.3, np.random.default_rng(cells)
    nodes, width = theta_nodes(cells)
    x, y, b = rng.standard_normal((9, 12)), rng.standard_normal((9, 12)), rng.standard_normal(9)
    field = gamma * fluctuation_grid(x, y, nodes, 8)
    scale = math.exp(-0.5 * gamma * gamma * sg.harmonic_number(8)) * width

    def two_exp(w_plus, w_minus):
        return (scale * np.exp(gamma * b) * (np.exp(field) @ w_plus),
                scale * np.exp(-gamma * b) * (np.exp(-field) @ w_minus))

    kernel = SliceMass(gamma, fourier_spec(+1, 8), cells).load(x, y)
    weights = [rng.exponential(size=(2, cells)) for _ in range(2)]
    got = [kernel.pair(b, tuple(weights[0])), kernel.pair(b), kernel.pair(b, tuple(weights[1]))]
    want = [two_exp(*weights[0]), two_exp(np.ones(cells), np.ones(cells)), two_exp(*weights[1])]
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("cells", [33, 128])
def test_loaded_slice_mass_holds_two_slice_buffers(cells):
    # a loaded kernel holds at most two (R, T) float buffers (and their
    # headers), before and after a shifted pair, and no step makes an (R, T/2)
    # temporary, so a particle population's working set does not grow; the
    # rows leave room for numpy's fixed-size iteration buffers
    rows, rng = 4096, np.random.default_rng(0)
    x, y, b = rng.standard_normal((rows, 64)), rng.standard_normal((rows, 64)), np.zeros(rows)
    shift = tuple(rng.exponential(size=(2, cells)))
    kernel = SliceMass(1.0, fourier_spec(+1, 64), cells)
    data = 2 * rows * cells * 8
    tracemalloc.start()
    try:
        kernel.load(x, y).pair(b)
        held, peak = tracemalloc.get_traced_memory()
        assert held <= data + 1024 and peak <= held + data // 8
        tracemalloc.reset_peak()
        kernel.pair(b, shift)
        held, peak = tracemalloc.get_traced_memory()
        assert held <= data + 1024 and peak <= held + data // 8
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Circle potential: the slice-mass kernel on single slices
# ---------------------------------------------------------------------------

def _slice_potential(gamma, n_modes, x, y, sign=+1):
    plus, minus = SliceMass(gamma, fourier_spec(+1, n_modes), 64)(x, y)
    return plus if sign > 0 else minus


def test_circle_potential_zero_field(unit_params):
    v = _slice_potential(unit_params.gamma, 8, np.zeros((1, 8)), np.zeros((1, 8)))
    assert v[0] == pytest.approx(2 * math.pi * math.exp(-0.5 * sg.harmonic_number(8)),
                                 rel=1e-12)


def test_circle_potential_unit_mean(unit_params):
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((4000, 32)), rng.standard_normal((4000, 32))
    vals = _slice_potential(unit_params.gamma, 32, x, y)
    assert agree(vals.mean(), vals.std() / math.sqrt(vals.size), 2 * math.pi, 0.0)


def test_circle_potential_sign_symmetry(unit_params):
    # on one stationary slice, the minus potential is the plus potential of -field
    rng = np.random.default_rng(77)
    x, y = rng.standard_normal((1, 16)), rng.standard_normal((1, 16))
    v_minus = _slice_potential(unit_params.gamma, 16, x, y, sign=-1)
    v_plus_neg = _slice_potential(unit_params.gamma, 16, -x, -y)
    assert v_minus[0] == pytest.approx(v_plus_neg[0], rel=1e-12)


# ---------------------------------------------------------------------------
# Regularization agreement, scaling, moments
# ---------------------------------------------------------------------------

def test_regularization_agreement(unit_params):
    region = Region(0.5, 1.5)
    mf = sample_region_masses(region, fourier_spec(+1, 64), unit_params, 4000,
                              seed=201, dt=1 / 64, theta_cells=128)
    mc = sample_region_masses(region, circle_spec(+1, 1 / 16), unit_params, 4000,
                              seed=202, dt=1 / 64, theta_cells=128)
    assert agree(mf.mean(), mf.std() / 63.2, mc.mean(), mc.std() / 63.2)


def test_scaling_check_r2(unit_params):
    rep = sg.scaling_check(Region(0.0, 1.0), sg.validate_params(1.0, 1.0, 2.0),
                           n_samples=4000, seed=55, dt=1 / 64, theta_cells=128)
    assert rep["target_ratio"] == pytest.approx(2 ** 2.5, rel=1e-12)
    assert rep["pass"]
    assert rep["ratio"] == pytest.approx(2 ** 2.5, rel=0.1)


def test_scaling_check_r1_identical(unit_params):
    rep = sg.scaling_check(Region(0.0, 1.0), unit_params, n_samples=500, seed=9,
                           dt=1 / 32, theta_cells=64)
    assert rep["mean_scaled_side"] == rep["mean_unit_side"]
    assert rep["ratio"] == 1.0


def test_scaling_check_takes_a_seed_sequence():
    # a SeedSequence seed names the same two substreams as its int entropy
    args = (Region(0.0, 0.5), sg.validate_params(1.0, 1.0, 2.0))
    kw = dict(n_samples=40, dt=1 / 8, theta_cells=16, n_modes=8)
    assert (sg.scaling_check(*args, seed=np.random.SeedSequence(7), **kw)
            == sg.scaling_check(*args, seed=7, **kw))


def test_scaling_check_degenerate_region(unit_params):
    rep = sg.scaling_check(Region(0.5, 0.5), sg.validate_params(1.0, 1.0, 2.0),
                           n_samples=200, seed=3, dt=1 / 32, theta_cells=64)
    assert rep["mean_scaled_side"] == 0.0
    assert rep["mean_unit_side"] == 0.0


def test_moment_estimator_first_moment(unit_params):
    res = sg.moment_estimator(Region(0.0, 1.0), fourier_spec(+1, 64), unit_params,
                              p=1.0, n_samples=6000, seed=61, dt=1 / 32, theta_cells=96)
    assert agree(res.mean, res.std_error, expected_mass(Region(0.0, 1.0), unit_params), 0.0)


def test_moment_estimator_negative_moment_stable(unit_params):
    res = sg.moment_estimator(Region(0.5, 1.0), fourier_spec(+1, 32), unit_params,
                              p=-1.0, n_samples=8000, seed=62, dt=1 / 32, theta_cells=96)
    assert math.isfinite(res.mean)
    assert not res.diagnostics["heavy_tail_flag"]


def test_moment_estimator_heavy_tail_flag(unit_params):
    # p = 4/gamma^2 + 1 = 5 at gamma = 1: beyond the finite-moment range
    res = sg.moment_estimator(Region(0.0, 1.0), fourier_spec(+1, 32), unit_params,
                              p=5.0, n_samples=8000, seed=63, dt=1 / 32, theta_cells=96)
    assert res.diagnostics["heavy_tail_flag"]


def test_moment_estimator_empty_region(unit_params):
    with pytest.raises(EmptyRegion):
        sg.moment_estimator(Region(1.0, 1.0), fourier_spec(+1, 16), unit_params,
                            p=1.0, n_samples=100, seed=1)


@given(t0=st.floats(0, 1), span=st.floats(0.1, 1.0))
@settings(max_examples=20, deadline=None)
def test_expected_mass_positive_monotone(t0, span):
    p = sg.validate_params(1.0, 1.0, 1.0)
    small = expected_mass(Region(t0, t0 + span / 2), p)
    big = expected_mass(Region(t0, t0 + span), p)
    assert 0 < small < big
