import math

import numpy as np
import pytest

import sinhgordon as sg
from sinhgordon.errors import DegenerateFit, SignalLost



# ---------------------------------------------------------------------------
# Fits on synthetic data
# ---------------------------------------------------------------------------

def test_lambda0_exact_linear_recovery():
    ts = [1.0, 1.5, 2.0, 3.0]
    logz = [(-2 * 0.7 * t + 1.3, 0.0) for t in ts]
    fit = sg.lambda0_fit(ts, logz)
    assert fit.value == pytest.approx(0.7, abs=1e-12)
    assert fit.std_error == 0.0


def test_lambda0_constant_shift_invariance():
    ts = [1.0, 2.0, 3.0]
    rng = np.random.default_rng(1)
    base = [(-1.1 * 2 * t + rng.normal(0, 0.01), 0.01) for t in ts]
    shifted = [(v + 5.0, s) for v, s in base]
    a = sg.lambda0_fit(ts, base)
    b = sg.lambda0_fit(ts, shifted)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert a.std_error == pytest.approx(b.std_error, rel=1e-12)


def test_lambda0_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        sg.lambda0_fit([1.0, 2.0], [(-1.0, 0.1), (-2.0, 0.1)])
    with pytest.raises(DegenerateFit):
        sg.lambda0_fit([2.0, 1.0, 3.0], [(-1.0, 0.1)] * 3)


def test_gap_exact_recovery():
    seps = [0.5, 1.0, 1.5, 2.0]
    covs = [(0.5 * math.exp(-1.3 * s), 1e-6) for s in seps]
    fit = sg.spectral_gap_fit(seps, covs)
    assert fit.value == pytest.approx(1.3, abs=1e-4)
    assert fit.r_squared > 0.9999


def test_gap_rescaling_invariance():
    seps = [0.5, 1.0, 1.5]
    covs = [(0.2 * math.exp(-0.8 * s), 0.001 * math.exp(-0.8 * s)) for s in seps]
    scaled = [(7.0 * v, 7.0 * s) for v, s in covs]
    a = sg.spectral_gap_fit(seps, covs)
    b = sg.spectral_gap_fit(seps, scaled)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_gap_signal_lost():
    with pytest.raises(SignalLost):
        sg.spectral_gap_fit([1.0, 2.0, 3.0], [(0.01, 0.02), (0.005, 0.02), (0.001, 0.02)])


def test_scaling_probe_exact_square_law():
    rs = [1.0, 2.0, 4.0]
    vals = [(3.0 * r * r, 0.0) for r in rs]
    fit = sg.lambda0_scaling_probe(rs, vals)
    assert fit.value == pytest.approx(2.0, abs=1e-12)


def test_scaling_probe_se_linearity():
    rs = [1.0, 2.0, 4.0]
    vals1 = [(3.0 * r * r, 0.1 * r * r) for r in rs]
    vals2 = [(3.0 * r * r, 0.2 * r * r) for r in rs]
    a = sg.lambda0_scaling_probe(rs, vals1)
    b = sg.lambda0_scaling_probe(rs, vals2)
    assert b.std_error == pytest.approx(2.0 * a.std_error, rel=1e-9)


# ---------------------------------------------------------------------------
# Monte Carlo lambda0
# ---------------------------------------------------------------------------

def test_lambda0_positive_and_mu_monotone(unit_params):
    from sinhgordon.smc import SmcSettings, smc_log_partition
    st = SmcSettings(n_particles=768, n_runs=6)
    ts = [0.5, 1.0, 1.5]
    pairs1 = smc_log_partition(unit_params, ts, 1 / 16, 32, 64, st, seed=31)
    fit1 = sg.lambda0_fit(ts, pairs1)
    assert fit1.value > 3.0 * fit1.std_error
    p2 = sg.validate_params(1.0, 2.0, 1.0)
    pairs2 = smc_log_partition(p2, ts, 1 / 16, 32, 64, st, seed=32)
    fit2 = sg.lambda0_fit(ts, pairs2)
    assert fit2.value - fit1.value > -3.0 * math.hypot(fit1.std_error, fit2.std_error)


# ---------------------------------------------------------------------------
# Ground-state profile
# ---------------------------------------------------------------------------

def test_profile_normalized_and_positive(unit_params):
    prof = sg.ground_state_profile(1.0, unit_params, dt=1 / 8, n_modes=16,
                                   theta_cells=48, bins=(8, 4), n_samples=6000, seed=41)
    assert prof.values.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(prof.values >= 0.0)


def test_profile_t_consistency(unit_params):
    kw = dict(dt=1 / 8, n_modes=16, theta_cells=48, bins=(6, 3), seed=42)
    a = sg.ground_state_profile(1.0, unit_params, n_samples=20000, **kw)
    kw["seed"] = 43
    b = sg.ground_state_profile(1.5, unit_params, n_samples=20000, **kw)
    sel = (a.counts > 50) & (b.counts > 50) & (np.hypot(a.std_errors, b.std_errors) > 0)
    pulls = np.abs(a.values - b.values)[sel] / np.hypot(a.std_errors, b.std_errors)[sel]
    assert np.median(pulls) < 3.0
    assert np.mean(pulls < 4.0) > 0.9


def test_profile_flattens_as_mu_vanishes():
    p = sg.validate_params(1.0, 1e-6, 1.0)
    prof = sg.ground_state_profile(1.0, p, dt=1 / 8, n_modes=16, theta_cells=48,
                                   bins=(8, 1), x_range=6.0, n_samples=30000, seed=44)
    vals = prof.values[prof.counts > 100]
    assert vals.max() / vals.min() < 1.2


def test_profile_csv_rows(unit_params):
    prof = sg.ground_state_profile(0.5, unit_params, dt=1 / 8, n_modes=8,
                                   theta_cells=32, bins=(4, 2), n_samples=2000, seed=45)
    rows = list(prof.rows())
    assert len(rows) == 8
    assert all(len(r) == 5 for r in rows)


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_gap_fit_needs_positive_finite_errors(bad):
    # a zero error would claim an exact gap from points that are not on a line
    covs = [(0.3, 1e-3), (0.2, bad), (0.1, 1e-3)]
    with pytest.raises(DegenerateFit, match="positive and finite"):
        sg.spectral_gap_fit([0.5, 1.0, 1.5], covs)
