import math

import pytest
from hypothesis import given, settings, strategies as st

import sinhgordon as sg
from sinhgordon.errors import InadmissibleAlpha
from sinhgordon.lz import (
    integrand,
    lz_one_point_brute,
    prefactor_base,
    series_coefficients,
    series_value,
)

# regression anchor established by two-method agreement (series+adaptive vs
# brute adaptive from a tiny floor) and confirmed by a 30-digit independent
# quadrature during development
ANCHOR_G1_MU1_A05 = 0.89381227788042


def test_alpha_zero_is_one(unit_params):
    r = sg.lz_one_point(unit_params, 0.0)
    assert r.value == pytest.approx(1.0, abs=1e-10)


def test_parity(unit_params):
    for a in (0.3, 0.7, 1.4):
        plus = sg.lz_one_point(unit_params, a).value
        minus = sg.lz_one_point(unit_params, -a).value
        assert plus == pytest.approx(minus, abs=1e-10)


def test_regression_anchor_two_methods(unit_params):
    r = sg.lz_one_point(unit_params, 0.5, tol=1e-10)
    b = lz_one_point_brute(unit_params, 0.5)
    assert abs(r.value - b) < 1e-8
    assert r.value == pytest.approx(ANCHOR_G1_MU1_A05, abs=5e-9)
    assert r.value > 0
    assert r.error_bound >= abs(r.value - ANCHOR_G1_MU1_A05) - 5e-13


def test_self_convergence_under_halved_controls(unit_params):
    base = sg.lz_one_point(unit_params, 0.5, tol=1e-10)
    finer = sg.lz_one_point(unit_params, 0.5, tol=1e-11, t0=5e-3)
    assert abs(base.value - finer.value) <= base.error_bound + finer.error_bound


def test_splice_continuity(unit_params):
    for alpha in (0.25, 0.5, 1.0, 2.0):
        coeffs = series_coefficients(unit_params, alpha)
        direct = integrand(unit_params, alpha, 1e-2)
        assert series_value(coeffs, 1e-2) == pytest.approx(direct, abs=1e-10)


@given(gamma=st.floats(0.1, 1.9))
@settings(max_examples=40, deadline=None)
def test_prefactor_positive(gamma):
    p = sg.validate_params(gamma, 1.0, 1.0)
    assert prefactor_base(p) > 0.0


def test_inadmissible_alpha_rejected(unit_params):
    with pytest.raises(InadmissibleAlpha):
        sg.lz_one_point(unit_params, unit_params.q_const)


def test_integrand_limit(unit_params):
    assert integrand(unit_params, 0.8, 0.0) == pytest.approx(-0.64, rel=1e-12)
    # approach the limit from above
    assert integrand(unit_params, 0.8, 1e-7) == pytest.approx(-0.64, abs=1e-6)


def test_other_couplings_finite():
    for gamma, alpha in ((0.5, 0.3), (1.5, 1.0), (1.9, 1.8)):
        p = sg.validate_params(gamma, 2.0, 1.0)
        r = sg.lz_one_point(p, alpha, tol=1e-9)
        assert r.value > 0 and math.isfinite(r.value)
        assert r.error_bound <= 1e-8 * max(1.0, r.value)


def test_mc_vs_lz_report_flags(unit_params):
    ref = sg.lz_one_point(unit_params, 0.5).value
    conv = [(ref + 0.3, 0.05), (ref + 0.1, 0.03), (ref + 0.02, 0.02)]
    div = [(ref + 0.1, 0.05), (ref + 0.2, 0.03), (ref + 0.5, 0.02)]
    r1 = sg.mc_vs_lz_report(0.5, [1, 2, 4], conv, unit_params)
    r2 = sg.mc_vs_lz_report(0.5, [1, 2, 4], div, unit_params)
    assert r1["flag"] == "approaching"
    assert r2["flag"] == "not-approaching"
    assert len(r1["rows"]) == 3


def test_mc_vs_lz_fall_inside_the_noise_is_not_approaching(unit_params):
    # every distance falls, but the middle step (0.02) is inside the hypot of
    # its two standard errors (0.05), so the sequence is not seen to approach
    ref = sg.lz_one_point(unit_params, 0.5).value
    est = [(ref + 0.3, 0.03), (ref + 0.28, 0.04), (ref + 0.02, 0.02)]
    rep = sg.mc_vs_lz_report(0.5, [1, 2, 4], est, unit_params)
    dists = [row["abs_distance"] for row in rep["rows"]]
    assert dists == sorted(dists, reverse=True)
    assert rep["flag"] == "not-approaching"
