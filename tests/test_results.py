import numpy as np
import pytest

from sinhgordon.results import jackknife_ratio, params_fingerprint


def test_fingerprint_stable_and_order_free():
    f1 = params_fingerprint({"gamma": 1.0, "mu": 2.0})
    f2 = params_fingerprint({"mu": 2.0, "gamma": 1.0})
    assert f1 == f2
    assert f1 != params_fingerprint({"gamma": 1.5, "mu": 2.0})


def test_jackknife_ratio_exact_for_constant():
    num = np.full(50, 3.0)
    den = np.full(50, 1.5)
    est, se = jackknife_ratio(num, den)
    assert est == pytest.approx(2.0)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_jackknife_ratio_reasonable_scale():
    rng = np.random.default_rng(9)
    den = np.exp(rng.normal(0, 0.2, 4000))
    num = den * (1.0 + rng.normal(0, 0.5, 4000))
    est, se = jackknife_ratio(num, den)
    assert est == pytest.approx(1.0, abs=5 * se)
    assert 0.001 < se < 0.05
