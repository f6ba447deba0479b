import math

import pytest
from hypothesis import given, strategies as st

from sinhgordon import validate_params
from sinhgordon.errors import NonPositive, OutOfRangeGamma


def test_reference_point():
    p = validate_params(gamma=1.0, mu=1.0, radius=1.0)
    assert p.q_const == 2.5
    assert p.mu_scaled == 1.0


def test_radius_two_scaling():
    p = validate_params(1.0, 1.0, 2.0)
    assert p.mu_scaled == pytest.approx(2.0 ** 2.5, rel=1e-12)


def test_gamma_two_rejected():
    with pytest.raises(OutOfRangeGamma):
        validate_params(2.0, 1.0, 1.0)
    with pytest.raises(OutOfRangeGamma):
        validate_params(0.0, 1.0, 1.0)
    with pytest.raises(OutOfRangeGamma):
        validate_params(-0.5, 1.0, 1.0)


def test_nonpositive_rejected():
    with pytest.raises(NonPositive):
        validate_params(1.0, 0.0, 1.0)
    with pytest.raises(NonPositive):
        validate_params(1.0, 1.0, -2.0)


@given(gamma=st.floats(0.05, 1.95), mu=st.floats(1e-3, 1e3), radius=st.floats(1e-2, 1e2))
def test_derived_constants(gamma, mu, radius):
    p = validate_params(gamma, mu, radius)
    assert p.q_const == pytest.approx(gamma / 2 + 2 / gamma, rel=1e-15)
    assert p.mu_scaled == pytest.approx(mu * radius ** (gamma * p.q_const), rel=1e-12)
    assert p.q_const > 2.0  # AM-GM, equality only at the excluded gamma = 2


def test_q_minimum_on_grid():
    qs = [validate_params(0.02 + 1.96 * k / 399, 1.0, 1.0).q_const for k in range(400)]
    assert min(qs) > 2.0
    # the minimizing gamma sits at the right end of the admissible interval
    assert math.isclose(min(qs), qs[-1], rel_tol=1e-12) or qs.index(min(qs)) > 350
