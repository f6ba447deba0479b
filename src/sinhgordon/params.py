"""Model parameters and the derived coupling constants.

Every estimator in the package takes a ``ModelParams`` instance rather than
raw ``(gamma, mu, radius)`` so the radius reduction happens in exactly one
place: :func:`validate_params` derives ``mu_scaled``, the coupling of the
equivalent unit-radius model, and every sampler reads its coupling from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonPositive, OutOfRangeGamma


@dataclass(frozen=True)
class ModelParams:
    """Validated coupling data.

    ``q_const = gamma/2 + 2/gamma`` bounds the admissible vertex weights and
    ``mu_scaled = mu * radius**(gamma*q_const)`` is the coupling of the
    equivalent unit-radius model.  Both are derived once, by
    :func:`validate_params`, and stored; a run manifest records only
    ``gamma``, ``mu`` and ``radius``, from which they follow.
    """

    gamma: float
    mu: float
    radius: float
    q_const: float
    mu_scaled: float


def validate_params(gamma: float, mu: float, radius: float) -> ModelParams:
    """Check ranges and derive the dependent constants.

    Raises:
        OutOfRangeGamma: if ``gamma`` is not in the open interval (0, 2).
        NonPositive: if ``mu`` or ``radius`` is not strictly positive.
    """
    gamma = float(gamma)
    mu = float(mu)
    radius = float(radius)
    if not (0.0 < gamma < 2.0):
        raise OutOfRangeGamma(f"gamma must lie in (0, 2), got {gamma}")
    if mu <= 0.0:
        raise NonPositive(f"mu must be positive, got {mu}")
    if radius <= 0.0:
        raise NonPositive(f"radius must be positive, got {radius}")
    q = gamma / 2.0 + 2.0 / gamma
    return ModelParams(
        gamma=gamma,
        mu=mu,
        radius=radius,
        q_const=q,
        mu_scaled=mu * radius ** (gamma * q),
    )

