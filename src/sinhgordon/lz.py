"""Analytic infinite-volume one-point reference value.

Evaluates the conjectured closed form: a Gamma-function prefactor raised to
-alpha^2/(2*gamma*Q) times the exponential of an integral whose integrand has
a removable singularity at zero and exponential decay at infinity.  The
integral is split: Taylor series on (0, t0], adaptive quadrature on a finite
middle range, and a certified analytic tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InadmissibleAlpha, QuadratureFailure
from .params import ModelParams


@dataclass
class LzResult:
    value: float
    error_bound: float
    diagnostics: dict = field(default_factory=dict)


def _rates(params: ModelParams, alpha: float):
    g = params.gamma
    return alpha * g / 2.0, g * g / 4.0, g * params.q_const / 2.0


def integrand(params: ModelParams, alpha: float, t: float) -> float:
    """g(t)/t with g the bracketed integrand; t = 0 returns the limit."""
    a, b, d = _rates(params, alpha)
    if t == 0.0:
        return -alpha * alpha
    g = (-math.sinh(a * t) ** 2 / (2.0 * math.sinh(b * t) * math.sinh(t) * math.cosh(d * t))
         + 0.5 * alpha * alpha * math.exp(-2.0 * t))
    return g / t


def series_coefficients(params: ModelParams, alpha: float):
    """Taylor coefficients k_0..k_5 of g(t)/t around t = 0.

    The leading cancellation leaves g(t)/t = -alpha^2 + O(t); coefficients
    come from the expansions of log(sinh x / x) and log cosh x.
    """
    a, b, d = _rates(params, alpha)
    a2, b2, d2 = a * a, b * b, d * d
    p = a2 / 3.0 - b2 / 6.0 - 1.0 / 6.0 - d2 / 2.0
    q4 = -a2 * a2 / 90.0 + b2 * b2 / 180.0 + 1.0 / 180.0 + d2 * d2 / 12.0
    r6 = (2.0 * a2 ** 3 - b2 ** 3 - 1.0) / 2835.0 - d2 ** 3 / 45.0
    c2 = p
    c4 = q4 + p * p / 2.0
    c6 = r6 + p * q4 + p ** 3 / 6.0
    half_a2 = 0.5 * alpha * alpha
    return (
        -alpha * alpha,
        half_a2 * (2.0 - c2),
        half_a2 * (-4.0 / 3.0),
        half_a2 * (2.0 / 3.0 - c4),
        half_a2 * (-4.0 / 15.0),
        half_a2 * (4.0 / 45.0 - c6),
    )


def series_value(coeffs, t: float) -> float:
    acc = 0.0
    for k in reversed(coeffs):
        acc = acc * t + k
    return acc


def _series_integral(coeffs, t0: float) -> float:
    return sum(k * t0 ** (m + 1) / (m + 1) for m, k in enumerate(coeffs))


def _tail_bound(params: ModelParams, alpha: float, t_cut: float) -> float:
    """Certified bound on |integral over [t_cut, infinity)|."""
    a, b, d = _rates(params, alpha)
    kappa = b + 1.0 + d - 2.0 * abs(a)  # = gamma*(Q - |alpha|) > 0 for admissible alpha
    k0 = 1.0 / ((1.0 - math.exp(-2.0 * b * t_cut)) * (1.0 - math.exp(-2.0 * t_cut)))
    return (k0 * math.exp(-kappa * t_cut) / kappa
            + 0.25 * alpha * alpha * math.exp(-2.0 * t_cut)) / t_cut


def prefactor_base(params: ModelParams) -> float:
    """-mu*pi*Gamma(1+gamma^2/4)/Gamma(-gamma^2/4); positive for gamma in (0,2)."""
    g2_4 = params.gamma ** 2 / 4.0
    return -params.mu * math.pi * math.gamma(1.0 + g2_4) / math.gamma(-g2_4)


def lz_one_point(params: ModelParams, alpha: float, tol: float = 1e-10,
                 t0: float = 1e-2) -> LzResult:
    """Reference one-point value with a certified total error bound.

    Raises InadmissibleAlpha outside |alpha| < Q and QuadratureFailure when
    the requested tolerance cannot be certified.
    """
    if abs(alpha) >= params.q_const:
        raise InadmissibleAlpha(f"|alpha| must be < Q = {params.q_const}")
    coeffs = series_coefficients(params, alpha)
    head = _series_integral(coeffs, t0)
    splice_gap = abs(series_value(coeffs, t0) - integrand(params, alpha, t0))
    series_err = splice_gap * t0  # series error density is monotone on (0, t0]

    t_cut = 8.0
    while _tail_bound(params, alpha, t_cut) > tol / 4.0:
        t_cut *= 1.5
        if t_cut > 65536.0:
            raise QuadratureFailure(
                "tail bound does not reach the tolerance (weight too close to "
                "the admissibility boundary)")
    tail = _tail_bound(params, alpha, t_cut)

    from scipy.integrate import quad  # imported here: scipy stays off the import path
    mid, quad_err = quad(lambda t: integrand(params, alpha, t), t0, t_cut,
                         epsabs=tol / 4.0, epsrel=1e-13, limit=800)
    total_int = head + mid
    int_err = series_err + quad_err + tail
    if int_err > tol:
        raise QuadratureFailure(
            f"certified integral error {int_err:.3e} exceeds tol={tol}")
    base = prefactor_base(params)
    expo = -alpha * alpha / (2.0 * params.gamma * params.q_const)
    value = base ** expo * math.exp(total_int)
    bound = value * math.expm1(int_err) + 1e-14 * value
    return LzResult(value=value, error_bound=bound, diagnostics={
        "split_point": t0, "tail_cut": t_cut, "tail_bound": tail,
        "quad_error": quad_err, "series_error": series_err,
        "splice_gap": splice_gap, "integral": total_int,
        "prefactor_base": base, "prefactor_exponent": expo,
    })


def lz_one_point_brute(params: ModelParams, alpha: float, floor: float = 1e-12,
                       t_cut: float | None = None) -> float:
    """Independent route: direct adaptive quadrature from a tiny floor.

    Used to cross-check the series-spliced evaluator; relies on the removable
    singularity being numerically benign above the floor.
    """
    if abs(alpha) >= params.q_const:
        raise InadmissibleAlpha(f"|alpha| must be < Q = {params.q_const}")
    if t_cut is None:
        t_cut = 8.0
        while _tail_bound(params, alpha, t_cut) > 1e-12:
            t_cut *= 1.5
    from scipy.integrate import quad
    mid, _ = quad(lambda t: integrand(params, alpha, t), floor, t_cut,
                  epsabs=1e-13, epsrel=1e-13, limit=800)
    head = -alpha * alpha * floor  # leading behaviour below the floor
    base = prefactor_base(params)
    expo = -alpha * alpha / (2.0 * params.gamma * params.q_const)
    return base ** expo * math.exp(head + mid)


def mc_vs_lz_report(alpha: float, r_values, estimates, params: ModelParams) -> dict:
    """Directional comparison of a Monte Carlo sequence against the reference.

    ``estimates`` are (value, std_error) pairs of the rescaled one-point
    function at each radius.  The report flags whether the sequence is
    approaching the reference value; no pass/fail is attached, the limit is a
    large-R asymptotic out of reach at desk scale.
    """
    ref = lz_one_point(params, alpha)
    rows = []
    dists = []
    for r, (v, se) in zip(r_values, estimates):
        dist = abs(v - ref.value)
        dists.append(dist)
        rows.append({"radius": float(r), "estimate": float(v), "std_error": float(se),
                     "abs_distance": dist})
    approaching = len(dists) >= 2 and all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    return {
        "alpha": alpha,
        "reference_value": ref.value,
        "reference_error_bound": ref.error_bound,
        "rows": rows,
        "flag": "approaching" if approaching else "not-approaching",
        "note": "directional report only; desk-scale runs cannot certify the limit",
    }
