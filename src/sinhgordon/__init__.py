"""Monte Carlo toolkit for the massless Sinh-Gordon model on a cylinder."""

from .params import ModelParams, validate_params, reduce_to_unit_radius
from .gff import (
    CircleField,
    PathSample,
    TimeGrid,
    circle_average,
    covariance_oracle,
    eval_field,
    evolve_path,
    harmonic_extension,
    ou_step_coeffs,
    sample_circle_field,
)
from .gmc import (
    GmcSpec,
    Region,
    circle_potential,
    circle_spec,
    fourier_spec,
    gmc_mass,
    gmc_mass_weighted,
    harmonic_number,
    moment_estimator,
    renorm_constant,
    scaling_check,
)
from .propagator import (
    CQuadrature,
    KernelEval,
    default_c_quadrature,
    feynman_kac,
    feynman_kac_circle_potential,
    free_kernel,
    mehler_factor,
    partition_curve,
)
from .correlations import (
    InsertionSet,
    ShiftData,
    finite_T_expectation,
    make_insertions,
    scaling_one_point,
    two_point_covariance,
    vertex_direct,
    vertex_girsanov,
    vertex_plain,
)
from .spectral import (
    GroundStateProfile,
    SpectralEstimate,
    ground_state_profile,
    lambda0_fit,
    lambda0_scaling_probe,
    spectral_gap_fit,
)
from .lz import LzResult, lz_one_point, mc_vs_lz_report
from .results import EstimatorResult, merge_results

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
