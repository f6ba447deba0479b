"""Monte Carlo toolkit for the massless Sinh-Gordon model on a cylinder.

The public names are loaded on first use (PEP 562), so ``import sinhgordon``
imports no numpy: the CLI runner sets the OpenBLAS thread count before numpy
loads (see ``runner.py``).
"""

import importlib

# module -> the public names it exports here
_EXPORTS = {
    "params": ("ModelParams", "validate_params"),
    "gff": ("CircleField", "PathSample", "TimeGrid", "covariance_oracle", "evolve_path",
            "ou_step_coeffs", "sample_circle_field"),
    "gmc": ("GmcSpec", "Region", "circle_spec", "fourier_spec", "harmonic_number",
            "moment_estimator", "scaling_check"),
    "propagator": ("CQuadrature", "KernelEval", "default_c_quadrature", "feynman_kac",
                   "feynman_kac_circle_potential", "free_kernel", "mehler_factor",
                   "partition_curve"),
    "correlations": ("InsertionSet", "ShiftData", "make_insertions", "scaling_one_point",
                     "two_point_covariance", "vertex_direct", "vertex_girsanov",
                     "vertex_plain"),
    "spectral": ("GroundStateProfile", "SpectralEstimate", "ground_state_profile",
                 "lambda0_fit", "lambda0_scaling_probe", "spectral_gap_fit"),
    "lz": ("LzResult", "lz_one_point", "mc_vs_lz_report"),
    "results": ("EstimatorResult",),
}
# submodules that are public names themselves
_MODULES = ("correlations", "errors", "gff", "gmc", "lz", "parallel", "params", "propagator",
            "results", "smc", "spectral")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_MODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
