"""Exception types shared across the package."""


class SinhGordonError(Exception):
    """Base class for all package errors."""


class ConfigError(SinhGordonError):
    """Malformed or invalid run configuration; the CLI exits 2 on it and on
    every subclass."""


class OutOfRangeGamma(SinhGordonError):
    """Coupling gamma outside the open interval (0, 2)."""


class NonPositive(SinhGordonError):
    """A parameter that must be strictly positive is not."""


class EmptyGrid(SinhGordonError):
    """Time grid with zero steps."""


class IndexOutOfRange(SinhGordonError):
    """Time index or mode index outside the sampled range."""


class NegativeTime(SinhGordonError):
    """Negative time passed where t >= 0 is required."""


class CoincidentPoints(SinhGordonError):
    """Covariance kernel requested at a log-divergent coincident pair."""


class EpsilonGridMismatch(ConfigError):
    """Circle-average radius is not an integer multiple of the grid step.

    The radius and the step come from the run configuration, so the CLI
    treats this as a configuration error (exit 2).
    """


class RegionOutsideGrid(SinhGordonError):
    """Integration region not contained in the sampled time span."""


class EmptyRegion(ConfigError):
    """Region with zero area; its ends come from the run configuration."""


class IncompatibleGrids(ConfigError):
    """Region cannot be represented at both scales of a scaling check with the
    configured ``dt``."""


class NonPositiveTime(SinhGordonError):
    """Propagator time must be strictly positive."""


class TailTolNotMet(SinhGordonError):
    """Mode truncation too coarse for the requested tail tolerance."""


class GridSpanMismatch(ConfigError):
    """A span or time that is not a node of the time grid.

    Spans and times come from the run configuration, so the CLI treats this
    as a configuration error (exit 2).
    """


class DegenerateFit(SinhGordonError):
    """Fit input collinear, constant, or with too few points."""


class SignalLost(SinhGordonError):
    """Covariances consistent with zero; no decay rate can be fitted."""


class InadmissibleInsertions(ConfigError):
    """Insertion set with a configured weight at or beyond the admissibility bound."""


class InadmissibleAlpha(ConfigError):
    """Configured single vertex weight outside (-Q, Q)."""


class WindowOutsideCylinder(ConfigError):
    """Configured observable window, separation or insertion outside the finite
    cylinder."""


class RegisterOverflow(SinhGordonError):
    """A particle flow's register mean beyond the float range: the zero-mode
    window is too wide for the insertion weights."""


class QuadratureFailure(SinhGordonError):
    """Requested quadrature tolerance could not be certified."""

