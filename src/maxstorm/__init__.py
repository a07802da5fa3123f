"""Space-time max-stable fields: simulation, dependence, pairwise fitting.

The field of interest is a max-autoregression driven by iid max-stable
spatial innovations: each date takes the pointwise maximum of the shifted,
damped previous date and a fresh innovation field.  The package simulates
it exactly on the plane (Smith or Schlather innovations) and on the sphere
(von Mises-Fisher innovations), evaluates its exact joint distributions
and extremal dependence measures, and estimates its parameters by
space-time pairwise likelihood.
"""

from .dependence import (
    LagSpec,
    MadogramEstimate,
    empirical_madogram,
    extremal_coefficient,
    f_madogram,
    frechet_cdf,
    madogram_to_theta,
    pool_madograms,
    theta_to_madogram,
)
from .errors import (
    CapabilityError,
    DegeneratePairError,
    FieldFormatError,
    MaxstormError,
    NumericalError,
    ResourceError,
    ValidationError,
)
from .fieldio import read_field, read_meta, write_field, write_meta
from .geometry import (
    PlanarSite,
    RotationSpec,
    SiteSet,
    SphereSite,
    fibonacci_sphere,
    rotation_matrix,
    square_grid,
)
from .inference import (
    FitOptions,
    FitReport,
    PairWeights,
    ThetaVector,
    bivariate_density,
    fit_scheme1,
    fit_scheme2,
    pairwise_loglik,
    spatial_pairwise_loglik,
)
from .point_process import (
    IntegerPoissonSample,
    SeededStream,
    sample_integer_poisson,
)
from .spacetime import (
    MarkovParams,
    SpaceTimeField,
    finite_dim_neg_log_cdf,
    simulate_markov_planar,
    simulate_markov_sphere,
    truncated_moving_max,
)
from .spatial import (
    SchlatherParams,
    SmithParams,
    SpatialField,
    VmfParams,
    correlation_powered_exponential,
    gaussian_density_2d,
    mahalanobis_distance,
    simulate_schlather,
    simulate_smith,
    simulate_vmf_field,
    smith_exponent_bivariate,
    smith_exponent_numeric,
    vmf_density,
)
from .study import ReplicateRecord, StudyConfig, StudyResult, StudySummaryRow, run_study

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "DegeneratePairError",
    "FieldFormatError",
    "FitOptions",
    "FitReport",
    "IntegerPoissonSample",
    "LagSpec",
    "MadogramEstimate",
    "MarkovParams",
    "MaxstormError",
    "NumericalError",
    "PairWeights",
    "PlanarSite",
    "ReplicateRecord",
    "ResourceError",
    "RotationSpec",
    "SchlatherParams",
    "SeededStream",
    "SiteSet",
    "SmithParams",
    "SpaceTimeField",
    "SpatialField",
    "SphereSite",
    "StudyConfig",
    "StudyResult",
    "StudySummaryRow",
    "ThetaVector",
    "ValidationError",
    "VmfParams",
    "bivariate_density",
    "correlation_powered_exponential",
    "empirical_madogram",
    "extremal_coefficient",
    "f_madogram",
    "fibonacci_sphere",
    "finite_dim_neg_log_cdf",
    "fit_scheme1",
    "fit_scheme2",
    "frechet_cdf",
    "gaussian_density_2d",
    "madogram_to_theta",
    "mahalanobis_distance",
    "pairwise_loglik",
    "pool_madograms",
    "read_field",
    "read_meta",
    "rotation_matrix",
    "run_study",
    "sample_integer_poisson",
    "simulate_markov_planar",
    "simulate_markov_sphere",
    "simulate_schlather",
    "simulate_smith",
    "simulate_vmf_field",
    "smith_exponent_bivariate",
    "smith_exponent_numeric",
    "spatial_pairwise_loglik",
    "square_grid",
    "theta_to_madogram",
    "truncated_moving_max",
    "vmf_density",
    "write_field",
    "write_meta",
]
