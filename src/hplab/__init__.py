"""Numerical laboratory for eigenvalue point processes of truncated
Hua-Pickrell random unitary matrices.

The package samples the n smallest-corner eigenvalues of Hua-Pickrell
distributed U(n+m) matrices, independently constructs the determinantal point
process those eigenvalues should follow (projection kernel of orthonormal
polynomials on the disc), and provides the statistical and analytical checks
tying the two together, including the weighted Bergman limit.
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalError
from .rng import RngStream
from .sampling import (
    HPParams,
    MHConfig,
    hp_log_weight,
    hp_log_weights,
    sample_ginibre,
    sample_haar_unitaries,
    sample_haar_unitary,
    sample_hua_pickrell_mh,
    sample_hua_pickrell_rejection,
)
from .truncation import eigenvalues, sample_truncation_ensemble, truncate
from .weights import (
    WeightSpec,
    disc_weight_nodes,
    gram_matrix,
    moment_quadrature,
    moment_series,
    radial_monomial_integral,
    weight_eval,
)
from .orthopoly import (
    KernelSpec,
    PolynomialBasis,
    bergman_kernel,
    closed_form_basis_delta0,
    finite_kernel,
    kernel_eval,
    leading_coefficients,
    limiting_kernel,
    orthonormal_basis,
    reference_weight,
    write_basis_csv,
)
from .dpp import (
    CellPartition,
    CorrelationReport,
    bonferroni_threshold,
    convergence_profile,
    equal_mass_partition,
    gauge_identity_check,
    sample_projection_dpp,
    verify_intensities,
)
from .stats import chi_square_gof, two_sample_chi_square

__all__ = [
    "__version__",
    "ConfigError",
    "NumericalError",
    "RngStream",
    "HPParams",
    "MHConfig",
    "hp_log_weight",
    "hp_log_weights",
    "sample_ginibre",
    "sample_haar_unitaries",
    "sample_haar_unitary",
    "sample_hua_pickrell_mh",
    "sample_hua_pickrell_rejection",
    "eigenvalues",
    "sample_truncation_ensemble",
    "truncate",
    "WeightSpec",
    "disc_weight_nodes",
    "gram_matrix",
    "moment_quadrature",
    "moment_series",
    "radial_monomial_integral",
    "weight_eval",
    "KernelSpec",
    "PolynomialBasis",
    "bergman_kernel",
    "closed_form_basis_delta0",
    "finite_kernel",
    "kernel_eval",
    "leading_coefficients",
    "limiting_kernel",
    "orthonormal_basis",
    "reference_weight",
    "write_basis_csv",
    "CellPartition",
    "CorrelationReport",
    "bonferroni_threshold",
    "convergence_profile",
    "equal_mass_partition",
    "gauge_identity_check",
    "sample_projection_dpp",
    "verify_intensities",
    "chi_square_gof",
    "two_sample_chi_square",
]
