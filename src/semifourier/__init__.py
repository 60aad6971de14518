"""Spectral toolkit for the anti-periodic Fourier operator -y'' + k y.

Eigenvalues and eigenfunctions on an interval with anti-periodic boundary
conditions, the associated Sobolev-type ladder of inner products, expansion
coefficients and partial sums, and diagnostics for ladder membership.
"""

from .errors import (
    DerivativeUnavailableError,
    InsufficientModesError,
    InvalidConfigError,
    InvalidModeError,
    NonFiniteIntegrandError,
    PointOutOfDomainError,
    SemiFourierError,
    TruncationExceededError,
    TruncationMismatchError,
)
from .expansion import (
    CoeffVector,
    classical_coeffs,
    expansion_error,
    leftdef_coeffs,
    parseval_defect,
    partial_sum,
)
from .ladder import (
    DomainVerdict,
    MembershipReport,
    Verdict,
    domain_indicator,
    fundamental_relation_defect,
    fundamental_relation_defects,
    in_v_space,
    leftdef_inner,
    leftdef_norm,
    lower_bound_margin,
    membership_classify,
    mode_sequence,
    operator_matrix,
    scaled_basis,
    spectral_inner_r,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, integrate, l2_inner
from .spectral import (
    Branch,
    FunctionHandle,
    Mode,
    SpectralConfig,
    TrigPolynomial,
    angular_frequencies,
    angular_frequency,
    apply_ell,
    apply_ell_power,
    basis_eval,
    basis_polynomial,
    boundary_antisymmetry_defect,
    eigenvalue,
    eigenvalues,
    ell_power_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # configuration and basis
    "SpectralConfig",
    "Branch",
    "Mode",
    "TrigPolynomial",
    "FunctionHandle",
    "angular_frequency",
    "angular_frequencies",
    "eigenvalue",
    "eigenvalues",
    "basis_eval",
    "basis_polynomial",
    "boundary_antisymmetry_defect",
    "apply_ell",
    "apply_ell_power",
    "ell_power_coefficients",
    # quadrature
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "integrate",
    "l2_inner",
    # ladder spaces
    "Verdict",
    "MembershipReport",
    "DomainVerdict",
    "leftdef_inner",
    "leftdef_norm",
    "scaled_basis",
    "fundamental_relation_defect",
    "fundamental_relation_defects",
    "lower_bound_margin",
    "spectral_inner_r",
    "membership_classify",
    "operator_matrix",
    "domain_indicator",
    "in_v_space",
    "mode_sequence",
    # expansions
    "CoeffVector",
    "classical_coeffs",
    "leftdef_coeffs",
    "partial_sum",
    "expansion_error",
    "parseval_defect",
    # errors
    "SemiFourierError",
    "InvalidConfigError",
    "InvalidModeError",
    "PointOutOfDomainError",
    "DerivativeUnavailableError",
    "NonFiniteIntegrandError",
    "TruncationMismatchError",
    "TruncationExceededError",
    "InsufficientModesError",
]
