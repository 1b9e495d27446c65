"""Exact-arithmetic toolkit for Borcherds products built from Jacobi forms
of lattice index.

The pipeline: even positive-definite lattices and their discriminant groups
(lattice), sparse exact Fourier expansions with theta blocks, the weight-0
quotient and theta decomposition (series), and everything derived from a
weight-0 input: principal parts, weights, the mod-24 congruence, the
divisibility criterion, Weyl vectors and truncated product expansions (lift).
All arithmetic is exact; nothing uses floating point.
"""

from .errors import (
    BorcherdsKitError,
    CongruenceFailed,
    DimensionMismatch,
    FormClassError,
    IncompatiblePrecision,
    InsufficientInputPrecision,
    NonGenericChamber,
    NotEven,
    NotInDualLattice,
    NotPositiveDefinite,
    NotSymmetric,
    PrecisionTooSmall,
    ResourceLimit,
    SchemaViolation,
    SelfCheckFailed,
    ShiftInvarianceViolated,
    UnboundedExpansion,
)
from .lattice import (
    DiscriminantGroup,
    EvenLattice,
    direct_sum,
    smith_normal_form,
)
from .lift import (
    CongruenceReport,
    OrthogonalExpansion,
    PrincipalPart,
    PrincipalPartReport,
    WeylData,
    admits_half_integral_weight,
    congruence_check,
    default_chamber_vector,
    is_half_integral,
    is_singular_weight,
    lift_expansion,
    lift_expansion_log_exp,
    lift_weight,
    principal_part,
    singular_weight,
    validate_principal_part,
    weyl_vector,
)
from .series import (
    JacobiSeries,
    VectorValuedForm,
    direct_product,
    phi04,
    phi_n,
    recompose,
    rescale_elliptic,
    theta_component,
    theta_decompose,
    theta_sum,
    theta_triple_product,
)

__version__ = "0.1.0"

__all__ = [
    "BorcherdsKitError", "CongruenceFailed", "DimensionMismatch",
    "FormClassError", "IncompatiblePrecision", "InsufficientInputPrecision",
    "NonGenericChamber", "NotEven", "NotInDualLattice", "NotPositiveDefinite",
    "NotSymmetric", "PrecisionTooSmall", "ResourceLimit", "SchemaViolation",
    "SelfCheckFailed", "ShiftInvarianceViolated", "UnboundedExpansion",
    "DiscriminantGroup", "EvenLattice", "direct_sum", "smith_normal_form",
    "CongruenceReport", "OrthogonalExpansion", "PrincipalPart",
    "PrincipalPartReport", "WeylData", "admits_half_integral_weight",
    "congruence_check", "default_chamber_vector", "is_half_integral",
    "is_singular_weight", "lift_expansion", "lift_expansion_log_exp",
    "lift_weight", "principal_part", "singular_weight",
    "validate_principal_part", "weyl_vector",
    "JacobiSeries", "VectorValuedForm", "direct_product", "phi04", "phi_n",
    "recompose", "rescale_elliptic", "theta_component", "theta_decompose",
    "theta_sum", "theta_triple_product",
]
