"""Verifiable vanishing certificates for even eigenspaces of the p-part of
cyclotomic class groups, computed through Gaussian periods over finite fields,
cyclotomic-unit indices, and imaginary-quadratic class numbers."""

from .certify import (
    Certificate,
    EigenspaceScan,
    ExploreReport,
    VandiverReport,
    WitnessRecord,
    certificate_from_dict,
    certificate_to_dict,
    certify_half_plus,
    check_certificate,
    remark_explore,
    vandiver_scan,
    verify_certificate,
)
from .errors import (
    BadDiscriminant,
    BadEigenspaceIndex,
    BadInput,
    BadPrime,
    BoundExhausted,
    BoundTooSmall,
    DivisibilityFailure,
    EigenvanishError,
    EvenExponent,
    FactorizationFailure,
    FieldTooLarge,
    InternalInvariant,
    MissingIndex,
    NonIntegralPeriod,
    NotCoprime,
    NotInSubgroup,
    ResourceLimit,
    SearchTooLarge,
)
from .ffield import (
    CyclotomicSetup,
    FieldContext,
    build_field,
    least_primitive_root,
    multiplicative_order,
)
from .periods import (
    PeriodTable,
    compute_a,
    compute_d,
    compute_period_table,
    compute_v,
)
from .quadforms import (
    ClassNumberData,
    DensityEstimate,
    QfSolution,
    class_number,
    cornacchia,
    density_estimate,
    legendre,
    power_representation,
    reduced_forms_count,
    represent_all,
    stickelberger_sign,
)
from .units import (
    IndexRecord,
    IndexVector,
    beta_index_mod_p,
    congruence_residual,
    index_mod_p,
    index_vector,
    verify_congruences_ii,
    verify_identity_i,
)

__version__ = "0.1.0"

__all__ = [
    "BadDiscriminant", "BadEigenspaceIndex", "BadInput", "BadPrime",
    "BoundExhausted", "BoundTooSmall", "Certificate", "ClassNumberData",
    "CyclotomicSetup", "DensityEstimate", "DivisibilityFailure",
    "EigenspaceScan", "EigenvanishError", "EvenExponent", "ExploreReport",
    "FactorizationFailure", "FieldContext", "FieldTooLarge", "IndexRecord",
    "IndexVector", "InternalInvariant",
    "MissingIndex", "NonIntegralPeriod", "NotCoprime",
    "NotInSubgroup", "PeriodTable", "QfSolution", "ResourceLimit",
    "SearchTooLarge", "VandiverReport", "WitnessRecord", "beta_index_mod_p",
    "build_field", "certificate_from_dict", "certificate_to_dict",
    "certify_half_plus", "check_certificate", "class_number",
    "compute_a", "compute_d", "compute_period_table", "compute_v",
    "congruence_residual", "cornacchia", "density_estimate", "index_mod_p",
    "index_vector", "least_primitive_root", "legendre", "multiplicative_order",
    "power_representation", "reduced_forms_count", "remark_explore",
    "represent_all", "stickelberger_sign", "vandiver_scan", "verify_certificate",
    "verify_congruences_ii", "verify_identity_i",
]
