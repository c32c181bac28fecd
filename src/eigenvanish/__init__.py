"""Verifiable vanishing certificates for even eigenspaces of the p-part of
cyclotomic class groups, computed through Gaussian periods over finite fields,
cyclotomic-unit indices, and imaginary-quadratic class numbers.

Every export loads on first use: `import eigenvanish` runs no submodule, and
the first read of a name below (or of a submodule such as
`eigenvanish.certify`) imports the module that defines it (PEP 562). So a
caller pays only for the modules it touches; the CLI's `setup` command loads
`ffield`, `_nt` and `errors` and nothing else of the package.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the names it exports: the one list of the public API
_EXPORTS = {
    "certify": (
        "Certificate", "EigenspaceScan", "ExploreReport", "VandiverReport",
        "WitnessRecord", "certificate_from_dict", "certificate_to_dict",
        "certify_half_plus", "check_certificate", "remark_explore",
        "vandiver_scan", "verify_certificate",
    ),
    "errors": (
        "BadDiscriminant", "BadEigenspaceIndex", "BadInput", "BadPrime",
        "BoundExhausted", "BoundTooSmall", "DivisibilityFailure",
        "EigenvanishError", "EvenExponent", "FactorizationFailure",
        "FieldTooLarge", "InternalInvariant", "MissingIndex",
        "NonIntegralPeriod", "NotCoprime", "NotInSubgroup", "ResourceLimit",
        "SearchTooLarge",
    ),
    "ffield": (
        "CyclotomicSetup", "FieldContext", "build_field",
        "least_primitive_root", "multiplicative_order",
    ),
    "periods": (
        "PeriodTable", "compute_a", "compute_d", "compute_period_table",
        "compute_v",
    ),
    "quadforms": (
        "ClassNumberData", "DensityEstimate", "QfSolution", "class_number",
        "cornacchia", "density_estimate", "legendre", "power_representation",
        "reduced_forms_count", "represent_all", "stickelberger_sign",
    ),
    "units": (
        "IndexRecord", "IndexVector", "beta_index_mod_p", "congruence_residual",
        "index_mod_p", "index_vector", "verify_congruences_ii",
        "verify_identity_i",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the private modules that `eigenvanish.<name>` reaches besides the ones above
_SUBMODULES = {*_EXPORTS, "_nt", "_scan"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it here too
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
