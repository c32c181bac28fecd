"""Exception types raised by the library.

Every failure mode has a dedicated class so callers (and the CLI's exit-code
mapping) can tell resource limits, bad input, and violated internal
invariants apart.
"""


class EigenvanishError(Exception):
    """Base class for all library errors."""


class BadInput(EigenvanishError):
    """Arguments outside a function's documented domain."""


class BadPrime(BadInput):
    pass


class BadDiscriminant(BadInput):
    pass


class BadEigenspaceIndex(BadInput):
    pass


class NotCoprime(BadInput):
    pass


class EvenExponent(BadInput):
    pass


class MissingIndex(BadInput):
    pass


class ResourceLimit(EigenvanishError):
    """Valid input, but a configured bound was exhausted."""


class FieldTooLarge(ResourceLimit):
    pass


class SearchTooLarge(ResourceLimit):
    pass


class BoundExhausted(ResourceLimit):
    pass


class BoundTooSmall(ResourceLimit):
    pass


class FactorizationFailure(ResourceLimit):
    """Could not certify a generator because a factorization was unavailable."""


class InternalInvariant(EigenvanishError):
    """A condition that is mathematically guaranteed failed: a bug."""


class NotInSubgroup(InternalInvariant):
    """Discrete log requested for an element outside the expected subgroup."""


class NonIntegralPeriod(InternalInvariant):
    """A Gaussian period failed the rationality invariant."""


class DivisibilityFailure(InternalInvariant):
    """A period difference was not divisible by the expected prime power."""
