"""Exception types shared across the library."""


class AGroupsError(Exception):
    """Base class for every library-specific failure."""


class SizeCapExceeded(AGroupsError):
    """A construction would enumerate more elements than the configured cap."""


class LatticeCapExceeded(AGroupsError):
    """The normal subgroup lattice grew past the configured cap."""


class GeneratorsDoNotGenerate(AGroupsError):
    """Closure of the supplied generators is smaller than the full group."""


class InvalidAction(AGroupsError, ValueError):
    """A would-be action fails the automorphism or compatibility checks."""


class BadParams(AGroupsError, ValueError):
    """Construction parameters violate a precondition."""


class NonPrime(BadParams):
    """A parameter that must be prime is not."""


class NotNormal(AGroupsError, ValueError):
    """A quotient was requested by a subgroup that is not normal."""


class PrimeDoesNotDivide(AGroupsError, ValueError):
    """A Sylow subgroup was requested for a prime not dividing the order."""


class OrderDoesNotDivide(AGroupsError, ValueError):
    """No element of the requested multiplicative order exists."""


class MixedFields(AGroupsError, ValueError):
    """Field operands do not belong to the same field."""


class WrongOrder(AGroupsError, ValueError):
    """A unit does not have the multiplicative order required of it."""


class NotAGroup(AGroupsError):
    """The input is not an A-group: some Sylow subgroup is nonabelian."""


class TooManyPrimes(AGroupsError):
    """Two-prime decomposition applies only to one- or two-prime orders."""


class DecompositionInvariantFailed(AGroupsError, RuntimeError):
    """A runtime certificate check failed where theory says it cannot."""


class NotFamilyGroup(AGroupsError, ValueError):
    """The group does not have the counterexample family's construction shape."""
