"""Exception types shared across the package.

Every error carries a ``module`` tag naming the subsystem that raised it,
so the command line layer can report structured provenance.
"""


class RepringError(Exception):
    """Base class for all package errors."""

    module = "repring"


# -- permutation groups ------------------------------------------------

class MalformedPermutation(RepringError):
    module = "groups"


class OrderBoundExceeded(RepringError):
    module = "groups"


class ElementNotInGroup(RepringError):
    module = "groups"


class NotSubgroup(RepringError):
    module = "groups"


class NotNormal(RepringError):
    module = "groups"


class InvalidGroupSpec(RepringError):
    module = "groups"


# -- p-group catalog ----------------------------------------------------

class DatasetMissing(RepringError):
    module = "catalog"


class ValidationFailed(RepringError):
    module = "catalog"


class CatalogMismatch(RepringError):
    module = "catalog"


class EnumerationBoundExceeded(RepringError):
    module = "catalog"


# -- exact arithmetic ---------------------------------------------------

class NotPLocal(RepringError):
    """A rational with denominator divisible by p cannot be reduced mod p."""

    module = "exact"


# -- module chopping / character tables ----------------------------------

class ChopStalled(RepringError):
    module = "meataxe"


class MalformedModule(RepringError):
    module = "meataxe"


class NonSplitCharPoly(RepringError):
    module = "brauer"


class SingularPhi(RepringError):
    module = "brauer"


class NonIntegralCartan(RepringError):
    module = "brauer"


class NonIntegralDecomposition(RepringError):
    module = "brauer"


# -- defect machinery ----------------------------------------------------

class NotDefectZero(RepringError):
    module = "defects"


class DefectNotZeroInQuotient(RepringError):
    module = "defects"


class CatalogTooSmall(RepringError):
    module = "defects"


class PreconditionViolated(RepringError):
    module = "defects"


# -- command line ---------------------------------------------------------

class CorpusUnreadable(RepringError):
    module = "cli"


class InvalidPrime(RepringError):
    module = "cli"
