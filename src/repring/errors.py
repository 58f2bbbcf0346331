"""Exception types shared across the package.

Every error carries a ``module`` tag naming the subsystem that raised it,
so the command line layer can report structured provenance.
"""


class RepringError(Exception):
    """Base class for all package errors."""

    module = "repring"


# -- configuration -------------------------------------------------------

class InvalidSeed(RepringError):
    module = "config"


# -- permutation groups ------------------------------------------------

class MalformedPermutation(RepringError):
    module = "groups"


class OrderBoundExceeded(RepringError):
    module = "groups"


class ElementNotInGroup(RepringError):
    module = "groups"


class NotSubgroup(RepringError):
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


# -- finite fields --------------------------------------------------------

class FieldTooLarge(RepringError):
    """The splitting field has more elements than config.FIELD_ORDER_BOUND."""

    module = "gf"


# -- module chopping / character tables ----------------------------------

class ChopStalled(RepringError):
    module = "meataxe"


class MalformedModule(RepringError):
    module = "meataxe"


class ClosureSaturated(RepringError):
    """Tensor closure found no new simple short of the expected count."""

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


# -- cross-checks --------------------------------------------------------

class InvariantViolated(RepringError):
    """Two routes to the same number disagree; module names the check's
    subsystem."""

    def __init__(self, module, message):
        super().__init__(message)
        self.module = module


# -- reports -------------------------------------------------------------

class InvalidPrime(RepringError):
    module = "report"


# -- command line ---------------------------------------------------------

class InvalidArguments(RepringError):
    """The command line does not parse: a missing or unknown argument, a
    value of the wrong type, or an unknown subcommand."""

    module = "cli"


class CorpusUnreadable(RepringError):
    module = "cli"


class OutputUnwritable(RepringError):
    """The --json report file could not be opened or written."""

    module = "cli"
