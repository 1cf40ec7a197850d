"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; all of them derive from DonlatError so a blanket `except` stays
possible at CLI level.
"""

__all__ = [
    "BadSelfIntersectionError",
    "CapExceededError",
    "DonlatError",
    "IndexRangeError",
    "InvalidCycleError",
    "InvalidDivisorError",
    "NonCurveComponentError",
    "NotACurveError",
    "NotAdjacentError",
    "NotDisjointError",
    "NotLemmaFormError",
    "NotNodalFormError",
    "NotPartitionCaseError",
    "NotTreeShapedError",
    "NotTypeAError",
    "PositionOutOfRangeError",
    "RankMismatchError",
    "RankTooSmallError",
    "SchemaError",
    "SingleCurveError",
    "TwoTypeBError",
    "UnknownFixtureError",
]


class DonlatError(Exception):
    """Base class for all package-specific errors."""


class RankMismatchError(DonlatError):
    """Binary operation applied to vectors of different rank."""


class IndexRangeError(DonlatError):
    """Basis index outside [0, n-1], or a rank, cycle or chain length,
    coefficient bound or cap that is no plain int in its range."""


class NotACurveError(DonlatError):
    """Operand does not classify as a rational curve class."""


class NotAdjacentError(DonlatError):
    """Chain composition requires intersection number exactly 1."""


class TwoTypeBError(DonlatError):
    """Both operands carry a -2 coefficient; such classes never meet once."""


class NotTypeAError(DonlatError):
    """Operand is not of the e_i - e_I shape."""


class NotNodalFormError(DonlatError):
    """Class sum has a coefficient outside {0, -1}."""


class BadSelfIntersectionError(DonlatError):
    """Requested self-intersection below 2 in a cycle builder."""


class SingleCurveError(DonlatError):
    """Cycle builder needs at least two curves."""


class RankTooSmallError(DonlatError):
    """Construction needs a larger lattice rank."""


class NotPartitionCaseError(DonlatError):
    """Canonical renumbering only applies to partition-case cycles."""


class _ReportError(DonlatError):
    """A failed validation; the report, when given, rides along."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InvalidCycleError(_ReportError):
    """Operation requires a configuration that passes cycle validation."""


class PositionOutOfRangeError(DonlatError):
    """Curve position not within the cycle."""


class InvalidDivisorError(_ReportError):
    """Operation requires a configuration that passes divisor validation."""


class NonCurveComponentError(DonlatError):
    """A component of a divisor fails to classify as a curve."""


class NotTreeShapedError(DonlatError):
    """Dual graph is disconnected or contains a cycle."""


class NotLemmaFormError(DonlatError):
    """Sum of a simply connected configuration is not of the e_k - e_K shape."""


class NotDisjointError(DonlatError):
    """Configurations expected to be disjoint actually meet."""


class CapExceededError(DonlatError):
    """Enumeration request exceeds the configured size cap."""


class UnknownFixtureError(DonlatError):
    """No bundled fixture under that name."""


class SchemaError(DonlatError):
    """Input does not match the documented shape (JSON, or a non-integer DONLAT_CAP)."""
