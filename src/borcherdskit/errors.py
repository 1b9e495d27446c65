"""Exception types shared by all modules of the package."""


class BorcherdsKitError(Exception):
    """Base class for every domain error raised by this package."""


class NotSymmetric(BorcherdsKitError):
    """The proposed Gram matrix is not square or not symmetric."""


class NotEven(BorcherdsKitError):
    """A diagonal Gram entry is odd, so the lattice is not even."""


class NotPositiveDefinite(BorcherdsKitError):
    """A leading principal minor of the Gram matrix is not positive."""


class DimensionMismatch(BorcherdsKitError):
    """A vector has the wrong length for the lattice it is used with."""


class NotInDualLattice(BorcherdsKitError):
    """A vector does not pair integrally with the lattice."""


class PrecisionTooSmall(BorcherdsKitError):
    """The requested data lies outside the stored truncation window."""


class IncompatiblePrecision(BorcherdsKitError):
    """Combining the given truncations would leave an empty window."""


class ResourceLimit(BorcherdsKitError):
    """A coefficient-count budget was exceeded."""


class ShiftInvarianceViolated(BorcherdsKitError):
    """Coefficients contradict the elliptic shift invariance, so the series
    is not a weak Jacobi form to its stored precision."""


class FormClassError(BorcherdsKitError):
    """An operation got a series of the wrong class (raw building block
    where a weak Jacobi form is required, fractional q-exponents, ...)."""


class NonGenericChamber(BorcherdsKitError):
    """The chamber vector pairs to zero with a vector in the q^0 support."""


class InsufficientInputPrecision(BorcherdsKitError):
    """The input series is not known to enough precision for the requested
    product expansion."""


class CongruenceFailed(BorcherdsKitError):
    """The q^0 coefficient sum fails the mod-24 congruence, so no product
    expansion is attached to this input."""


class UnboundedExpansion(BorcherdsKitError):
    """A factor of degree zero in q and s has negative exponent; its inverse
    has no finite expansion under the chosen truncation grading."""


class SchemaViolation(BorcherdsKitError):
    """A JSON document does not match the expected schema; the message
    carries the JSON path of the offending field."""


class SelfCheckFailed(BorcherdsKitError):
    """An internal consistency check failed. This is a defect in the package,
    not in its input; check names the identity that did not hold."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"self-check '{check}' failed: {detail}")
        self.check = check
