"""Exception types shared across the package."""


class FlowentError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(FlowentError):
    """A claimed prime characteristic is composite."""


class Reducible(FlowentError):
    """A defining modulus factors over its base field."""


class Mismatch(FlowentError):
    """Embeddings were composed across different fields."""


class FieldMismatch(FlowentError):
    """Operands live over different fields."""


class DimensionMismatch(FlowentError):
    """Operand shapes are incompatible."""


class WindowTooSmall(FlowentError):
    """A truncation window cannot satisfy its exactness bound."""


class NotSubspace(FlowentError):
    """An enumerated set that must be a subspace has a size that is not a
    power of the field order."""


class TooLarge(FlowentError):
    """An input exceeds a size cap: a brute-force enumeration, or a float64
    product whose values would no longer be exact."""


class NotInvertible(FlowentError):
    """A matrix that must be invertible is singular."""
