"""Exception hierarchy shared by all marketgen modules."""


class MarketGenError(Exception):
    """Base class for all errors raised by this package."""


class ConstantColumn(MarketGenError):
    """A column has zero range or zero variance where spread is required."""


class InvalidValue(MarketGenError):
    """Non-finite or otherwise unusable numeric input."""


class NonFinite(InvalidValue):
    """NaN or infinite entries where finite numbers are required."""


class DomainError(MarketGenError):
    """Argument outside the mathematical domain of the operation."""


class OutOfBounds(MarketGenError):
    """Value falls outside the bounds a fitted transform was built on."""


class ShapeError(MarketGenError):
    """Array shapes do not compose."""


class EmptyBatch(MarketGenError):
    """A training batch with no samples."""


class EmptyInput(MarketGenError):
    """An empty sample where at least one observation is required."""


class TooFewRows(MarketGenError):
    """Not enough observations for the requested computation."""


class TooLarge(MarketGenError):
    """Model too large for exact enumeration."""


class SupportError(MarketGenError):
    """q assigns zero mass where p does not (KL divergence undefined)."""


class NotPositiveDefinite(MarketGenError):
    """Correlation matrix is not positive definite."""


class DivergedError(MarketGenError):
    """Training or generation produced a non-finite parameter, loss or value.

    ``step`` records the epoch or iteration at which divergence was detected,
    if the failing computation counts any.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step


class CacheError(MarketGenError):
    """A backward pass was given a cache from a different forward pass."""


class UsageError(MarketGenError):
    """Invalid command-line usage or malformed configuration."""


class VersionError(MarketGenError):
    """Persisted document has an unsupported format version."""
