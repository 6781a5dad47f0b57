"""Exception hierarchy shared across the package."""


class SmoothfitError(Exception):
    """Base class for all errors raised by smoothfit."""


class SpecError(SmoothfitError):
    """Invalid user input: model specification, data, or argument combination."""


class DomainError(SmoothfitError):
    """A value lies outside the mathematically valid domain of an operation."""


class IndefiniteError(SmoothfitError):
    """A Cholesky factorization hit a non-positive pivot.

    ``pivot`` is the original (unpermuted) index of the first failing
    column.
    """

    def __init__(self, pivot, message=None):
        self.pivot = int(pivot)
        super().__init__(message or f"non-positive pivot at column {pivot}")


class SingularityError(SmoothfitError):
    """A triangular or near-singular system could not be solved."""


class NumericError(SmoothfitError):
    """Numeric failure during fitting (divergence, overflow, cap reached)."""
