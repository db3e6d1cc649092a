"""Exception types shared across the package."""

__all__ = ["HalflineError", "ValidationError", "NumericalError", "JordanAmbiguityError"]


class HalflineError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HalflineError):
    """Input data violates a structural requirement (shape, Hermiticity,
    positivity, schema)."""


class NumericalError(HalflineError):
    """A computation could not be completed reliably: ill-conditioned
    inversion, step-size underflow, or a failed internal cross-check."""


class JordanAmbiguityError(NumericalError):
    """Eigenvalue clustering or rank staircase decisions are ambiguous at
    the configured thresholds, so the defective structure is uncertain."""

    def __init__(self, message, gaps=None):
        super().__init__(message)
        self.gaps = tuple(gaps) if gaps is not None else ()
