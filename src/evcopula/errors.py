"""Exception types shared across the package."""


class EvCopulaError(Exception):
    """Base class for all errors raised by this package."""


class ParamOutOfRangeError(EvCopulaError, ValueError):
    """A family or bound parameter lies outside its admissible range."""


class NonConvergentError(EvCopulaError, ArithmeticError):
    """Adaptive quadrature hit its depth limit before reaching tolerance."""


class NonFiniteError(EvCopulaError, ArithmeticError):
    """An integrand returned a non-finite value at an evaluation node."""


class InvalidDependenceFunctionError(EvCopulaError, ValueError):
    """Candidate dependence function failed validation."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateSampleError(EvCopulaError, ValueError):
    """Sample is too small or constant in one coordinate."""
