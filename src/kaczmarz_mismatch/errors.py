"""Exception hierarchy shared across the package.

Three branches matter for scripting: invalid inputs (CLI exit code 1),
numeric failures (exit code 2), and no-guarantee conditions (exit code 3).
"""


class KaczmarzError(Exception):
    """Base class for all package errors."""


class InvalidInputError(KaczmarzError, ValueError):
    """Bad user input: wrong shapes, NaN entries, invalid distributions."""


class DimensionError(InvalidInputError):
    """Shape mismatch between operands."""


class InvalidDistributionError(InvalidInputError):
    """Probability weights are negative or do not sum to one."""


class NumericError(KaczmarzError, RuntimeError):
    """Numeric failure: singular systems, non-finite intermediates."""


class ConvergenceError(NumericError):
    """An iterative kernel hit its iteration cap."""


class SingularMatrixError(NumericError):
    """A matrix required to be invertible failed the pivot check."""


class RankDeficiencyError(NumericError):
    """A matrix required to have full (row) rank does not."""


class EmptySystemError(InvalidInputError):
    """Row filtering removed every equation of a system."""


class NoGuaranteeError(KaczmarzError, RuntimeError):
    """A convergence guarantee was requested but its hypothesis fails."""
