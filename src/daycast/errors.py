"""Exception types shared across the toolkit.

Plain argument mistakes (wrong length, out-of-range value) raise the
builtin ValueError; everything here marks a failure mode a caller may
want to catch specifically.
"""


class DaycastError(Exception):
    """Base class for toolkit-specific failures."""


class SingularSystemError(DaycastError):
    """A least-squares system is numerically rank deficient."""


class UnderdeterminedError(DaycastError):
    """Fewer training samples than free coefficients."""


class NoSupportError(DaycastError):
    """Kernel weights vanished at the query point."""


class ZeroVarianceError(DaycastError):
    """An operation needed a non-constant series."""


class EstimationError(DaycastError):
    """Parameter search stopped before convergence.

    Carries the best parameters seen so far and the objective value they
    achieved, so callers can inspect or reuse the partial result.
    """

    def __init__(self, message, model=None, objective=None):
        super().__init__(message)
        self.model = model
        self.objective = objective


class Tmy3ParseError(DaycastError):
    """A weather CSV did not match the expected TMY3 layout."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class ConfigError(DaycastError):
    """A run configuration failed validation."""
