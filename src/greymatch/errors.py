"""Exception hierarchy shared across the package.

DataError covers bad inputs (malformed files, shape problems, series that
cannot be scored); NumericalError covers failures of the estimation or
integration machinery itself.  The CLI maps the two families to distinct
exit codes.
"""


class GreymatchError(Exception):
    """Base class for all package errors."""


class DataError(GreymatchError):
    """Invalid or unusable input data."""


class NumericalError(GreymatchError):
    """Numerical failure during estimation or integration."""


class CsvFormatError(DataError):
    """Malformed CSV input; message carries the offending line number."""


class InsufficientDataError(DataError):
    """Too few observations for the requested regression."""


class AlignmentError(DataError):
    """Exogenous forcing series does not cover the requested time points."""


class ZeroValueError(DataError):
    """A percentage error was requested against a zero observation."""


class SingularDesignError(NumericalError):
    """Regression design is numerically rank-deficient."""


class StrategyError(NumericalError):
    """The chosen initial-value strategy is not applicable."""


class OverflowGuardError(NumericalError):
    """Requested time response would overflow the matrix exponential."""
