"""Exception hierarchy shared across the package.

DataError covers bad inputs (malformed files, shape problems, series that
cannot be scored); NumericalError covers failures of the estimation or
integration machinery itself.  The CLI maps the two families to distinct
exit codes.

A stacked computation (many replications along a leading axis) reports
the slices that fail through record_failures and fail below: inside a
record_failures block a failed slice becomes a masked row with its error
class instead of an exception.
"""

import contextlib
import contextvars

import numpy as np


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
    """A time response, or a noise level, overflows double precision."""


# The failure record of the stacked computation in progress, if any.
_RECORD = contextvars.ContextVar("greymatch_failure_record", default=None)


@contextlib.contextmanager
def record_failures(count):
    """Within this block a stacked computation over `count` slices (the
    leading axis of its inputs, one replication per slice) does not raise
    when some slices fail: it records each failed slice's error class, the
    first one met, and carries the slice on as a masked row of harmless
    finite numbers.  Yields the record, an object array of length count
    holding the error class of each failed slice and None for sound ones.

    Errors that concern the whole stack, and every error of an unstacked
    call, still raise.  Outside such a block a failed slice raises too.
    """
    record = np.full(count, None, dtype=object)
    token = _RECORD.set(record)
    try:
        yield record
    finally:
        _RECORD.reset(token)


def fail(failed, error_class, message):
    """Report failed slices: failed is a boolean mask over the stack, or a
    0-d one for an unstacked call.  Records error_class for them inside a
    record_failures block of the stack's size; raises error_class(message)
    otherwise, naming the first failed slice of a stack."""
    failed = np.asarray(failed, dtype=bool)
    record = _RECORD.get()
    if failed.ndim == 0 or record is None:
        if failed.ndim:
            message = f"slice {int(np.argmax(failed))} of the stack: {message}"
        raise error_class(message)
    record[failed & np.equal(record, None)] = error_class
