"""Error taxonomy and process exit codes.

The failures this package finds in data and results derive from
VcsEvalError, so callers can catch them by one base class. Two kinds do
not: argument checks raise ValueError, and OSError, UnicodeDecodeError and
MemoryError pass through from reading, decoding and allocating. The CLI's
main maps these onto the documented exit codes: 0 ok, 1 check/compute
failure or MemoryError, 2 input error, OSError or UnicodeDecodeError,
3 undefined statistic.
"""

import math
import numbers

import numpy as np

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_UNDEFINED = 3


def _integers(*values):
    """The integer rule of the argument checks: int or numpy integer, not bool."""
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)


def _real(name, *values):
    """The type rule of the scalar arguments: TypeError naming name unless every
    value is a real number, a bool, int or float of Python or numpy, or an array
    of them. A string, None or a complex number is not, even where float()
    would read it."""
    for value in values:
        if not (isinstance(value, numbers.Real)
                or isinstance(value, (np.ndarray, np.generic)) and value.dtype.kind in "biuf"):
            raise TypeError(f"{name} must be a real number, not {type(value).__name__}")


def _finite(*values):
    """The finite rule of the argument checks; an int past the float range is not finite."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def _as_floats(values, name, rule="must be finite"):
    """values as a float64 array. An int past the float range raises
    ValueError(f"{name} {rule}"), and complex input a ValueError naming name,
    where numpy would drop the imaginary part."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind == "c" or kind == "O" and any(isinstance(v, (complex, np.complexfloating))
                                          for v in array.flat):
        raise ValueError(f"{name} must be real, not complex")
    try:
        return array.astype(np.float64, copy=False)
    except OverflowError:
        raise ValueError(f"{name} {rule}") from None


class VcsEvalError(Exception):
    """Base class for all package errors."""


class MalformedRecord(VcsEvalError):
    """A record failed validation; carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EmptyInput(VcsEvalError):
    """Zero records in the input."""


class UnsortedInput(VcsEvalError):
    """Timestamps decrease and sorting was not requested."""


class InvalidValue(VcsEvalError):
    """A stream value is out of its range; carries the 0-based row."""

    def __init__(self, row, message):
        self.row = row
        super().__init__(f"row {row}: {message}")


class LengthMismatch(VcsEvalError):
    """Paired label lists have different lengths."""


class NoPositives(VcsEvalError):
    """Average precision needs at least one positive label."""


class OneClassOnly(VcsEvalError):
    """AU-ROC needs both a positive and a negative label."""


class InsufficientSet(VcsEvalError):
    """A distance needs at least one other entry in the set."""


class DegenerateDistances(VcsEvalError):
    """d_r + d_disg = 0, the T statistic is undefined."""


class TooFewDisagreements(VcsEvalError):
    """VCS is undefined for fewer than 2 disagreement events."""


class AllZeroWeights(VcsEvalError):
    """The weighted soft statistic needs positive total weight."""


class NonFiniteGradient(VcsEvalError):
    """A weight-gradient entry of the soft statistic is not finite.

    Raised instead of returning inf or NaN, for instance when the true
    derivative exceeds the float64 range.
    """


class SpecViolation(VcsEvalError):
    """A generator spec breaks its invariants."""


class NonFiniteLoss(VcsEvalError):
    """Training produced a non-finite loss; carries the epoch index."""

    def __init__(self, epoch, message="non-finite loss"):
        self.epoch = epoch
        super().__init__(f"epoch {epoch}: {message}")
