"""The two errors the toolkit raises, one per CLI exit code.

MimicError (exit 2): an input the toolkit cannot use, a file, an option
or a value; its message says which and why.  DivergenceError (exit 3),
a MimicError: training produced non-finite values.
"""

import math


class MimicError(Exception):
    """An unusable input; the message names it."""


class DivergenceError(MimicError):
    """Training produced non-finite values.

    Carries the partial training log: one row per epoch that was still
    finite.
    """

    def __init__(self, message, log):
        super().__init__(message)
        self.log = log


def require_positive(what: str, value):
    """Raise MimicError unless value is positive and finite (NaN is not)."""
    if not 0 < value < math.inf:
        raise MimicError(f"{what} must be positive and finite, got {value}")
