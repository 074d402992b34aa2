"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: any MimicError is an input or
validation problem (exit 2) except DivergenceError, which signals a
numerical failure during training (exit 3).
"""


class MimicError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MimicError):
    """Input data violates a documented invariant."""


class FormatError(MimicError):
    """A text file or record stream could not be parsed."""


class ShapeError(MimicError):
    """Array dimensions do not agree."""


class OutOfRangeError(MimicError):
    """A query time falls outside the defined interval."""


class IngestionError(MimicError):
    """An external sample log cannot be regularized."""


class ConfigError(MimicError):
    """A configuration value is unusable."""


class DivergenceError(MimicError):
    """Training produced non-finite values.

    Carries the partial training log: one row per epoch that was still
    finite.
    """

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log
