"""Exception types shared across the package."""


class ImplicitFPError(Exception):
    """Base class for all package errors."""


class InvalidPointError(ImplicitFPError):
    """A point is outside the domain of its space."""


class CertificateError(ImplicitFPError):
    """A contraction certificate parameter is out of its admissible range."""


class NonconvergenceError(ImplicitFPError):
    """The inner solver exceeded its iteration budget.

    Carries the last residual and, when raised from a full run, the partial
    trace accumulated so far.
    """

    def __init__(self, message, residual=None, trace=None):
        super().__init__(message)
        self.residual = residual
        self.trace = trace


class ConfigError(ImplicitFPError):
    """CLI/config resolution failure (unknown name, bad value)."""
