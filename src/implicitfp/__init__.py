"""Implicit S-, Ishikawa- and Mann-type fixed-point iterations in
W-hyperbolic spaces, with convergence-rate envelopes and a data-dependence
bound experiment."""

from . import bounds, experiments, mappings, schemes, spaces
from .errors import (CertificateError, ConfigError, ImplicitFPError, InvalidPointError,
                     NonconvergenceError)

__all__ = [
    "bounds", "experiments", "mappings", "schemes", "spaces",
    "ImplicitFPError", "InvalidPointError", "CertificateError",
    "NonconvergenceError", "ConfigError",
]

__version__ = "0.1.0"
