"""Desk-scale simulator of a flux-trapping delta-sigma front end:
slab electrodynamics, the flux amplifier-integrator state machine,
NS junction transport, 1/f noise synthesis, and the modulator loop."""

__version__ = "0.1.0"

from .constants import CODATA, flux_quantum
from .errors import (ConfigError, ConfigSyntaxError, DomainError,
                     FluxDsmError, FluxLossError, InstabilityError,
                     PhaseViolationError, QuadratureError,
                     UnknownKeyError)

__all__ = [
    "CODATA", "flux_quantum",
    "ConfigError", "ConfigSyntaxError", "DomainError", "FluxDsmError",
    "FluxLossError", "InstabilityError", "PhaseViolationError",
    "QuadratureError", "UnknownKeyError", "__version__",
]
