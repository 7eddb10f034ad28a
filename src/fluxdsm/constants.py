"""Physical constants used throughout the simulator.

All values are CODATA 2018 (h, e, kB are exact in the 2019 SI). The
flux quantum phi0 is always derived from the stored h and e rather than
stored independently, so the h/(2e) identity holds to the last bit.
"""

from dataclasses import dataclass, field

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalConstants:
    """Bundle of SI constants.

    Attributes
    ----------
    h : float
        Planck constant, J s.
    e : float
        Elementary charge, C.
    mu0 : float
        Vacuum permeability, H/m.
    kB : float
        Boltzmann constant, J/K.
    hbar : float
        Reduced Planck constant, J s. Derived.
    phi0 : float
        Superconducting flux quantum h/(2e), Wb. Derived.
    """

    h: float = 6.62607015e-34
    e: float = 1.602176634e-19
    mu0: float = 1.25663706212e-6
    kB: float = 1.380649e-23
    hbar: float = field(init=False, default=0.0)
    phi0: float = field(init=False, default=0.0)

    def __post_init__(self):
        # written as `not v > 0` so that nan fails the check too
        if not (self.h > 0 and self.e > 0 and self.mu0 > 0 and self.kB > 0):
            raise DomainError("physical constants must be positive")
        import math

        object.__setattr__(self, "hbar", self.h / (2.0 * math.pi))
        object.__setattr__(self, "phi0", self.h / (2.0 * self.e))


#: Default constants instance shared by the whole package.
CODATA = PhysicalConstants()


def flux_quantum() -> float:
    """Flux quantum h/(2e) in Wb (equivalently T m^2)."""
    return CODATA.phi0
