"""Physical constants used throughout the simulator.

All values are CODATA 2018 (h, e, kB are exact in the 2019 SI). The
flux quantum phi0 is always derived from the stored h and e rather than
stored independently, so the h/(2e) identity holds to the last bit.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """The SI constants, fixed: the class takes no arguments and its
    one instance CODATA cannot be changed.

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

    h = 6.62607015e-34
    e = 1.602176634e-19
    mu0 = 1.25663706212e-6
    kB = 1.380649e-23
    hbar = h / (2.0 * math.pi)
    phi0 = h / (2.0 * e)


#: The constants instance shared by the whole package.
CODATA = PhysicalConstants()


def flux_quantum() -> float:
    """Flux quantum h/(2e) in Wb (equivalently T m^2)."""
    return CODATA.phi0
