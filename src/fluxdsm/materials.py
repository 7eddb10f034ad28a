"""Superconductor material records and the empirical critical-field law.

Critical fields are stored as H (A/m); the corresponding flux density
is exposed separately as mu0*H because the literature quotes both and
mixing them up is a classic unit bug. All temperatures are kelvin, all
lengths metres, the gap is in joules.
"""

from dataclasses import dataclass

from .constants import CODATA
from .errors import DomainError, PhaseViolationError

TYPE_I = "type-I"
TYPE_II = "type-II"


@dataclass(frozen=True)
class Material:
    """Parameter set for one superconductor.

    Hc0 is the zero-temperature anchor of the field up to which the
    material screens: the thermodynamic critical field for type-I, the
    lower critical field Hc1 for type-II.

    N0 is the single-spin density of states at the Fermi level per
    unit energy and volume (1/(J m^3)); sigma_n the normal-state
    conductivity (S/m); tau_s the superfluid momentum relaxation time
    (s) used by the two-fluid dispersion.
    """

    name: str
    kind: str
    Tc: float
    lambda_l: float
    delta: float
    vF: float
    kF: float
    N0: float
    sigma_n: float
    tau_s: float
    Hc0: float

    def __post_init__(self):
        if self.kind not in (TYPE_I, TYPE_II):
            raise DomainError(f"unknown material kind '{self.kind}'")
        # written as `not v > 0` so that nan fails the checks too
        if not self.Tc > 0:
            raise DomainError("Tc must be positive")
        if not self.lambda_l > 0:
            raise DomainError("lambda_l must be positive")
        if not self.delta >= 0:
            raise DomainError("delta must be non-negative")
        if not self.vF > 0:
            raise DomainError("vF must be positive")
        if not self.sigma_n > 0:
            raise DomainError("sigma_n must be positive")
        if not self.tau_s >= 0:
            raise DomainError("tau_s must be non-negative")
        if not self.Hc0 > 0:
            raise DomainError("Hc0 must be positive")

    @property
    def london_coefficient(self) -> float:
        """Lambda = mu0 * lambda_l^2 (H m), the London material constant."""
        return CODATA.mu0 * self.lambda_l**2


def critical_field(material: Material, T: float) -> float:
    """Critical field H_c(T) = H_c(0) * (1 - (T/Tc)^2) in A/m.

    H_c(0) is the material's anchor Hc0. Above Tc the material is
    normal and the critical field is 0 by convention.
    """
    # written as `not T >= 0` so that nan fails the check too
    if not T >= 0:
        raise DomainError("temperature must be non-negative")
    if T >= material.Tc:
        return 0.0
    return material.Hc0 * (1.0 - (T / material.Tc) ** 2)


def critical_flux_density(material: Material, T: float) -> float:
    """mu0 * H_c(T) in tesla, for comparisons against applied B fields."""
    return CODATA.mu0 * critical_field(material, T)


def check_superconducting(material: Material, T: float, b: float = 0.0,
                          label: str = "b") -> None:
    """Raise PhaseViolationError unless material is superconducting at
    temperature T (K) in the field b (T), named label in the message:
    T below Tc, and |b| below the critical flux density at T."""
    # written as `not x < y` so that nan fails the checks too
    if not T < material.Tc:
        raise PhaseViolationError(
            f"t = {T:g} K is not below {material.name}'s Tc "
            f"{material.Tc:g} K")
    bc = critical_flux_density(material, T)
    if not abs(b) < bc:
        raise PhaseViolationError(
            f"|{label}| = {abs(b):.4g} T is not below the critical flux "
            f"density {bc:.4g} T of {material.name} at t = {T:g} K")


# Sourced placeholder parameters. Round literature numbers; the solver
# contracts only need them to be self-consistent, not metrologically
# current.
BUILTIN_MATERIALS = {
    "lead": Material(
        name="lead", kind=TYPE_I, Tc=7.19, Hc0=6.39e4,
        lambda_l=3.7e-8, delta=2.16e-22, vF=1.83e6, kF=1.58e10,
        N0=1.3e47, sigma_n=4.8e6, tau_s=1e-12),
    "aluminum": Material(
        name="aluminum", kind=TYPE_I, Tc=1.196, Hc0=8.36e3,
        lambda_l=1.6e-8, delta=2.88e-23, vF=2.03e6, kF=1.75e10,
        N0=1.45e47, sigma_n=3.77e7, tau_s=1e-12),
    "niobium": Material(
        name="niobium", kind=TYPE_II, Tc=9.25, Hc0=1.43e5,
        lambda_l=3.9e-8, delta=2.48e-22, vF=1.37e6, kF=1.18e10,
        N0=9.8e46, sigma_n=6.9e6, tau_s=1e-12),
}


def get_material(name: str) -> Material:
    """Look up a built-in material by name."""
    try:
        return BUILTIN_MATERIALS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_MATERIALS))
        raise DomainError(
            f"unknown material '{name}' (known: {known})") from None
