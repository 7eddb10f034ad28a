"""Bogoliubov quasiparticle algebra and junction transport.

Energy arguments are measured from the Fermi level in joules;
coherence factors follow the convention where both U and V become
complex below the gap with U^2 + V^2 = 1 holding as a complex
identity. Transport coefficients use the delta-barrier matching with
dimensionless barrier strength Z; probabilities are exact and
conserved (A + B + C + D = 1) at every energy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA
from .errors import DomainError, QuadratureError
from .materials import Material

ELECTRON = "electron"
HOLE = "hole"
NORMAL_SIDE = "normal"
SUPER_SIDE = "superconductor"


@dataclass(frozen=True)
class JunctionConfig:
    """Junction parameter bundle.

    delta : superconducting gap (J)
    T : temperature (K)
    d : barrier / normal-bridge thickness (m)
    Z : dimensionless delta-barrier strength
    area : junction cross-section S (m^2)
    prefactor : opaque calibration lump A*e*N(0)*vF*S for the NIS
        current; carries the ampere scale of the quadrature result
    material : supplies vF, kF, N0 for the SNS prefactor forms
    r_sheet : contact resistance R_SH (ohm) for SNS prefactor form 3
    """

    delta: float
    T: float
    d: float
    Z: float = 0.0
    area: float = 1e-12
    prefactor: float = 1.0
    material: Material | None = None
    r_sheet: float | None = None

    def __post_init__(self):
        # written as `not v >= 0` so that nan fails the checks too
        if not self.delta >= 0:
            raise DomainError("gap must be non-negative")
        if not self.T >= 0:
            raise DomainError("temperature must be non-negative")
        if not self.d >= 0:
            raise DomainError("junction thickness must be non-negative")
        if not self.Z >= 0:
            raise DomainError("barrier strength Z must be non-negative")
        if not self.area > 0:
            raise DomainError("junction area must be positive")


def coherence_factors(eps, delta):
    """BCS coherence factors (U, V) at quasiparticle energy eps.

    Above the gap both are real with U^2 + V^2 = 1 and U^2 - V^2 =
    sqrt(eps^2 - delta^2)/eps. Below the gap the square roots turn
    imaginary and

        U = sqrt((1 + i sqrt(delta^2 - eps^2)/eps) / 2)
        V = sqrt((1 - i sqrt(delta^2 - eps^2)/eps) / 2)

    so U^2 + V^2 = 1 still holds as a complex identity while the
    probability weight |U|^2 + |V|^2 grows to delta/eps.

    Parameters
    ----------
    eps : float or array_like
        Quasiparticle energy, must be positive.
    delta : float
        Gap energy, non-negative.

    Returns
    -------
    (U, V) : complex arrays of the shape of eps (numpy complex scalars
    for a scalar eps).
    """
    eps = np.asarray(eps, dtype=float)
    # written as `not x > 0` so that nan fails the checks too
    if not np.all(eps > 0):
        raise DomainError("quasiparticle energy must be positive")
    if not delta >= 0:
        raise DomainError("gap must be non-negative")
    ratio = np.empty_like(eps, dtype=complex)
    above = eps >= delta
    ratio[above] = np.sqrt(eps[above] ** 2 - delta**2) / eps[above]
    below = ~above
    ratio[below] = 1j * np.sqrt(delta**2 - eps[below] ** 2) / eps[below]
    u = np.sqrt((1.0 + ratio) / 2.0)
    v = np.sqrt((1.0 - ratio) / 2.0)
    return u[()], v[()]


def dirty_spectrum(xi, delta):
    """Quasiparticle spectrum and weights for a dirty superconductor.

    For normal-state energy xi (from the Fermi level) and gap delta:

        eps = sqrt(xi^2 + delta^2)
        |U|^2 = (1 + xi/eps) / 2,   |V|^2 = (1 - xi/eps) / 2

    Notably free of any impurity parameter: a dirty material keeps the
    clean spectrum, which is the content of the impurity-insensitivity
    theorem this form embodies. At xi = delta = 0 the weights are the
    symmetric 1/2, 1/2.

    Returns (eps, u2, v2), each of the shape of xi.
    """
    xi = np.asarray(xi, dtype=float)
    # written as `not x >= 0` so that nan fails the check too
    if not delta >= 0:
        raise DomainError("gap must be non-negative")
    eps = np.hypot(xi, delta)
    with np.errstate(invalid="ignore"):
        ratio = np.where(eps > 0, xi / np.where(eps > 0, eps, 1.0), 0.0)
    u2 = 0.5 * (1.0 + ratio)
    v2 = 0.5 * (1.0 - ratio)
    return eps[()], u2[()], v2[()]


def btk_probabilities(eps, delta, Z):
    """Delta-barrier scattering probabilities (A, B, C, D).

    A: Andreev reflection, B: specular (normal) reflection,
    C: transmission without branch crossing, D: with branch crossing.
    Identically A + B + C + D = 1. Sub-gap (eps < delta) C = D = 0 and

        A = delta^2 / (eps^2 + (delta^2 - eps^2)(1 + 2 Z^2)^2)

    so at Z = 0 every sub-gap electron Andreev-retroreflects (A = 1).
    Each probability has the shape of eps.
    """
    eps = np.asarray(eps, dtype=float)
    # written as `not x >= 0` so that nan fails the checks too
    if not np.all(eps >= 0):
        raise DomainError("energy must be non-negative")
    if not Z >= 0:
        raise DomainError("barrier strength Z must be non-negative")
    a = np.empty_like(eps)
    b = np.empty_like(eps)
    c = np.zeros_like(eps)
    dd = np.zeros_like(eps)
    sub = eps < delta
    if np.any(sub):
        es = eps[sub]
        a[sub] = delta**2 / (es**2 + (delta**2 - es**2) * (1 + 2 * Z**2) ** 2)
        b[sub] = 1.0 - a[sub]
    sup = ~sub
    if np.any(sup):
        es = eps[sup]
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.where(es > 0, np.sqrt(es**2 - delta**2)
                           / np.where(es > 0, es, 1.0), 1.0)
        u2 = 0.5 * (1.0 + eta)
        v2 = 0.5 * (1.0 - eta)
        gamma = u2 + Z**2 * eta
        a[sup] = u2 * v2 / gamma**2
        b[sup] = eta**2 * Z**2 * (1 + Z**2) / gamma**2
        c[sup] = u2 * eta * (1 + Z**2) / gamma**2
        dd[sup] = v2 * eta * Z**2 / gamma**2
    return a[()], b[()], c[()], dd[()]


@dataclass(frozen=True)
class Channel:
    """One scattering outcome branch."""
    kind: str        # "reflected" or "transmitted"
    species: str     # what comes out
    label: str       # andreev / specular / transmitted / branch-crossed
    probability: float


@dataclass(frozen=True)
class ScatterOutcome:
    regime: str      # "sub-gap" or "above-gap"
    channels: tuple

    @property
    def total_probability(self) -> float:
        return sum(ch.probability for ch in self.channels)

    def probability(self, label: str) -> float:
        for ch in self.channels:
            if ch.label == label:
                return ch.probability
        return 0.0


def andreev_outcome(incident_species: str, incident_side: str, eps: float,
                    delta: float, Z: float = 0.0) -> ScatterOutcome:
    """Classify what happens to a carrier hitting the interface.

    From the normal side, sub-gap carriers retro-reflect as their
    conjugate species (Andreev, probability A) while the partner charge
    crosses as part of a Cooper pair; Z > 0 adds a specular branch.
    Above the gap the two transmission branches open. From the
    superconductor side only above-gap quasiparticles propagate, so
    sub-gap incidence there is a domain error.
    """
    if incident_species not in (ELECTRON, HOLE):
        raise DomainError(f"unknown species '{incident_species}'")
    if incident_side not in (NORMAL_SIDE, SUPER_SIDE):
        raise DomainError(f"unknown side '{incident_side}'")
    if eps <= 0:
        raise DomainError("energy must be positive")
    sub_gap = eps < delta
    if incident_side == SUPER_SIDE and sub_gap:
        raise DomainError(
            "no propagating quasiparticles below the gap on the "
            "superconducting side")
    a, b, c, d = btk_probabilities(eps, delta, Z)
    other = HOLE if incident_species == ELECTRON else ELECTRON
    # outgoing species of the andreev, specular, transmitted and
    # branch-crossed channels; quasiparticles in the superconductor
    # are electron-like or hole-like
    if incident_side == NORMAL_SIDE:
        species = (other, incident_species, incident_species + "-like",
                   other + "-like")
    else:
        species = (other + "-like", incident_species + "-like",
                   incident_species, other)
    channels = [Channel("reflected", species[0], "andreev", a),
                Channel("reflected", species[1], "specular", b)]
    if sub_gap:
        # The Andreev event moves a pair into the condensate; same
        # event as branch A, listed with zero extra probability
        # budget so the channel sum stays 1.
        channels.append(Channel("transmitted", "cooper-pair",
                                "pair-transfer", 0.0))
    else:
        channels += [Channel("transmitted", species[2], "transmitted", c),
                     Channel("transmitted", species[3], "branch-crossed", d)]
    return ScatterOutcome(regime="sub-gap" if sub_gap else "above-gap",
                          channels=tuple(channels))


def n_coherence_length(v_fermi: float, T: float) -> float:
    """Decay length of pair correlations in the normal bridge,
    xi_N = hbar * vF / (2 pi kB T)."""
    if not v_fermi > 0:
        raise DomainError("Fermi velocity must be positive")
    if not T > 0:
        raise DomainError("temperature must be positive")
    return CODATA.hbar * v_fermi / (2.0 * math.pi * CODATA.kB * T)


def sns_prefactor(cfg: JunctionConfig, form: int = 1) -> float:
    """Critical-current prefactor of the proximity junction.

    Three algebraic forms circulate for the same quantity; they are
    NOT numerically interchangeable for arbitrary parameters, so the
    selector makes the choice explicit and no equivalence is implied:

        form 1 (default): 2 e S vF kF^2 / (pi^2 d)
        form 2:           4 hbar N(0) vF^2 e S / d
        form 3:           16 hbar vF / (2 e d R_SH)
    """
    if cfg.material is None:
        raise DomainError("SNS prefactor needs a material (for vF, kF, N0)")
    if cfg.d <= 0:
        raise DomainError("sns prefactor needs a positive bridge length d")
    m = cfg.material
    if form == 1:
        return (2.0 * CODATA.e * cfg.area * m.vF * m.kF**2
                / (math.pi**2 * cfg.d))
    if form == 2:
        return 4.0 * CODATA.hbar * m.N0 * m.vF**2 * CODATA.e * cfg.area / cfg.d
    if form == 3:
        # written as `not x > 0` so that nan fails the check too
        if cfg.r_sheet is None or not cfg.r_sheet > 0:
            raise DomainError("form 3 needs a positive r_sheet")
        # a tiny d * r_sheet underflows to a zero that cannot divide
        den = 2.0 * CODATA.e * cfg.d * cfg.r_sheet
        if not den > 0:
            raise DomainError(
                f"d {cfg.d!r} m at r_sheet {cfg.r_sheet!r} ohm puts the "
                "form 3 prefactor outside the float range")
        return 16.0 * CODATA.hbar * m.vF / den
    raise DomainError(f"unknown prefactor form {form}")


def sns_current(cfg: JunctionConfig, phi, form: int = 1):
    """Supercurrent through a long proximity bridge:

        I = P * exp(-d / xi_N) * sin(phi)

    with P from sns_prefactor and xi_N the normal coherence length at
    cfg.T. phi may be an array. Amperes out.
    """
    p = sns_prefactor(cfg, form)
    xi_n = n_coherence_length(cfg.material.vF, cfg.T)
    return p * math.exp(-cfg.d / xi_n) * np.sin(phi)


def _btk_kernel(e, z):
    """1 + A - B of btk_probabilities at energy e >= 0 (gap units) as
    plain float arithmetic. Sub-gap B = 1 - A, so the kernel is 2A;
    above the gap it is 2 / (1 + eta (1 + 2 Z^2)), eta = sqrt(e^2 - 1)/e."""
    w = 1.0 + 2.0 * z * z
    if e < 1.0:
        e2 = e * e
        return 2.0 / (e2 + (1.0 - e2) * w * w)
    return 2.0 / (1.0 + math.sqrt(e * e - 1.0) / e * w)


def _fermi(x, kt):
    """Fermi function 1/(exp(x/kt) + 1) of Python floats; math.exp only
    ever sees a non-positive exponent, so it cannot overflow."""
    y = x / kt
    if y <= 0.0:
        return 1.0 / (1.0 + math.exp(y))
    w = math.exp(-y)
    return w / (1.0 + w)


# BCS ratio of the zero-temperature gap to kB Tc
BCS_GAP_RATIO = 1.764
# largest |eV| / delta an NIS sweep takes: past about 1.3e154, e * e in
# _btk_kernel overflows and the current falls away from the ohmic limit
NIS_MAX_EV = 1e150


def check_nis(cfg: JunctionConfig, voltage=0.0) -> None:
    """Raise DomainError unless nis_current can sweep cfg over voltage
    (volts, any shape): T must lie between 0 and the BCS Tc of the gap,
    delta / (1.764 kB), past which the Fermi difference of the integrand
    cancels, every |eV| / delta must be at most NIS_MAX_EV, and the
    current scale prefactor * delta must be a finite float."""
    if cfg.T <= 0:
        raise DomainError("NIS current needs T > 0")
    if cfg.delta <= 0:
        raise DomainError("NIS current needs a positive gap delta")
    tc = cfg.delta / (BCS_GAP_RATIO * CODATA.kB)
    # written as `not x < y` so that nan fails the checks too
    if not cfg.T < tc:
        raise DomainError(
            f"t = {cfg.T:g} K is not below the BCS Tc {tc:.3g} K of the "
            f"gap delta = {cfg.delta:g} J")
    if not abs(cfg.prefactor * cfg.delta) < math.inf:
        raise DomainError(
            f"prefactor {cfg.prefactor:g} times delta {cfg.delta:g} J "
            "leaves the float range")
    v_max = float(np.max(np.abs(voltage), initial=0.0))
    if not CODATA.e * v_max / cfg.delta <= NIS_MAX_EV:
        raise DomainError(
            f"|V| = {v_max:g} V is past the NIS sweep limit "
            f"{NIS_MAX_EV * cfg.delta / CODATA.e:g} V "
            f"(|eV| / delta = {NIS_MAX_EV:g})")


# relative accuracy asked of each NIS quadrature; an error estimate
# past 1e3 times this (of the larger of |I| and kT) is a QuadratureError
NIS_RTOL = 1e-9


def _nis_integrand(s, ev, kt, z):
    """The NIS kernel of nis_current in gap units."""
    return _btk_kernel(abs(s), z) * (_fermi(s - ev, kt) - _fermi(s, kt))


# below this |eV| / kT, nis_current takes the Fermi difference from
# _nis_integrand_small, whose form does not cancel
NIS_SMALL_EV = 1e-3


def _nis_integrand_small(s, ev, kt, z):
    """_nis_integrand for |ev| < NIS_SMALL_EV kt, with the Fermi
    difference in the exact form sinh(a/2) / (cosh(y - a/2) + cosh(a/2)),
    y = s/kt and a = ev/kt, which keeps its digits as a goes to 0; it is
    0.0 past |y - a/2| = 700, short of where math.cosh overflows."""
    a = ev / kt
    u = s / kt - 0.5 * a
    if abs(u) > 700.0:
        return 0.0
    return (_btk_kernel(abs(s), z) * math.sinh(0.5 * a)
            / (math.cosh(u) + math.cosh(0.5 * a)))


def nis_current(cfg: JunctionConfig, voltage):
    """NIS junction current by quadrature of the interface kernel:

        I(V) = prefactor * Integral (1 + A(eps) - B(eps))
                        * (f0(eps - eV) - f0(eps)) d eps

    with A, B the Andreev/specular probabilities at cfg.Z and f0 the
    Fermi function at cfg.T (Boltzmann constant included; energies in
    joules). The prefactor lump carries the ampere scale.

    The integrand is evaluated in closed form, in gap units e = eps/delta:

        1 + A - B = 2 / (e^2 + (1 - e^2)(1 + 2 Z^2)^2)      e < 1
        1 + A - B = 2 / (1 + eta (1 + 2 Z^2)),  eta = sqrt(e^2 - 1)/e

    which equals 1 + A - B from btk_probabilities. The per-point error
    contract is unchanged: each voltage is its own adaptive quadrature,
    checked against its own error bound.

    voltage (volts) may have any shape; the currents (amperes) have its
    shape. Raises DomainError outside check_nis's domain, and
    QuadratureError if the integrator cannot reach NIS_RTOL at a
    voltage; its diagnostics carry the estimate and its abserr.
    """
    # scipy loads here, not with the package: no other kind needs it
    from scipy.integrate import quad

    volts = np.asarray(voltage, dtype=float)
    check_nis(cfg, volts)
    # Work in gap units so the integrand is order one regardless of the
    # joule scale of delta; the delta factor is restored at the end.
    delta = cfg.delta
    kt = CODATA.kB * cfg.T / delta
    z = cfg.Z

    vals = np.empty_like(volts)
    for i in np.ndindex(volts.shape):
        v = volts[i]
        ev = CODATA.e * float(v) / delta
        lo = min(-30.0 * kt, ev - 30.0 * kt, -1.5)
        hi = max(30.0 * kt, ev + 30.0 * kt, 1.5)
        breakpoints = sorted(p for p in (-1.0, 1.0, ev) if lo < p < hi)
        integrand = (_nis_integrand_small if abs(ev) < NIS_SMALL_EV * kt
                     else _nis_integrand)
        # full_output returns QUADPACK's message instead of warning; the
        # estimated-error check below is the convergence contract
        val, err = quad(integrand, lo, hi, args=(ev, kt, z),
                        points=breakpoints, limit=400, epsabs=0.0,
                        epsrel=NIS_RTOL, full_output=1)[:2]
        scale = max(abs(val), kt)
        if err > 1e3 * NIS_RTOL * scale:
            raise QuadratureError(
                f"NIS quadrature did not converge at V = {v}",
                diagnostics={"estimate": val, "abserr": err})
        vals[i] = val
    # one numpy product, so an overflow meets the caller's np.errstate
    return (cfg.prefactor * delta * vals)[()]


def nis_current_lowT(cfg: JunctionConfig, voltage):
    """Zero-temperature tunneling limit of the NIS current:

        I(V) = prefactor / (1 + Z^2) * sqrt((eV)^2 - delta^2)
               for eV > delta, else 0.

    Shares the prefactor lump with nis_current; in the tunneling
    regime (Z >> 1, kT << delta) the two agree. The currents have the
    shape of voltage.
    """
    volts = np.asarray(voltage, dtype=float)
    ev = CODATA.e * volts
    out = np.zeros_like(volts)
    above = ev > cfg.delta
    out[above] = (cfg.prefactor / (1.0 + cfg.Z**2)
                  * np.sqrt(ev[above] ** 2 - cfg.delta**2))
    return out[()]
