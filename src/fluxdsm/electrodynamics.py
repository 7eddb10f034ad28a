"""Analytic field and current profiles for conducting slabs and coils.

Geometry convention: the slab occupies -d <= x <= d, the applied AC
field B0*cos(omega*t) is parallel to the faces, and profiles are
returned as complex phasors B_hat(x) so that the physical field is
Re[B_hat(x) * exp(j*omega*t)]. Circulating current densities follow
the same convention.

A Crank-Nicolson time-domain solver for the underlying diffusion
equation is included purely as a verification oracle for the
closed-form normal-slab profile; nothing else in the package calls it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA
from .errors import DomainError
from .materials import Material, check_superconducting


@dataclass(frozen=True)
class SlabConfig:
    """Slab of half-thickness d (m) in an applied field phasor B0 (T)
    oscillating at omega (rad/s), held at temperature T (K)."""

    d: float
    material: Material
    B0: float
    omega: float
    T: float = 0.0

    def __post_init__(self):
        # written as `not v > 0` so that nan fails the checks too
        if not self.d > 0:
            raise DomainError("slab half-thickness d must be positive")
        if not self.omega >= 0:
            raise DomainError("omega must be non-negative")
        if not self.T >= 0:
            raise DomainError("temperature must be non-negative")


@dataclass(frozen=True)
class FieldProfile:
    """Phasor field/current profile sampled on a grid inside the slab."""

    B: np.ndarray
    J: np.ndarray


def _check_grid(x, d):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("x must be a non-empty 1-D grid")
    if np.any(np.abs(x) > d * (1 + 1e-12)):
        raise DomainError("grid point outside the slab |x| <= d")
    return x


def skin_depth(omega: float, sigma: float) -> float:
    """Normal-metal skin depth sqrt(2/(omega*mu0*sigma)) in metres."""
    # `not x > 0` here and below, so that nan fails the checks too
    if not (omega > 0 and sigma > 0):
        raise DomainError("skin depth needs omega, sigma > 0")
    return math.sqrt(2.0 / (omega * CODATA.mu0 * sigma))


def normal_slab_profile(cfg: SlabConfig, x) -> FieldProfile:
    """Field and circulating current in a normal slab under an AC field.

    Evaluates the flux-diffusion steady state

        B(x) = B0 * cosh(k x) / cosh(k d),   k = (1+j) sqrt(omega mu sigma / 2)
        J(x) = sqrt(omega sigma / (2 mu)) * B0 * (1+j) * sinh(k x) / sinh(k d)

    At omega = 0 the field penetrates uniformly and no circulating
    current flows.

    Parameters
    ----------
    cfg : SlabConfig
        Uses d, B0, omega and material.sigma_n.
    x : array_like
        Sample points, must satisfy |x| <= d.

    Returns
    -------
    FieldProfile
        Complex B (T) and J (A/m^2) phasors on the grid.
    """
    x = _check_grid(x, cfg.d)
    sigma = cfg.material.sigma_n
    mu = CODATA.mu0
    if cfg.omega == 0.0:
        return FieldProfile(B=np.full_like(x, cfg.B0, dtype=complex),
                            J=np.zeros_like(x, dtype=complex))
    k = (1 + 1j) * math.sqrt(cfg.omega * mu * sigma / 2.0)
    b = cfg.B0 * np.cosh(k * x) / np.cosh(k * cfg.d)
    j_amp = math.sqrt(cfg.omega * sigma / (2.0 * mu)) * cfg.B0 * (1 + 1j)
    j = j_amp * np.sinh(k * x) / np.sinh(k * cfg.d)
    return FieldProfile(B=b, J=j)


def super_slab_profile(cfg: SlabConfig, x) -> FieldProfile:
    """Meissner screening profile of a superconducting slab.

    Evaluates the London steady state with effective penetration depth
    lambda_eff = sqrt(Lambda / mu0) (Lambda the London material
    constant, so lambda_eff equals the material's London depth):

        B(x) = B0 * cosh(x / lambda_eff) / cosh(d / lambda_eff)
        J(x) = B0 / sqrt(mu0 * Lambda) * sinh(x / lambda_eff) / sinh(d / lambda_eff)

    The profile is frequency independent; omega plays no role here.

    Raises
    ------
    PhaseViolationError
        If cfg.T is not below the material's Tc, or |B0| is at or above
        its critical flux density mu0*Hc(T) at cfg.T (the slab would
        not be superconducting).
    """
    x = _check_grid(x, cfg.d)
    check_superconducting(cfg.material, cfg.T, cfg.B0, "B0")
    lam_big = cfg.material.london_coefficient
    lam_eff = math.sqrt(lam_big / CODATA.mu0)
    b = cfg.B0 * np.cosh(x / lam_eff) / np.cosh(cfg.d / lam_eff)
    j = (cfg.B0 / math.sqrt(CODATA.mu0 * lam_big)
         * np.sinh(x / lam_eff) / np.sinh(cfg.d / lam_eff))
    return FieldProfile(B=b, J=j)


def two_fluid_wavenumber(material: Material, omega: float) -> complex:
    """Complex spatial decay wavenumber of the two-fluid slab equation.

        kappa^2 = (1 + j omega (mu sigma lambda^2 + tau_s))
                  / (lambda^2 (1 + j omega tau_s))

    with lambda the London depth, sigma the normal-fluid conductivity
    and tau_s the superfluid relaxation time. The principal root with
    Re(kappa) >= 0 is returned. Limits: omega -> 0 gives 1/lambda
    (pure Meissner screening); lambda -> inf gives sqrt(j omega mu
    sigma) (normal-metal diffusion).
    """
    # written as `not x >= 0` so that nan fails the check too
    if not omega >= 0:
        raise DomainError("omega must be non-negative")
    lam = material.lambda_l
    sigma = material.sigma_n
    tau_s = material.tau_s
    mu = CODATA.mu0
    num = 1.0 + 1j * omega * (mu * sigma * lam**2 + tau_s)
    den = lam**2 * (1.0 + 1j * omega * tau_s)
    return complex(np.sqrt(num / den))


def square_loop_center_field(side: float, i_diff_half: float) -> float:
    """Center field of a square loop of side L carrying the comparator
    half-difference current, B = 2*sqrt(2)*mu0*I / (pi*L)."""
    if not side > 0:
        raise DomainError("loop side must be positive")
    return 2.0 * math.sqrt(2.0) * CODATA.mu0 * i_diff_half / (math.pi * side)


def square_loop_current_for_field(side: float, b_center: float) -> float:
    """Half-difference current that puts b_center at the middle of a
    square loop, I = pi*L*B / (2*sqrt(2)*mu0), elementwise for an array
    of fields. Inverse of square_loop_center_field."""
    if not side > 0:
        raise DomainError("loop side must be positive")
    return math.pi * side * b_center / (2.0 * math.sqrt(2.0) * CODATA.mu0)


def circular_loop_center_field(radius: float, current: float) -> float:
    """Center field of a circular loop, B = mu0 * I / (2 R)."""
    if not radius > 0:
        raise DomainError("loop radius must be positive")
    return CODATA.mu0 * current / (2.0 * radius)


def circular_loop_current_for_field(radius: float, b_center: float) -> float:
    """Loop current that produces b_center at the middle of a circular
    loop, I = 2 R B / mu0."""
    if not radius > 0:
        raise DomainError("loop radius must be positive")
    return 2.0 * radius * b_center / CODATA.mu0


def crank_nicolson_diffusion(d: float, sigma: float, omega: float,
                             npoints: int = 2001, periods: int = 20,
                             steps_per_period: int = 1024):
    """Time-domain oracle for the normal-slab profile.

    Solves the flux diffusion equation

        mu0 * sigma * dB/dt = d^2B/dx^2

    on [-d, d] with Dirichlet boundaries B(+-d, t) = cos(omega*t)
    and B(x, 0) = 0, using Crank-Nicolson stepping. After the
    transient has run for the given number of drive periods, the
    complex steady-state phasor is extracted by projecting the final
    period onto exp(j*omega*t).

    Returns
    -------
    x : ndarray
        The spatial grid (npoints values spanning [-d, d]).
    b_hat : ndarray of complex
        Extracted phasor amplitude at each grid point per unit drive
        (the diffusion is linear); the boundary entries are 1.

    Notes
    -----
    Verification use only. Accuracy is second order in both dx and dt;
    the defaults resolve a slab a few skin depths thick to better than
    1e-3 relative.
    """
    # scipy loads here, not with the package: no scenario runs the oracle
    from scipy.linalg import cho_solve_banded, cholesky_banded

    if not (d > 0 and sigma > 0 and omega > 0) or npoints < 5:
        raise DomainError("need d, sigma, omega > 0 and npoints >= 5")
    x = np.linspace(-d, d, npoints)
    dx = x[1] - x[0]
    period = 2.0 * math.pi / omega
    dt = period / steps_per_period
    r = dt / (CODATA.mu0 * sigma * dx * dx)

    n_in = npoints - 2
    # A = I - (r/2) T, symmetric positive definite; factor once.
    ab = np.zeros((2, n_in))
    ab[0, 1:] = -0.5 * r
    ab[1, :] = 1.0 + r
    cho = cholesky_banded(ab)

    u = np.zeros(n_in)
    nsteps = periods * steps_per_period
    proj = np.zeros(n_in, dtype=complex)
    t = 0.0
    for step in range(1, nsteps + 1):
        t_new = step * dt
        bc_old = math.cos(omega * t)
        bc_new = math.cos(omega * t_new)
        rhs = u.copy()
        rhs[1:-1] += 0.5 * r * (u[:-2] - 2.0 * u[1:-1] + u[2:])
        rhs[0] += 0.5 * r * (u[1] - 2.0 * u[0] + bc_old)
        rhs[-1] += 0.5 * r * (u[-2] - 2.0 * u[-1] + bc_old)
        rhs[0] += 0.5 * r * bc_new
        rhs[-1] += 0.5 * r * bc_new
        u = cho_solve_banded((cho, False), rhs)
        t = t_new
        if step > nsteps - steps_per_period:
            proj += u * np.exp(-1j * omega * t)
    b_hat = np.empty(npoints, dtype=complex)
    b_hat[1:-1] = 2.0 * proj / steps_per_period
    b_hat[0] = b_hat[-1] = 1.0
    return x, b_hat
