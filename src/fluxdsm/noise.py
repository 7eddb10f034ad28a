"""Relaxation-process noise models: Lorentzian, 1/f, and synthesis.

PSDs are one-sided in ordinary frequency but written as functions of
angular frequency omega, so integrating S(2 pi f) over f from 0 to
infinity recovers the total power. A single relaxation process with
zero-lag power R0 and relaxation time tau1 gives the Lorentzian; a
1/tau-weighted continuum of them between tau1 and tau2 gives the
flicker band, whose closed form is

    S(omega) = (k'/omega) * (arctan(omega tau2) - arctan(omega tau1))

k' absorbs the 4*R0*k normalization of the underlying rate density.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError


@dataclass(frozen=True)
class NoiseModel:
    """Parameters of the relaxation-noise band.

    R0 : zero-lag power of the single-process autocorrelation
    tau1, tau2 : shortest / longest relaxation times bounding the band
        (s), 0 < tau1 < tau2
    kprime : flicker magnitude k' (power per unit log-rate * rad/s)
    seed : RNG seed for synthesis, fixed for reproducibility
    dof_coupled : how many of the three momentum degrees of freedom
        the readout couples to (1 for the flux device)
    """

    R0: float
    tau1: float
    tau2: float
    kprime: float
    seed: int = 0
    dof_coupled: int = 1

    def __post_init__(self):
        # written as `not v >= 0` so that nan fails the checks too
        if not self.R0 >= 0:
            raise DomainError("R0 must be non-negative")
        if not 0 < self.tau1 < self.tau2:
            raise DomainError(f"relaxation times tau1 = {self.tau1!r} s, "
                              f"tau2 = {self.tau2!r} s need 0 < tau1 < tau2")
        if not self.kprime >= 0:
            raise DomainError("kprime must be non-negative")
        if self.dof_coupled not in (1, 2, 3):
            raise DomainError("dof_coupled must be 1, 2 or 3")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DomainError("seed must be a non-negative integer")


def lorentzian_psd(model: NoiseModel, omega):
    """Single relaxation process: S(omega) = 4 R0 tau1 / (1 + (tau1 omega)^2).

    The total one-sided power integrates back to R0. omega >= 0 may
    have any shape; S has its shape.
    """
    omega = np.asarray(omega, dtype=float)
    # written as `not x >= 0` so that nan fails the check too
    if not np.all(omega >= 0):
        raise DomainError("omega must be non-negative")
    tau = model.tau1
    return 4.0 * model.R0 * tau / (1.0 + (tau * omega) ** 2)


def flicker_psd(model: NoiseModel, omega):
    """Flicker band from the 1/tau relaxation continuum.

    S(omega) = (k'/omega)(arctan(omega tau2) - arctan(omega tau1)),
    which runs flat below 1/tau2, falls as 1/omega in the band, and as
    1/omega^2 above 1/tau1. The omega -> 0 limit k'(tau2 - tau1) is
    used at omega = 0. omega >= 0 may have any shape; S has its shape.
    """
    omega = np.asarray(omega, dtype=float)
    # written as `not x >= 0` so that nan fails the check too
    if not np.all(omega >= 0):
        raise DomainError("omega must be non-negative")
    out = np.empty_like(omega)
    zero = omega == 0
    out[zero] = model.kprime * (model.tau2 - model.tau1)
    w = omega[~zero]
    out[~zero] = (model.kprime / w) * (np.arctan(w * model.tau2)
                                       - np.arctan(w * model.tau1))
    return out[()]


def check_synthesis_limits(model: NoiseModel, n: int, fs: float) -> float:
    """Check that synth_flicker_series can draw n samples of the band at
    sample rate fs: an integer n >= 4096, fs*tau2 > 10 so the slowest
    process is resolved (which implies fs > 0, since NoiseModel keeps
    tau2 > 0), and a band at least one decade wide. Returns the band's
    width in decades."""
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"sample count {n!r} is not an integer")
    if n < 4096:
        raise DomainError("need n >= 4096 samples")
    # written as `not x > 10` so that nan fails the check too
    if not fs * model.tau2 > 10:
        raise DomainError(f"sample rate {fs!r} Hz puts fs * tau2 at "
                          f"{fs * model.tau2!r}, which must exceed 10")
    decades = math.log10(model.tau2 / model.tau1)
    if decades < 1.0:
        raise DomainError("flicker band must span at least one decade")
    return decades


def synth_flicker_series(model: NoiseModel, n: int,
                         fs: float) -> np.ndarray:
    """Synthesize a time series whose PSD follows the flicker band.

    Superposes two-state random-telegraph processes with relaxation
    times log-spaced over [tau1, tau2], at least 20 per decade, equal
    amplitudes (a log-uniform rate grid is the discrete form of the
    1/tau weighting). The per-process flip probability per sample is
    matched exactly to the discrete-time autocorrelation, so processes
    faster than the sample rate degenerate gracefully to white noise.

    Each process draws n uniforms and then one start bit, and its level
    is built run by run between its flips. The series is bit-identical
    to stepping each process sample by sample and adding the processes
    in tau order, and deterministic for a given (model.seed, n, fs).
    The limits on n, fs and the band are those of check_synthesis_limits.
    """
    decades = check_synthesis_limits(model, n, fs)
    rng = np.random.default_rng(model.seed)
    m = math.ceil(20.0 * decades)
    taus = np.geomspace(model.tau1, model.tau2, m)
    amp = math.sqrt(model.kprime * math.log(model.tau2 / model.tau1)
                    / (4.0 * m))
    out = np.zeros(n)
    if amp == 0.0:
        return out
    dt = 1.0 / fs
    # one two-state process per tau. It flips at each sample whose
    # uniform falls below the flip probability q, so it is constant
    # between flips: run j spans edges[j-1] to edges[j] (0 and n at the
    # ends) at parity start + j, level amp when even and -amp when odd,
    # the same float that amp * (1 - 2 parity) gives. One repeat of the
    # alternating levels over the run lengths (at most n + 1 of them)
    # gives the process.
    u = np.empty(n)
    levels = np.tile((amp, -amp), n // 2 + 2)
    for tau in taus:
        q = -0.5 * math.expm1(-dt / tau)
        rng.random(out=u)
        start = int(rng.integers(0, 2))
        edges = np.flatnonzero(u < q)
        runs = np.diff(np.concatenate(((0,), edges, (n,))))
        out += np.repeat(levels[start:start + runs.size], runs)
    return out


@functools.lru_cache(maxsize=4)
def _welch_window(m: int, fs: float) -> np.ndarray:
    """welch_psd's periodic Hann window of m points with its density
    scale at sample rate fs, built once per (m, fs) and shared by every
    caller, so it is read-only."""
    w = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, m + 1)[:-1])
    # Python's left-to-right sum, as scipy sums it
    w = w * (1.0 / np.sqrt(sum(w**2) / (1.0 / fs)))
    w.setflags(write=False)
    return w


def welch_psd(x, fs: float, nperseg: int):
    """One-sided Welch PSD of a real series: periodic Hann segments of
    nperseg samples at half overlap, each less its mean, density
    scaling. Returns (freqs, psd), equal bit for bit to
    scipy.signal.welch(x, fs=fs, nperseg=nperseg, detrend="constant").

    The Hann window equals scipy's bit for bit and is kept apart from
    modulator._hann_periodic: the two differ in the last bit (2.2e-16
    at 8192 points), so sharing one would move psd.csv or spectrum.csv.
    """
    x = np.asarray(x, dtype=float)
    m = nperseg
    w = _welch_window(m, fs)
    hop = m - m // 2
    nseg = (x.size - m // 2) // hop
    seg = sliding_window_view(x, m)[::hop][:nseg]
    seg = seg - np.mean(seg, axis=-1, keepdims=True)
    spec = np.fft.rfft(seg * w, axis=-1)
    # (nfreq, nseg), C-contiguous: numpy then sums each bin's segments
    # pairwise along the last axis, in the order scipy's layout gives
    p = np.ascontiguousarray((spec.real**2 + spec.imag**2).T)
    p[1:-1 if m % 2 == 0 else None] *= 2.0
    return np.fft.rfftfreq(m, 1.0 / fs), p.mean(axis=-1)


def dof_variance_factor(model: NoiseModel) -> float:
    """Fraction of isotropic perturbation variance the device sees.

    Velocity perturbations are isotropic in three dimensions; a readout
    coupled to dof_coupled of them picks up dof_coupled/3 of the
    variance. The flux device couples to the single azimuthal direction
    and is therefore three times more robust than a device exposed to
    all of them.
    """
    return model.dof_coupled / 3.0
