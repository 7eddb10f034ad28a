"""Delta-sigma modulator loop around the flux comparator.

Feedforward (CIFF) topology with cascaded delayed integrators. The
first integrator accumulates the delayed loop error; later stages run
off the fresh upstream state:

    x1[k] = x1[k-1] + c1 (u[k-1] - v[k-1])
    xi[k] = xi[k-1] + ci x_{i-1}[k]        i >= 2
    y[k]  = sum_i a_i xi[k]
    v[k]  = Q(y[k])

All loop states are normalized to full scale, so u = +-1 spans the
comparator range. Defaults a = (2, 4), c = (0.5, 0.5) place both NTF
zeros at DC with denominator exactly 1, i.e. a pure (1 - 1/z)^2 shape.

The first integrator can optionally be realized by the flux-trapping
device: per sample the loop error is trapped as an integer number of
flux quanta over the cylinder area, multiplied by the schedule gain,
and summed in the pickup accumulator. Dividing the readout by the gain
recovers the ideal integrator up to single-quantum granularity.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .comparator import (REFERENCE_I_BIAS, REFERENCE_SIDE, ComparatorConfig,
                         make_comparator)
from .constants import CODATA
from .errors import ConfigError, DomainError, InstabilityError
from .fluxtrap import (CylinderGeometry, default_amplification_schedule,
                       run_amplification_sequence, settle_time_device)
from .noise import NoiseModel, synth_flicker_series

BACKENDS = ("ideal", "flux-device")
# device settle-time constants (s): Cooper-pair formation and one E-coil
# step, for the settle-time warning of a flux-device run
TAU_COOPER = 1e-10
TAU_ECOIL = 3e-10
# bins on each side of the tone bin that count as signal power in SNDR
SIGNAL_GUARD_BINS = 3


def _default_comparator() -> ComparatorConfig:
    return make_comparator(side=REFERENCE_SIDE, i_bias=REFERENCE_I_BIAS)


@dataclass(frozen=True)
class ModulatorConfig:
    """The loop order is len(a), one feedforward gain a_i and one
    integrator gain c_i per integrator."""

    osr: int = 128
    a: tuple = (2.0, 4.0)
    c: tuple = (0.5, 0.5)
    comparator: ComparatorConfig = field(default_factory=_default_comparator)
    backend: str = "ideal"
    geometry: Optional[CylinderGeometry] = None
    schedule: Optional[tuple] = None
    fs: float = 1.0
    full_scale: Optional[float] = None
    stability_bound: float = 8.0
    input_noise: Optional[NoiseModel] = None

    def __post_init__(self):
        if not isinstance(self.osr, int) or self.osr < 8:
            raise ConfigError("osr must be an integer >= 8")
        if len(self.a) != len(self.c):
            raise ConfigError("a and c must each have one entry per stage")
        if not 1 <= len(self.a) <= 4:
            raise ConfigError("order (the length of a and c) must be in 1..4")
        # written as `not v > 0` so that nan fails the checks too
        if not all(v > 0 for v in (*self.a, *self.c)):
            raise ConfigError("feedforward and integrator gains must be > 0")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}")
        if self.backend == "flux-device" and self.geometry is None:
            raise ConfigError("flux-device backend needs a cylinder geometry")
        if self.backend == "ideal" and not (self.geometry is None
                                            and self.schedule is None):
            raise ConfigError("ideal backend takes no geometry or schedule")
        if not self.fs > 0:
            raise ConfigError("sample rate must be positive")
        if self.full_scale is not None and not self.full_scale > 0:
            raise ConfigError("full_scale must be positive")
        if not self.stability_bound > 0:
            raise ConfigError("stability bound must be positive")
        # the loop rounds y, up to sum(a) * stability_bound, to LSBs, and
        # the device integrator rounds the loop error to whole quanta;
        # both counts must be finite floats
        if not (sum(self.a) * self.stability_bound * self.full_scale_field
                / self.comparator.b_lsb < math.inf):
            raise DomainError(
                f"full scale {self.full_scale_field!r} T and stability bound "
                f"{self.stability_bound!r} put the loop sum past the float "
                "range in comparator LSBs")
        if self.backend == "flux-device":
            if not 0.0 < self.quanta_per_unit < math.inf:
                raise DomainError(
                    f"full scale {self.full_scale_field!r} T is "
                    f"{self.quanta_per_unit!r} flux quanta over the bore, "
                    "not a positive finite count")

    @property
    def full_scale_field(self) -> float:
        """Field magnitude mapped to normalized unity (T)."""
        if self.full_scale is not None:
            return self.full_scale
        return self.comparator.half_range * self.comparator.b_lsb

    @property
    def quanta_per_unit(self) -> float:
        """Flux quanta that one full-scale unit traps over the bore of
        the flux-device geometry."""
        return self.full_scale_field * self.geometry.area / CODATA.phi0


@dataclass(frozen=True)
class TraceSet:
    """One modulator run: stimulus, codes, and internal state history.
    state_peak holds the peak |x_i| of each integrator over the run, the
    headroom left against config.stability_bound."""

    config: ModulatorConfig
    codes: np.ndarray
    states: np.ndarray
    saturation_count: int
    device_gain: Optional[int] = None
    state_peak: tuple = ()


def test_tone(n: int, cycles: int, amplitude: float) -> np.ndarray:
    """Coherent sine of an integer number of cycles over n samples, in
    normalized units (1.0 = full scale). Integer cycle counts keep the
    tone on a bin center so window leakage stays out of the noise
    estimate."""
    if n < 2:
        raise DomainError("need at least two samples")
    if not isinstance(cycles, (int, np.integer)) or cycles < 1:
        raise DomainError("cycles must be a positive integer")
    if cycles * 2 > n:
        raise DomainError("tone above the Nyquist bin")
    k = np.arange(n)
    return amplitude * np.sin(2.0 * math.pi * cycles * k / n)


def run_modulator(cfg: ModulatorConfig, u: Sequence) -> TraceSet:
    """Run the loop over a normalized input trace u, |u[k]| <= 1
    (u = 1 corresponds to the field cfg.full_scale_field). Deterministic
    for a fixed config: the only randomness is the optional input
    noise synthesis, and that is pinned by cfg.input_noise.seed.

    Raises InstabilityError when any integrator state leaves the
    configured bound; the offending sample index rides on the error.
    On the flux-device backend, raises DomainError when the schedule
    leaves no ring, and warns when one clock period leaves under half
    a cycle of margin over the device settle time.

    The loop is one plain-Python core for every order and both
    backends. Per sample it computes each stage, checks it against the
    bound, stores it and adds it to y in one pass; the input is read and
    codes and states are written through memoryviews, so no numpy scalar
    is made per sample. Every float operation keeps its operands and
    their order (x1 + c1 err, acc (c1 / gain) / quanta, xi + ci x_{i-1},
    then y summed from stage 1 up), so codes and states are bit-identical
    to the difference equations above evaluated in that order.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise DomainError("input trace must be a nonempty 1-d array")
    if not np.all(np.abs(u) <= 1.0):
        # written so that nan fails it too
        raise DomainError("input must stay within [-1, 1] of full scale")
    n = u.size
    fsf = cfg.full_scale_field
    comp = cfg.comparator
    hr = comp.half_range
    lsb_n = comp.b_lsb / fsf

    u_n = u
    if cfg.input_noise is not None:
        # injected ahead of the quantizer, in normalized units; the
        # flicker amplitude calibration is the caller's k'
        u_n = u + synth_flicker_series(cfg.input_noise, n, cfg.fs)

    device_gain = None
    quanta_per_unit = 0.0
    if cfg.backend == "flux-device":
        geom = cfg.geometry
        # one clock period must leave room for the device to settle
        t_settle = settle_time_device(TAU_COOPER, geom.n_segments, TAU_ECOIL)
        if cfg.fs * t_settle > 0.5:
            warnings.warn(
                f"clock period {1.0 / cfg.fs:.3e} s leaves under half "
                f"a cycle of margin over the device settle time "
                f"{t_settle:.3e} s", stacklevel=2)
        schedule = cfg.schedule
        if schedule is None:
            schedule = default_amplification_schedule(geom.n_segments)
        # gain is set by the schedule topology alone; one reference run
        _, device_gain = run_amplification_sequence(
            geom, comp.b_lsb, schedule)
        if device_gain < 1:
            raise DomainError("the device schedule leaves no ring to "
                              "integrate the loop error")
        quanta_per_unit = cfg.quanta_per_unit

    order = len(cfg.a)
    device = device_gain is not None
    c0, a0 = cfg.c[0], cfg.a[0]
    c0_gain = c0 / device_gain if device else 0.0
    # (i, c_i, a_i) of the stages after the first
    stages = tuple(zip(range(1, order), cfg.c[1:], cfg.a[1:]))
    bound = cfg.stability_bound
    neg_bound = -bound
    codes = np.empty(n, dtype=np.int64)
    states = np.empty((n, order), dtype=float)
    # memoryviews read and write the arrays as plain Python floats and
    # ints, with no numpy scalar per access; states is written flat,
    # row by row
    u_view = memoryview(u_n)
    code_view = memoryview(codes)
    state_view = memoryview(states.reshape(-1))
    x = [0.0] * order
    x0 = 0.0
    acc = 0
    err = 0.0
    j = 0
    saturations = 0

    for k in range(n):
        if device:
            # round() of a float is the ties-to-even int, as in
            # fluxtrap's trapping
            acc += device_gain * round(err * quanta_per_unit)
            x0 = acc * c0_gain / quanta_per_unit
        else:
            x0 = x0 + c0 * err
        if not neg_bound <= x0 <= bound:
            raise _left_bound(1, bound, k)
        state_view[j] = x0
        j += 1
        y = a0 * x0
        prev = x0
        for i, ci, ai in stages:
            xi = x[i] + ci * prev
            if not neg_bound <= xi <= bound:
                raise _left_bound(i + 1, bound, k)
            x[i] = xi
            state_view[j] = xi
            j += 1
            y += ai * xi
            prev = xi
        # comparator.quantize at the normalized LSB, inlined: a call
        # per sample would cost more than the rest of the step
        raw = round(y / lsb_n)
        if raw > hr:
            raw = hr
            saturations += 1
        elif raw < -hr:
            raw = -hr
            saturations += 1
        code_view[k] = raw
        err = u_view[k] - raw * lsb_n

    return TraceSet(config=cfg, codes=codes, states=states,
                    saturation_count=saturations, device_gain=device_gain,
                    state_peak=tuple(np.max(np.abs(states), axis=0).tolist()))


def _left_bound(stage: int, bound: float, k: int) -> InstabilityError:
    return InstabilityError(
        f"integrator {stage} left [-{bound}, {bound}] at sample {k}",
        sample=k)


def _hann_periodic(n: int) -> np.ndarray:
    k = np.arange(n)
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * k / n)


def power_spectrum(x: np.ndarray, fs: float = 1.0):
    """Hann-windowed one-sided power spectrum of a real series.
    Returns (freqs, power) with exactly n//2 bins (DC in, Nyquist out)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    w = _hann_periodic(n)
    spec = np.fft.rfft(x * w)
    power = np.abs(spec[:n // 2]) ** 2
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)[:n // 2]
    return freqs, power


def output_power_spectrum(trace: TraceSet):
    """Spectrum of the code stream; power in code^2 units."""
    return power_spectrum(trace.codes.astype(float), trace.config.fs)


def sndr_from_series(x, osr: int, signal_cycles: int) -> float:
    """In-band signal to noise-and-distortion ratio of a series, in dB.

    Signal power is the +-SIGNAL_GUARD_BINS bins around the tone bin;
    noise is
    everything else inside the band edge n/(2 osr), skipping the first
    three bins where the window parks any DC content.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    _, power = power_spectrum(x)
    k0 = int(signal_cycles)
    band_edge = n // (2 * osr)
    if not 0 < k0 <= band_edge:
        raise ConfigError("signal bin outside the modulator band")
    lo = max(k0 - SIGNAL_GUARD_BINS, 0)
    hi = min(k0 + SIGNAL_GUARD_BINS, len(power) - 1)
    p_sig = float(np.sum(power[lo:hi + 1]))
    noise_bins = [k for k in range(3, band_edge + 1) if not lo <= k <= hi]
    p_noise = float(np.sum(power[noise_bins]))
    if p_sig <= 0.0:
        raise DomainError("degenerate spectrum: no signal power")
    if p_noise <= 0.0:
        # numerically silent band: report the double floor
        return 320.0
    return 10.0 * math.log10(p_sig / p_noise)


def sndr_db(trace: TraceSet, signal_cycles: int) -> float:
    """SNDR of a modulator run's code stream."""
    return sndr_from_series(trace.codes.astype(float), trace.config.osr,
                            signal_cycles)


def theoretical_sqnr(order: int, osr: int, bits: float) -> float:
    """Peak SQNR of an ideal order-L loop at oversampling R with a
    B-bit quantizer:

        6.02 B + 1.76 - 10 log10(pi^(2L) / (2L + 1)) + (2L+1) 10 log10(R)
    """
    if not isinstance(order, int) or not 1 <= order <= 4:
        raise DomainError("order must be an integer in 1..4")
    # written as `not x >= 2` and `not x > 0` so that nan fails them too
    if not osr >= 2:
        raise DomainError("osr must be >= 2")
    if not bits > 0:
        raise DomainError("bits must be positive")
    two_l = 2 * order
    return (6.02 * bits + 1.76
            - 10.0 * math.log10(math.pi ** two_l / (two_l + 1))
            + (two_l + 1) * 10.0 * math.log10(osr))


def dc_tracking_mean(trace: TraceSet) -> float:
    """Mean decoded output over the trace tail, in normalized units.
    The first quarter is dropped to let the loop settle."""
    lsb_n = trace.config.comparator.b_lsb / trace.config.full_scale_field
    return float(np.mean(trace.codes[trace.codes.size // 4:])) * lsb_n
