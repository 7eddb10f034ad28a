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

import functools
import math
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

# device settle-time constants (s): Cooper-pair formation and one E-coil
# step, for the clock check of a flux-device loop
TAU_COOPER = 1e-10
TAU_ECOIL = 3e-10
# bins on each side of the tone bin that count as signal power in SNDR
SIGNAL_GUARD_BINS = 3
# the loop rounds a float t as (t + _ROUND) - _ROUND, exact for
# |t| <= 2**51; ModulatorConfig derives the two load limits that keep
# every rounded value in that range
_ROUND = 1.5 * 2.0**52
_LOOP_SUM_LIMIT = 2.0**50
_ACCUMULATOR_LIMIT = 2.0**48
# the least power-of-two LSB that run_modulator folds into the gains
# a_i, where its docstring's bound on subnormal terms holds, and the
# least c[0] / device gain that it folds into the quanta scale, the
# least normal float
_FOLD_LSB_MIN = 2.0**-512
_FOLD_GAIN_MIN = 2.0**-1022


def _default_comparator() -> ComparatorConfig:
    return make_comparator(side=REFERENCE_SIDE, i_bias=REFERENCE_I_BIAS)


@dataclass(frozen=True)
class ModulatorConfig:
    """The loop order is len(a), one feedforward gain a_i and one
    integrator gain c_i per integrator. A cylinder geometry makes the
    first integrator the flux device, whose schedule the config runs
    once, for device_gain; DomainError if that leaves no ring or if
    settle_margin lies outside [1, inf). backend is derived from the
    geometry, "flux-device" or "ideal"; one that is given must agree.

    The loop rounds in float arithmetic. For |t| <= 2**51, t + _ROUND
    (1.5 * 2**52) lies in [2**52, 2**53], where the floats are the
    integers and _ROUND is even, so (t + _ROUND) - _ROUND is t rounded
    half to even, the value of round(t). Two checks keep every value
    the loop rounds in that range, and DomainError rejects a config
    past either:

    - Loop sum. A state inside the bound gives |y| <= sum(a) *
      stability_bound, which the quantizer rounds in comparator LSBs,
      full_scale_field / b_lsb per unit. That count must be under
      _LOOP_SUM_LIMIT = 2**50; the factor of 2 below 2**51 covers the
      few roundings in y and y / lsb_n.
    - Device accumulator. A first state inside the bound leaves at most
      A = stability_bound * quanta_per_unit * device_gain / c[0] quanta
      in the accumulator. quanta_per_unit must be above 0, and A under
      _ACCUMULATOR_LIMIT = 2**48. A sample with |err * quanta| <= 2**51
      and a step of |gain * q| <= 2**52 quanta then adds integers whose
      sum stays under 2**53, exactly. Any other sample steps at least 2**51 - 2
      quanta, so |acc| exceeds 2**51 - 2**49 > 6 A, and |x1| six times
      the bound, in float and in integer arithmetic alike: the loop
      raises at that sample, at stage 1, as the integer loop would.
    """

    osr: int = 128
    a: tuple = (2.0, 4.0)
    c: tuple = (0.5, 0.5)
    comparator: ComparatorConfig = field(default_factory=_default_comparator)
    backend: Optional[str] = None
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
        derived = "ideal" if self.geometry is None else "flux-device"
        if self.backend not in (None, derived):
            raise ConfigError(f"backend {self.backend!r} contradicts the "
                              f"geometry, which makes the loop {derived!r}")
        object.__setattr__(self, "backend", derived)
        if self.schedule is not None and self.geometry is None:
            raise ConfigError("a schedule needs a cylinder geometry")
        if not self.fs > 0:
            raise ConfigError("sample rate must be positive")
        if self.full_scale is not None and not self.full_scale > 0:
            raise ConfigError("full_scale must be positive")
        if not self.stability_bound > 0:
            raise ConfigError("stability bound must be positive")
        # the class docstring derives both load limits
        loop_sum = (sum(self.a) * self.stability_bound
                    * self.full_scale_field / self.comparator.b_lsb)
        if not loop_sum < _LOOP_SUM_LIMIT:
            raise DomainError(
                f"full scale {self.full_scale_field!r} T and stability bound "
                f"{self.stability_bound!r} put the loop sum at {loop_sum:.3g} "
                "comparator LSBs, past the 2**50 that the loop rounds "
                "exactly")
        if self.geometry is not None:
            # one clock period must leave room for the device to settle,
            # and the margin must be a finite float the report can state
            if not 1 <= self.settle_margin < math.inf:
                raise DomainError(
                    f"clock period {1.0 / self.fs:.3e} s puts settle_margin, "
                    "half a period over the device settle time, at "
                    f"{self.settle_margin:.3g}, outside [1, inf)")
            if self.device_gain < 1:
                raise DomainError("the device schedule leaves no ring to "
                                  "integrate the loop error")
            # an infinite or nan count fails the bound, since device_gain,
            # stability_bound and c[0] are positive
            accumulator = (self.stability_bound * self.quanta_per_unit
                           * self.device_gain / self.c[0])
            if not (self.quanta_per_unit > 0
                    and accumulator < _ACCUMULATOR_LIMIT):
                raise DomainError(
                    f"full scale {self.full_scale_field!r} T is "
                    f"{self.quanta_per_unit!r} flux quanta over the bore, "
                    f"which puts up to {accumulator:.3g} quanta in the "
                    "device accumulator: the count must be above 0 and "
                    "the accumulator under the 2**48 that it sums exactly")

    @property
    def full_scale_field(self) -> float:
        """Field magnitude mapped to normalized unity (T)."""
        if self.full_scale is not None:
            return self.full_scale
        return self.comparator.half_range * self.comparator.b_lsb

    @property
    def quanta_per_unit(self) -> Optional[float]:
        """Flux quanta that one full-scale unit traps over the bore of
        the flux-device geometry. None on the ideal backend."""
        if self.geometry is None:
            return None
        return self.full_scale_field * self.geometry.area / CODATA.phi0

    @property
    def settle_margin(self) -> Optional[float]:
        """Half a clock period over the flux device's settle time, which
        the config checks is at least 1. None on the ideal backend."""
        if self.geometry is None:
            return None
        return 0.5 / self.fs / settle_time_device(
            TAU_COOPER, self.geometry.n_segments, TAU_ECOIL)

    @functools.cached_property
    def device_gain(self) -> Optional[int]:
        """Rings left by the schedule, default_amplification_schedule if
        none is given: the gain of the device integrator, which the
        schedule topology alone sets. None on the ideal backend."""
        if self.geometry is None:
            return None
        schedule = self.schedule
        if schedule is None:
            schedule = default_amplification_schedule(self.geometry.n_segments)
        return run_amplification_sequence(
            self.geometry, self.comparator.b_lsb, schedule)[1]


@dataclass(frozen=True)
class TraceSet:
    """One modulator run: its codes, quantizer saturations and device
    gain (None on the ideal backend). state_peak holds the peak |x_i| of
    each integrator over the run, the headroom left against
    config.stability_bound; the state history itself is not kept."""

    config: ModulatorConfig
    codes: np.ndarray
    saturation_count: int
    device_gain: Optional[int]
    state_peak: tuple


def test_tone(n: int, cycles: int, amplitude: float) -> np.ndarray:
    """Coherent sine of an integer number of cycles over n samples, in
    normalized units (1.0 = full scale). Integer cycle counts keep the
    tone on a bin center so window leakage stays out of the noise
    estimate. The tone must lie below the Nyquist bin: at cycles = n / 2
    every sample falls on a zero of the sine, and the trace is rounding
    residue, not a tone."""
    if n < 2:
        raise DomainError("need at least two samples")
    if not isinstance(cycles, (int, np.integer)) or cycles < 1:
        raise DomainError("cycles must be a positive integer")
    if cycles * 2 >= n:
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
    The flux device's gain and clock were checked when cfg was built.

    The loop is plain Python written out for the config's order,
    backend and folds (_compiled_loop, and the folds below), compiled
    on the first run of that variant and kept: each stage's state,
    gains and peak are locals, and the input is read and the codes are
    written through memoryviews, so a sample makes no numpy scalar, no
    list access and no test of the backend. Every float operation
    keeps its operands and their order (x1 + c1 err,
    acc (c1 / gain) / quanta, xi + ci x_{i-1}, then y summed from stage
    1 up and divided by the LSB in the same expression, without a
    store to a local), so the codes and the state peaks are
    bit-identical to the difference equations above evaluated in that
    order.

    Where a power of two makes it exact, the loop folds a scale into
    constants formed once, which takes a division or a product off
    every sample; any other config runs the expressions above. Scaling
    by a power of two is exact, and commutes with rounding, wherever
    the values stay normal floats:

    - Quantizer. Where lsb_n = 2**-m with 0 <= m <= 512 and every
      a_i / lsb_n is finite, the loop takes the gains a_i / lsb_n,
      exact since they scale up, and rounds their sum without
      / lsb_n. Each product and partial sum is then 2**m times its
      unfolded value, unless a product falls under 2**-1022, the
      subnormal range, where the folded form may round it more
      finely. A partial sum of 2**-960 or more absorbs such a term
      the same way on both forms; any other stays in sums under
      2**-780 (unfolded), below half an LSB (2**-513 at least), and
      the code rounds to 0 on both.
    - Device. Where c0_gain = c1 / gain is a power of two in
      [2**-1022, 1] and q_scale = quanta / c0_gain is finite, and so
      exact, the loop takes x1 = acc / q_scale. acc is 0, inf, nan
      or a whole number of magnitude at least 1, so acc c0_gain is
      exact too, and both forms round one real quotient,
      acc c0_gain / quanta.

    The loop rounds without round() and without a Python int: the
    quantizer takes (y / lsb_n + _ROUND) - _ROUND, the device
    integrator adds gain ((err quanta + _ROUND) - _ROUND) to a float
    accumulator, and the codes go to a float buffer that is converted
    to int64 once. ModulatorConfig's loop-sum and device-accumulator
    checks keep every rounded value, and the accumulator, where these
    floats equal round()'s ints, so the codes, saturations, state
    peaks and InstabilityErrors are those of round() and an integer
    accumulator.

    Each stage's bound check rides on its peak update. A state inside
    [-p_i, p_i] of its running peak is inside the bound, because p_i
    never exceeds it; only a state outside that range, or a nan, which
    fails every comparison, sets p_i = |x_i| and then meets the bound
    check. So the check raises at the same sample and stage as a check
    of every state would, and a nan state raises there before round()
    could see it. That range test, like the quantizer's saturation
    test, is two comparisons joined by `and` (-p_i <= x_i and
    x_i <= p_i), not a chained a <= b <= c: CPython 3.11 compiles a
    chain with a SWAP and a COPY, which the loop would pay per stage
    per sample. The split test has the chain's outcome for every
    value, and a nan still fails its first comparison.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise DomainError("input trace must be a nonempty 1-d array")
    if not np.all(np.abs(u) <= 1.0):
        # written so that nan fails it too
        raise DomainError("input must stay within [-1, 1] of full scale")
    n = u.size
    u_n = u
    if cfg.input_noise is not None:
        # injected ahead of the quantizer, in normalized units; the
        # flicker amplitude calibration is the caller's k'
        u_n = u + synth_flicker_series(cfg.input_noise, n, cfg.fs)

    device_gain = cfg.device_gain
    lsb_n = cfg.comparator.b_lsb / cfg.full_scale_field
    # every a_i / lsb_n is finite where the largest is
    fold_lsb = (_power_of_two(lsb_n, _FOLD_LSB_MIN)
                and math.isfinite(max(cfg.a) / lsb_n))
    fold_gain = False
    if device_gain is not None:
        c0_gain = cfg.c[0] / device_gain
        fold_gain = (_power_of_two(c0_gain, _FOLD_GAIN_MIN) and
                     math.isfinite(cfg.quanta_per_unit / c0_gain))
    codes = np.empty(n)
    loop = _compiled_loop(len(cfg.a), device_gain is not None, fold_lsb,
                          fold_gain)
    saturations, state_peak = loop(
        memoryview(u_n), memoryview(codes), cfg.c, cfg.a,
        cfg.stability_bound, float(cfg.comparator.half_range), lsb_n,
        device_gain, cfg.quanta_per_unit)
    return TraceSet(config=cfg, codes=codes.astype(np.int64),
                    saturation_count=saturations,
                    device_gain=device_gain, state_peak=state_peak)


def _power_of_two(v: float, least: float) -> bool:
    """Whether v is a power of two in [least, 1]; False for nan."""
    return least <= v <= 1.0 and math.frexp(v)[0] == 0.5


def _left_bound(stage: int, bound: float, k: int) -> InstabilityError:
    return InstabilityError(
        f"integrator {stage} left [-{bound}, {bound}] at sample {k}",
        sample=k)


# The loop of run_modulator in pieces, which _compiled_loop joins for
# one order, backend and pair of folds; {i} is a stage's index from 0.
_LOOP_HEAD = """\
def loop(u, codes, c, a, bound, hr, lsb_n, gain, quanta):
    {c_names}, = c
    {a_names}, = a
{a_fold}    {zeros} = 0.0
    neg_hr = -hr
    err = 0.0
    saturations = 0
"""
# {a_fold} is empty, or where run_modulator folds the power-of-two LSB
# into the gains, _FOLDED_GAIN for each stage: formed once per run,
# and exact (run_modulator's docstring)
_FOLDED_GAIN = "    a{i} = a{i} / lsb_n\n"
_IDEAL_INTEGRATOR = """\
    for k, uk in enumerate(u):
        x0 = x0 + c0 * err
"""
# the loop error rounded half to even to whole quanta, as fluxtrap
# traps them, by adding and subtracting _ROUND; the float accumulator
# holds integers, exactly while ModulatorConfig's accumulator check
# holds. {q_scale} and {x0} are _DEVICE_X0 or, where run_modulator
# folds the power-of-two c0_gain, _DEVICE_X0_FOLDED
_DEVICE_INTEGRATOR = """\
    gain = float(gain)
    c0_gain = c0 / gain
{q_scale}    acc = 0.0
    for k, uk in enumerate(u):
        acc += gain * ((err * quanta + {round}) - {round})
        x0 = {x0}
"""
_DEVICE_X0 = {"q_scale": "", "x0": "acc * c0_gain / quanta"}
# acc / q_scale rounds the real quotient acc * c0_gain / quanta, since
# both scalings by c0_gain are exact (run_modulator's docstring)
_DEVICE_X0_FOLDED = {"q_scale": "    q_scale = quanta / c0_gain\n",
                     "x0": "acc / q_scale"}
_LATER_STAGE = """\
        x{i} = x{i} + c{i} * x{prev}
"""
# the bound check folded into the peak update; run_modulator's
# docstring says why it raises where a check of every state would, nan
# included. The range test is two comparisons joined by `and`, not a
# chain, which would cost a SWAP and a COPY per sample.
_PEAK_AND_BOUND = """\
        if not (m{i} <= x{i} and x{i} <= p{i}):
            p{i} = abs(x{i})
            m{i} = -p{i}
            if not p{i} <= bound:
                raise _left_bound({stage}, bound, k)
"""
# comparator.quantize at the normalized LSB, inlined, rounding half
# to even by adding and subtracting _ROUND; the loop sum is rounded
# without a store to a local, and the saturation test is split like
# the range test above. {per_lsb} is " / lsb_n", or empty where
# run_modulator folds the power-of-two LSB into the gains a_i, which
# scales the sum exactly as the division would
_LOOP_TAIL = """\
        raw = (({y_sum}){per_lsb} + {round}) - {round}
        if not (neg_hr <= raw and raw <= hr):
            raw = hr if raw > 0 else neg_hr
            saturations += 1
        codes[k] = raw
        err = uk - raw * lsb_n
    return saturations, ({peaks},)
"""


@functools.cache
def _compiled_loop(order: int, device: bool, fold_lsb: bool,
                   fold_gain: bool):
    """The loop written out stage by stage for one order and backend,
    with the LSB folded into the gains a_i where fold_lsb holds, and,
    on the device backend, c0_gain folded into q_scale where fold_gain
    holds; compiled on first use and kept. Each stage's state x_i,
    gains c_i, a_i and peak p_i = -m_i are plain locals: a sample does
    no list access, no loop over the stages and no test of the backend
    or of a fold."""
    def each(template, sep=", "):
        return sep.join(template.format(i=i) for i in range(order))

    src = _LOOP_HEAD.format(c_names=each("c{i}"), a_names=each("a{i}"),
                            a_fold=each(_FOLDED_GAIN, "") if fold_lsb else "",
                            zeros=each("x{i} = p{i} = m{i}", " = "))
    if device:
        src += _DEVICE_INTEGRATOR.format(
            round=repr(_ROUND),
            **(_DEVICE_X0_FOLDED if fold_gain else _DEVICE_X0))
    else:
        src += _IDEAL_INTEGRATOR
    for i in range(order):
        if i:
            src += _LATER_STAGE.format(i=i, prev=i - 1)
        src += _PEAK_AND_BOUND.format(i=i, stage=i + 1)
    src += _LOOP_TAIL.format(y_sum=each("a{i} * x{i}", " + "),
                             per_lsb="" if fold_lsb else " / lsb_n",
                             round=repr(_ROUND), peaks=each("p{i}"))
    backend = "flux-device" if device else "ideal"
    namespace = {"_left_bound": _left_bound}
    exec(compile(src, f"<modulator loop, order {order}, {backend}, "
                      f"fold_lsb={fold_lsb}, fold_gain={fold_gain}>", "exec"),
         namespace)
    return namespace["loop"]


@functools.lru_cache(maxsize=4)
def _hann_periodic(n: int) -> np.ndarray:
    """The periodic Hann window of n points, built once per length and
    shared by every caller, so it is read-only."""
    k = np.arange(n)
    w = 0.5 - 0.5 * np.cos(2.0 * math.pi * k / n)
    w.setflags(write=False)
    return w


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


def _band_bins(n_bins: int, osr: int, signal_cycles: int):
    """band_sndr's signal bins lo..hi and noise bins, of n_bins bins."""
    k0 = int(signal_cycles)
    # (n // 2) // osr is n // (2 osr)
    band_edge = n_bins // osr
    if not 0 < k0 <= band_edge:
        raise ConfigError(f"signal bin {k0} outside the modulator band 1 to "
                          f"n / (2 osr) = {band_edge}")
    lo = max(k0 - SIGNAL_GUARD_BINS, 0)
    hi = min(k0 + SIGNAL_GUARD_BINS, n_bins - 1)
    noise_bins = [k for k in range(3, band_edge + 1) if not lo <= k <= hi]
    if not noise_bins:
        raise ConfigError(f"no noise bin in the band 1 to {band_edge} outside "
                          f"the DC bins 0 to 2 and signal bins {lo} to {hi}")
    return lo, hi, noise_bins


def band_sndr(power: np.ndarray, osr: int, signal_cycles: int) -> float:
    """In-band signal to noise-and-distortion ratio, in dB, of the n//2
    bins of a series' power_spectrum at oversampling ratio osr.

    Signal power is the +-SIGNAL_GUARD_BINS bins around the tone bin
    signal_cycles; noise is everything else inside the band edge
    n/(2 osr), skipping the first three bins where the window parks any
    DC content; it must hold a bin (else ConfigError) and power (else
    DomainError).
    """
    lo, hi, noise_bins = _band_bins(len(power), osr, signal_cycles)
    p_sig = float(np.sum(power[lo:hi + 1]))
    p_noise = float(np.sum(power[noise_bins]))
    if p_sig <= 0.0:
        raise DomainError("degenerate spectrum: no signal power")
    if p_noise <= 0.0:
        raise DomainError("degenerate spectrum: no noise power in the band")
    return 10.0 * math.log10(p_sig / p_noise)


def sndr_db(trace: TraceSet, signal_cycles: int) -> float:
    """band_sndr of a modulator run's output_power_spectrum."""
    return band_sndr(output_power_spectrum(trace)[1], trace.config.osr,
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
