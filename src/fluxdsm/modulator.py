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
import struct
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
# run_modulator scales the loop only where every value it forms, in
# either frame, is at most _SCALED_LIMIT and a whole multiple of a
# power of two no less than _LEAST_QUANTUM (its docstring proves why)
_SCALED_LIMIT = 2.0**1022
_LEAST_QUANTUM = 2.0**-1074
_LEAST_NORMAL = 2.0**-1022
# run_modulator's loop runs _BLOCK samples per iteration, with one
# _pack_block store, _CHUNK per call and at most _REBUILD per rebuild
_BLOCK = 16
_CHUNK = 1024
_REBUILD = 16 * _CHUNK
_pack_block = struct.Struct(f"{_BLOCK}d").pack_into


def _default_comparator() -> ComparatorConfig:
    return make_comparator(side=REFERENCE_SIDE, i_bias=REFERENCE_I_BIAS)


@dataclass(frozen=True)
class ModulatorConfig:
    """The loop order is len(a), one feedforward gain a_i and one
    integrator gain c_i per integrator. A cylinder geometry makes the
    first integrator the flux device, whose schedule runs once per
    geometry, b_lsb and schedule, for device_gain (_schedule_gain), so
    a config that dataclasses.replace rebuilds runs none; DomainError
    if that leaves no ring or if settle_margin lies outside [1, inf).
    backend is derived from the geometry, "flux-device" or "ideal"; one
    that is given must agree.

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
      few roundings of the quantizer's input, the sum y / lsb_n,
      whether formed as y then y / lsb_n or, in run_modulator's
      scaled loop, as the sum of its terms a_i x_i / lsb_n.
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
        return _schedule_gain(self.geometry, self.comparator.b_lsb,
                              tuple(schedule))


@functools.lru_cache(maxsize=64)
def _schedule_gain(geometry: CylinderGeometry, b_lsb: float,
                   schedule: tuple) -> int:
    """The rings that schedule leaves on geometry at the input b_lsb,
    kept per argument set, so that a config that dataclasses.replace
    rebuilds, as the scenario runner does to seed the input noise, runs
    no schedule."""
    return run_amplification_sequence(geometry, b_lsb, schedule)[1]


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

    The loop is plain Python written out for the config's order and
    backend and for which of its constants are exactly 1.0
    (_compiled_loop), compiled on first use and kept. A sample is the
    difference equations alone, states and gains plain locals, with no
    comparison but the clipping loop's clamp; 16 samples (_BLOCK) take
    their inputs from one iterator zipped with itself and store their
    codes with one struct pack_into, and a tail loop runs the rest. A
    multiply or divide by a constant of 1.0 is left out; every other
    float operation keeps its operands and order (x1 + c1 err,
    acc (c1 / gain) / quanta, xi + ci x_{i-1}, then y summed from stage
    1 up and divided by the LSB in one expression), so the codes are
    those of the difference equations above, bit for bit. The loop
    runs _CHUNK samples a call without the clamp: a chunk whose codes
    lie within +-half_range holds the clamped loop's. From a chunk's
    first code past that, the clipping loop, compiled when first
    needed, runs 4 _BLOCK samples from the states rebuilt there, then,
    while it clamps, spans twice as long, up to _CHUNK. _Rebuild forms
    the states in numpy after such a span, after a chunk that ends past
    the bound, every _REBUILD samples and at the end, with the loop's
    operations in its order: err = U - codes lsb_n, and each x_i and
    the device's acc by np.add.accumulate from the value before the
    span. numpy's elementwise + - * / round as Python's do on every
    SIMD level, and np.add.accumulate adds left to right, so each state
    is the loop's bit for bit up to the first past the bound, which
    rests only on the codes before it; the rebuild raises there, and
    ignores the overflow or nan that may follow.

    Scaled loop. Stages are indexed from 0 here, as in the generated
    source. Where the condition below holds, the loop carries each
    value times a power of two fixed once per run: E = S_E err
    and U = S_E u_n (one numpy product) for S_E = 1 / lsb_n, each
    state X_i = S_i x_i for S_i = S_{i-1} / c_i (S_{-1} = S_E), and
    the device accumulator ACC = S_A acc for S_A = 1 / gain. Where
    lsb_n, c_i or the gain is no power of two, its scale is the one
    before it (1 for S_E and S_A). The constants take the scales in,
    once per run: c_i S_i / S_{i-1}, a_i S_E / S_i, the quantizer's
    lsb_n S_E, and on the device gain S_A, quanta / S_E, and the
    factor c0_gain / S_A and divisor quanta / S_0 of x0 = ACC factor /
    divisor, where a power-of-two factor moves into the divisor. A
    scale that cancels a power of two leaves a constant of 1, so at
    the default gains an ideal sample is X0 = X0 + E; X1 = X1 + X0;
    raw = ((X0 + X1) + R) - R; E = U - raw, with no multiply and no
    divide. The rebuild compares X_i with S_i bound, state_peak holds
    each peak over S_i, and an InstabilityError names the unscaled
    bound. Where the condition fails, every scale is 1.

    Why the scaled loop is exact. Write fl(r) for the float nearest
    the real r, q(v) for the largest power of two that divides the
    float v (v itself for a power of two), and let S be a power of two.
    (L) If r is a whole multiple of a power of two Q, with Q and S Q at
    least 2**-1074 and |r| and |S r| at most 2**1023, then fl(r) is a
    multiple of Q and fl(S r) = S fl(r): below 2**53 Q both are exact
    floats, and above it both lie in the normal range, where rounding
    commutes with S. (N) If |r| and |S r| lie in [2**-1022, 2**1023],
    then fl(S r) = S fl(r). So each operation of the scaled loop gives
    its scale times the unscaled result, and a zero its sign, where
    its real result falls under (L) or (N) in both frames. It does
    where three things hold:

    - No value exceeds 2**1023. With the states inside the bound at a
      sample's start, every value up to the first state past the bound
      is at most V = 2**52 T K M (1 + bound + W + D): T is the largest
      scale, K the largest a_i and c_i, both at least 1,
      W = max |u_n| + half_range lsb_n, and on the device
      M = max(1, gain) max(1, quanta) and D = c0 / quanta (on the
      ideal loop 1 and 0). V <= 2**1022 sets a ceiling on max |u_n|,
      with room for the roundings of the check itself.
    - Every value is a multiple of a quantum of at least 2**-1074 in
      both frames. A nonzero |u_n| >= F is a multiple of F 2**-52 and
      raw lsb_n one of q(lsb_n), so err is a multiple of the lesser,
      Q_e. The ideal x0 and c0 err are multiples of Q_0 = q(c0) Q_e,
      x_i and c_i x_{i-1} of Q_i = q(c_i) Q_{i-1}, and a_i x_i of
      q(a_i) Q_i; in the scaled frame each is a multiple of its scale
      times that (S_E for the quantizer's terms). The least of these
      over Q_e, P (min(1, S_E) on the device, whose x0 is not formed
      from err), sets the floor F = 2**-1022 / P.
    - On the device, the products E (quanta / S_E) and
      ACC (c0_gain / S_A) are the reals err quanta and acc c0_gain
      themselves, and ACC = S_A acc holds after every rounding. A nonzero acc is a whole number, so
      x0 is 0 or the rounded quotient r >= c0_gain / quanta >= rho / 2,
      for rho the largest power of two at most fl(c0_gain / quanta).
      Where rho times the least ratio of the later quanta to Q_0 (both
      frames, S_0 included) is at least 2**-1021, r falls under (N)
      and x0 is a multiple of Q_0 = rho 2**-52.

    The constants, each a float times a power of two, must be normal
    floats, and so are exact. The config fixes every part of the
    condition but the input's, which run_modulator checks beside
    |u| <= 1: every nonzero |u_n| at least F, and max |u_n| at most
    the ceiling.

    The loop rounds without round() and without a Python int: the
    quantizer takes (y / lsb_n + _ROUND) - _ROUND, the device adds
    gain ((err quanta + _ROUND) - _ROUND) to a float accumulator, and
    the float codes become int64 once. ModulatorConfig's loop-sum and
    device-accumulator checks keep every rounded value, and the
    accumulator, where these floats equal round()'s ints.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise DomainError("input trace must be a nonempty 1-d array")
    mag = np.abs(u)
    peak = mag.max()
    if not peak <= 1.0:
        # written so that nan fails it too
        raise DomainError("input must stay within [-1, 1] of full scale")
    n = u.size
    u_n = u
    if cfg.input_noise is not None:
        # injected ahead of the quantizer, in normalized units; the
        # flicker amplitude calibration is the caller's k'
        u_n = u + synth_flicker_series(cfg.input_noise, n, cfg.fs)
        mag = np.abs(u_n)
        peak = mag.max()

    device_gain = cfg.device_gain
    lsb_n = cfg.comparator.b_lsb / cfg.full_scale_field
    plan = _loop_constants(cfg, lsb_n, device_gain, True)
    limits = plan and _input_limits(cfg, lsb_n, device_gain, *plan)
    if limits is None or not (peak <= limits[1]
                              and not mag[mag < limits[0]].any()):
        plan = _loop_constants(cfg, lsb_n, device_gain, False)
    s_err, scales, consts = plan
    if s_err != 1.0:
        u_n = u_n * s_err
    hr = float(cfg.comparator.half_range)
    variant = (len(cfg.a), device_gain is not None,
               tuple(k for k, v in consts.items() if v == 1.0))
    loop = _compiled_loop(*variant, False)
    args = [consts[k] for k in loop.__code__.co_varnames[3:3 + len(consts)]]
    codes = np.empty(n)
    states = _Rebuild(cfg, scales, consts, u_n, codes)
    u_mv, codes_mv = memoryview(u_n), memoryview(codes)
    state, at, saturations, span = states.state, 0, 0, 0
    while at < n:
        if not span:
            stop = min(at + _CHUNK, n)
            end = loop(u_mv[at:stop], codes_mv[at:stop], state, *args)
            chunk = codes[at:stop]
            # written so that a nan code, or state, fails it too
            if np.maximum.reduce(np.abs(chunk)) <= hr:
                if stop - states.done >= _REBUILD or not all(map(float.__le__,
                        map(abs, end[variant[1]:-1]), states.bounds)):
                    states.upto(stop)
                at, state = stop, end
                continue
            at += int(np.argmin(np.abs(chunk) <= hr))
            state, span = states.upto(at), 4 * _BLOCK
        stop = min(at + span, n)
        clamped = _compiled_loop(*variant, True)(
            u_mv[at:stop], codes_mv[at:stop], state, *args, hr)[1]
        saturations += clamped
        span = clamped and min(2 * span, _CHUNK)
        at, state = stop, states.upto(stop)
    states.upto(n)
    return TraceSet(config=cfg, codes=codes.astype(np.int64),
                    saturation_count=saturations, device_gain=device_gain,
                    state_peak=tuple(p / s for p, s in
                                     zip(states.peaks, scales)))


def _power_of_two(v: float) -> bool:
    """Whether v is a positive, finite power of two."""
    return math.frexp(v)[0] == 0.5


def _quantum(v: float) -> float:
    """The largest power of two that the finite nonzero float v is a
    whole multiple of, q(v) in run_modulator's docstring."""
    m, e = math.frexp(abs(v))
    whole = int(m * 2.0**53)
    return math.ldexp(whole & -whole, e - 53)


def _loop_constants(cfg: ModulatorConfig, lsb_n: float,
                    gain: Optional[int], scaled: bool):
    """The loop error's scale S_E, each state's scale S_i and the
    loop's constants by name, as run_modulator's docstring forms them;
    every scale is 1 where scaled is False, and None where a scale
    would leave the normal floats. The device loop takes no c0, which
    only its x0 factor c0_gain holds."""
    takes = _power_of_two if scaled else lambda v: False
    s_err = 1.0 / lsb_n if takes(lsb_n) else 1.0
    scales, s = [], s_err
    for ci in cfg.c:
        if takes(ci):
            s = s / ci
        scales.append(s)
    if not all(_LEAST_NORMAL <= s <= _SCALED_LIMIT
               for s in (s_err, *scales)):
        return None
    consts, prev = {}, s_err
    for i, (ci, ai, s) in enumerate(zip(cfg.c, cfg.a, scales)):
        if i or gain is None:
            consts[f"c{i}"] = ci * (s / prev)
        consts[f"a{i}"] = ai * (s_err / s)
        prev = s
    consts["lsb_n"] = lsb_n * s_err
    if gain is not None:
        s_acc = 1.0 / gain if takes(gain) else 1.0
        factor = cfg.c[0] / gain / s_acc
        into_divisor = factor if takes(factor) else 1.0
        quanta = cfg.quanta_per_unit
        consts.update(gain=gain * s_acc, quanta=quanta / s_err,
                      c0_gain=factor / into_divisor,
                      q_scale=quanta / (scales[0] * into_divisor))
    return s_err, tuple(scales), consts


def _input_limits(cfg: ModulatorConfig, lsb_n: float, gain: Optional[int],
                  s_err: float, scales: tuple, consts: dict):
    """The floor F on each nonzero |u_n| and the ceiling on max |u_n|
    of the scaled loop's condition (run_modulator's docstring), for
    the scales and constants that _loop_constants forms; None where
    the config fails its own part of the condition."""
    bound = cfg.stability_bound
    if not all(_LEAST_NORMAL <= v <= _SCALED_LIMIT for v in (
            *consts.values(), *(bound * s for s in scales))):
        return None
    # the least ratio of a state's or quantizer term's quantum to Q_0,
    # in either frame
    least, ratio = 1.0, 1.0
    for i, (ci, ai, s) in enumerate(zip(cfg.c, cfg.a, scales)):
        if i:
            ratio *= _quantum(ci)
        qa = _quantum(ai)
        least = min(least, ratio * min(1.0, s, qa, s_err * qa))
    if gain is None:
        p = min(1.0, s_err, _quantum(cfg.c[0]) * least)
        d, m = 0.0, 1.0
    else:
        quanta = cfg.quanta_per_unit
        x0_least = cfg.c[0] / gain / quanta
        if not (_LEAST_NORMAL <= x0_least <= _SCALED_LIMIT
                and math.ldexp(0.5, math.frexp(x0_least)[1]) * least
                >= 2 * _LEAST_NORMAL):
            return None
        p = min(1.0, s_err)
        d, m = cfg.c[0] / quanta, max(1.0, gain) * max(1.0, quanta)
    if not _quantum(lsb_n) * p >= _LEAST_QUANTUM:
        return None
    most = max(1.0, s_err, *scales) * max(1.0, *cfg.a, *cfg.c) * m
    return (_LEAST_NORMAL / p,
            2.0**-52 * _SCALED_LIMIT / most
            - (1.0 + bound + cfg.comparator.half_range * lsb_n + d))


class _Rebuild:
    """The loop's states rebuilt in numpy from its input and codes, span
    by span: state, the loop's state after them (the device's acc, the
    x_i, err), each stage's peak |x_i| so far, and an InstabilityError
    at the first sample, then stage, past the bound."""

    def __init__(self, cfg: ModulatorConfig, scales: tuple, consts: dict,
                 u: np.ndarray, codes: np.ndarray):
        self.bound, self.c, self.u, self.codes = (cfg.stability_bound,
                                                  consts, u, codes)
        self.bounds = [s * cfg.stability_bound for s in scales]
        self.state = (0.0,) * (len(scales) + ("gain" in consts) + 1)
        self.peaks, self.done = [0.0] * len(scales), 0

    def upto(self, stop: int) -> tuple:
        """Rebuild samples done to stop - 1; the loop's state after them."""
        a, c, state, device = self.done, self.c, self.state, "gain" in self.c
        if stop == a:
            return state
        # rows of a value before the span and its increments: the device's
        # acc, then each x_i; row 0 starts as the errors the span takes in
        x = np.empty((len(state) - 1, stop - a + 1))
        e = x[0, 1:]

        def by(name):
            if c[name] != 1.0:
                np.multiply(e, c[name], out=e)
        # a state past the bound may overflow, or turn nan, after it
        with np.errstate(all="ignore"):
            e[0] = state[-1]
            codes = self.codes[a:stop - 1]
            np.subtract(self.u[a:stop - 1], codes if c["lsb_n"] == 1.0
                        else codes * c["lsb_n"], out=e[1:])
            err = float(self.u[stop - 1] - self.codes[stop - 1] * c["lsb_n"])
            if device:
                by("quanta")
                e += _ROUND
                e -= _ROUND
            by("gain" if device else "c0")
            x[:, 0] = state[:-1]
            np.add.accumulate(x[0], out=x[0])
            if device:
                np.multiply(e, c["c0_gain"], out=x[1, 1:])
                x[1, 1:] /= c["q_scale"]
            for i in range(1 + device, len(x)):
                np.multiply(x[i - 1, 1:], c[f"c{i - device}"], out=x[i, 1:])
                np.add.accumulate(x[i], out=x[i])
            rows = x[device:, 1:]
            peaks = np.maximum(np.maximum.reduce(rows, axis=1),
                               -np.minimum.reduce(rows, axis=1)).tolist()
            past = [(int(np.argmin(np.abs(r) <= b)), i + 1) for i, (r, p, b)
                    in enumerate(zip(rows, peaks, self.bounds)) if not p <= b]
        if past:
            k, stage = min(past)
            raise InstabilityError(f"integrator {stage} left [-{self.bound}, "
                                   f"{self.bound}] at sample {a + k}",
                                   sample=a + k)
        self.peaks = list(map(max, self.peaks, peaks))
        self.done, self.state = stop, (*x[:, -1].tolist(), err)
        return self.state


# The loop of run_modulator, which _compiled_loop writes out: from the
# state the samples before u left, a block loop of _BLOCK samples per
# iteration, with one packed store, and a tail loop for the rest.
_LOOP = """\
def loop(u, codes, state, {params}):
    {state} = state
{clip_head}    it = iter(u)
    at = 0
    for {u_names} in zip({its}):
{block}        _pack_block(codes, 8 * at, {r_names})
        at += {size}
    for k, uk in enumerate(u[at:], at):
{tail}        codes[k] = raw
    return ({state}){count}
"""
# A sample's pieces: {i} is a stage's index from 0, and a {name} slot of
# a constant holds its multiply or divide, or nothing where the
# constant is exactly 1.0; {uk} is the sample's input and {raw} its code.
_IDEAL_INTEGRATOR = """\
        x0 = x0 + {c0}err
"""
# the loop error rounded half to even to whole quanta, as fluxtrap
# traps them; the float accumulator holds integers, exactly while
# ModulatorConfig's accumulator check holds
_DEVICE_INTEGRATOR = """\
        acc += {gain}((err{quanta} + {round}) - {round})
        x0 = acc{c0_gain}{q_scale}
"""
_LATER_STAGE = """\
        x{i} = x{i} + {c}x{prev}
"""
# comparator.quantize at the normalized LSB, inlined: the loop sum
# rounded half to even, and in the clipping loop clamped to +-hr by
# two comparisons, the second failed by a nan as well
_QUANTIZER = """\
        {{raw}} = (({y_sum}){lsb_per} + {round}) - {round}
{clamp}        err = {{uk}} - {{raw}}{lsb_times}
"""
_CLAMP = """\
        if {raw} > hr:
            {raw} = hr
            saturations += 1
        elif not {raw} >= neg_hr:
            {raw} = neg_hr
            saturations += 1
"""


@functools.cache
def _compiled_loop(order: int, device: bool, units: tuple, clip: bool):
    """The loop written out for one order and backend, with no multiply
    or divide by a constant in units, which are exactly 1.0, and with
    the clamp to +-hr where clip holds. It takes the constants in
    _loop_constants' names and returns its last state, and, clipping,
    the count of codes clamped."""
    def each(template, count=order):
        return ", ".join(template.format(i=i) for i in range(count))

    def times(name):
        return "" if name in units else f"{name} * "

    def by(op, name):
        return "" if name in units else f" {op} {name}"

    names = [name for i in range(order) for name in (f"c{i}", f"a{i}")
             if name != "c0" or not device] + ["lsb_n"]
    if device:
        names += ["gain", "quanta", "c0_gain", "q_scale"]
        sample = _DEVICE_INTEGRATOR.format(
            round=repr(_ROUND), gain=times("gain"),
            quanta=by("*", "quanta"), c0_gain=by("*", "c0_gain"),
            q_scale=by("/", "q_scale"))
    else:
        sample = _IDEAL_INTEGRATOR.format(c0=times("c0"))
    for i in range(1, order):
        sample += _LATER_STAGE.format(i=i, prev=i - 1, c=times(f"c{i}"))
    sample += _QUANTIZER.format(
        y_sum=" + ".join(f"{times(f'a{i}')}x{i}" for i in range(order)),
        lsb_per=by("/", "lsb_n"), lsb_times=by("*", "lsb_n"),
        round=repr(_ROUND), clamp=_CLAMP if clip else "")
    src = _LOOP.format(
        params=", ".join(names + ["hr"] * clip),
        state=("acc, " if device else "") + each("x{i}") + ", err",
        clip_head="    neg_hr = -hr\n    saturations = 0\n" * clip,
        u_names=each("u{i}", _BLOCK), its=", ".join(["it"] * _BLOCK),
        block="".join(sample.format(uk=f"u{j}", raw=f"r{j}")
                      for j in range(_BLOCK)),
        r_names=each("r{i}", _BLOCK), size=_BLOCK,
        tail=sample.format(uk="uk", raw="raw"),
        count=", saturations" * clip)
    backend = "flux-device" if device else "ideal"
    namespace = {"_pack_block": _pack_block}
    exec(compile(src, f"<modulator loop, order {order}, {backend}, "
                      f"unit {' '.join(units) or 'none'}"
                      f"{', clipping' * clip}>", "exec"),
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
