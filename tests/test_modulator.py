"""Loop recursion, spectral analysis, and the device-backend contract."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fluxdsm.comparator import make_comparator, quantize
from fluxdsm.constants import CODATA
from fluxdsm.errors import ConfigError, DomainError, InstabilityError
from fluxdsm.fluxtrap import (CylinderGeometry, FieldStep,
                              default_amplification_schedule,
                              doubling_amplification_schedule)
from fluxdsm import modulator
from fluxdsm.modulator import (
    _BLOCK,
    _CHUNK,
    _REBUILD,
    _ROUND,
    _compiled_loop,
    _hann_periodic,
    _input_limits,
    _loop_constants,
    ModulatorConfig,
    band_sndr,
    dc_tracking_mean,
    output_power_spectrum,
    power_spectrum,
    run_modulator,
    sndr_db,
    theoretical_sqnr,
)
from fluxdsm.modulator import test_tone as make_tone
from fluxdsm.noise import NoiseModel, synth_flicker_series

GEOM8 = CylinderGeometry(radius=0.02, n_segments=8, n_eff=4)
# test ids of the loops without and with GEOM8, named by their backend
BACKEND_IDS = ["ideal", "flux-device"]


@pytest.mark.parametrize("kwargs,msg", [
    (dict(a=(), c=()), "order .* must be in 1..4"),
    (dict(a=(1.0,) * 5, c=(0.5,) * 5), "order .* must be in 1..4"),
    (dict(osr=4), "osr must be"),
    (dict(a=(1.0,)), "one entry per stage"),
    (dict(a=(1.0, -2.0)), "gains must be > 0"),
    # the geometry alone sets the backend; a given one must agree
    (dict(backend="analog"),
     "backend 'analog' contradicts the geometry, which makes the loop "
     "'ideal'"),
    (dict(backend="flux-device"),
     "backend 'flux-device' contradicts the geometry, which makes the loop "
     "'ideal'"),
    # the ideal loop has no device to run a schedule
    (dict(schedule=doubling_amplification_schedule()),
     "a schedule needs a cylinder geometry"),
    (dict(backend="ideal", geometry=CylinderGeometry(1e-4, 8, 4.0),
          schedule=default_amplification_schedule(8)),
     "backend 'ideal' contradicts the geometry, which makes the loop "
     "'flux-device'"),
    (dict(fs=0.0), "sample rate"),
    (dict(full_scale=-1.0), "full_scale"),
    (dict(stability_bound=0.0), "stability bound"),
    # nan fails every positivity check
    (dict(a=(math.nan, 4.0)), "gains must be > 0"),
    (dict(c=(0.5, math.nan)), "gains must be > 0"),
    (dict(fs=math.nan), "sample rate"),
    (dict(full_scale=math.nan), "full_scale"),
    (dict(stability_bound=math.nan), "stability bound"),
])
def test_config_validation(kwargs, msg):
    with pytest.raises(ConfigError, match=msg):
        ModulatorConfig(**kwargs)


# an order-1 loop, whose state follows its input: eight samples at 0.9
# of full scale take it to 0.9 of the default bound, eight at -0.9 back
ORDER1 = dict(a=(1.0,), c=(1.0,))


def _full_scale_at_limit(geometry):
    """The full scale (T) that puts the ORDER1 loop at its loop-sum
    limit, sum(a) stability_bound full_scale / b_lsb = 2**50, without a
    geometry, or at its device-accumulator limit, stability_bound
    quanta_per_unit device_gain / c[0] = 2**48, with one."""
    cfg = ModulatorConfig(geometry=geometry, **ORDER1)
    if geometry is None:
        return 2.0**50 * cfg.comparator.b_lsb / cfg.stability_bound
    return 2.0**48 * CODATA.phi0 / (cfg.stability_bound * geometry.area
                                    * cfg.device_gain)


@pytest.mark.parametrize("kwargs,msg", [
    # the loop sum in comparator LSBs overflows, far past the 2**50 that
    # the loop rounds exactly
    (dict(full_scale=1e308), "loop sum at inf comparator LSBs, past the "
     r"2\*\*50"),
    (dict(stability_bound=1e306), "loop sum at inf comparator LSBs"),
    # one full-scale unit over a wide bore overflows the quanta count,
    # with the loop sum, 8 full_scale / b_lsb, far under its limit
    (dict(full_scale=1e3,
          geometry=CylinderGeometry(radius=1e153, n_segments=4, n_eff=4)),
     "inf flux quanta"),
    # or underflows it to zero, which the integrator divides by
    (dict(full_scale=1e-300,
          geometry=CylinderGeometry(radius=1e-100, n_segments=4, n_eff=4)),
     "0.0 flux quanta"),
    # half a period over the device settle time overflows to a margin
    # that the report could not state
    (dict(geometry=GEOM8, fs=1e-301), r"settle_margin, .* at inf, outside "
     r"\[1, inf\)"),
    (dict(geometry=GEOM8, fs=5e-324), r"settle_margin, .* at inf, outside "
     r"\[1, inf\)"),
    # just past the loop's exactly rounded range
    (dict(full_scale=_full_scale_at_limit(None) * (1.0 + 1e-12), **ORDER1),
     r"loop sum at 1.13e\+15 comparator LSBs, past the 2\*\*50"),
    (dict(geometry=GEOM8, full_scale=_full_scale_at_limit(GEOM8)
          * (1.0 + 1e-12), **ORDER1),
     r"up to 2.81e\+14 quanta in the device accumulator: the count must "
     r"be above 0 and the accumulator under the 2\*\*48"),
])
def test_config_rejects_counts_past_the_float_range(kwargs, msg):
    with pytest.raises(DomainError, match=msg):
        ModulatorConfig(**kwargs)


def test_theoretical_sqnr_validation():
    for args in ((0, 128, 9), (2, 1, 9), (2, 128, 0.0), (2, math.nan, 9),
                 (2, 128, math.nan)):
        with pytest.raises(DomainError):
            theoretical_sqnr(*args)


def test_full_scale_field_default_and_override():
    cfg = ModulatorConfig()
    assert cfg.full_scale_field == pytest.approx(1.3234136630156349e-05,
                                                 rel=1e-12)
    assert cfg.full_scale_field == pytest.approx(
        cfg.comparator.half_range * cfg.comparator.b_lsb, rel=1e-15)
    cfg2 = ModulatorConfig(full_scale=1e-5)
    assert cfg2.full_scale_field == 1e-5


def test_settle_budget_threshold():
    # 8-segment schedule with default time constants settles in 6.2 ns;
    # a clock that leaves under half a period of margin is rejected
    # when the config is built
    with pytest.raises(DomainError, match="settle"):
        ModulatorConfig(geometry=GEOM8, fs=1e8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slow = ModulatorConfig(geometry=GEOM8, fs=5e7)
        run_modulator(slow, np.zeros(64))


def test_settle_margin_is_half_a_period_over_the_settle_time():
    assert ModulatorConfig(fs=1e10).settle_margin is None
    # 8 segments settle in 16 tau_cooper ln 2 + 17 tau_ecoil, 6.2 ns
    t_settle = 16.0 * 1e-10 * math.log(2.0) + 17 * 3e-10
    # 1e-300 Hz is about the slowest clock whose margin stays finite
    for fs in (1e-300, 1.0, 5e7, 8e7):
        margin = ModulatorConfig(geometry=GEOM8, fs=fs).settle_margin
        assert margin == 0.5 / fs / t_settle
        assert 1.0 <= margin < math.inf


def test_quanta_per_unit_is_the_bore_flux_of_full_scale():
    assert ModulatorConfig().quanta_per_unit is None
    cfg = ModulatorConfig(geometry=GEOM8)
    assert cfg.quanta_per_unit == \
        cfg.full_scale_field * GEOM8.area / CODATA.phi0


def test_device_gain_is_found_once_per_schedule(monkeypatch):
    # once per geometry, b_lsb and schedule: a rebuilt config, or
    # another config of the same three, runs no schedule, and a new
    # schedule runs its own
    calls = []
    real = modulator.run_amplification_sequence

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modulator, "run_amplification_sequence", counted)
    modulator._schedule_gain.cache_clear()
    cfg = ModulatorConfig(geometry=GEOM8)
    assert cfg.device_gain == 4
    for _ in range(2):
        assert run_modulator(cfg, np.zeros(64)).device_gain == 4
    assert dataclasses.replace(cfg, osr=64).device_gain == 4
    assert ModulatorConfig(geometry=GEOM8, schedule=list(
        default_amplification_schedule(8))).device_gain == 4
    assert len(calls) == 1
    doubling = ModulatorConfig(geometry=GEOM8,
                               schedule=doubling_amplification_schedule())
    assert doubling.device_gain == 2 and len(calls) == 2
    assert ModulatorConfig().device_gain is None


def test_geometry_alone_makes_a_flux_device_loop():
    cfg = ModulatorConfig(geometry=GEOM8)
    assert cfg.backend == "flux-device"
    assert cfg.device_gain == 4
    named = ModulatorConfig(geometry=GEOM8, backend="flux-device")
    u = make_tone(4096, 5, 0.5)
    assert (run_modulator(cfg, u).codes.tobytes()
            == run_modulator(named, u).codes.tobytes())
    assert ModulatorConfig().backend == "ideal"
    # replace passes the derived label back in, where it agrees
    slow = dataclasses.replace(cfg, fs=5e7)
    assert slow.backend == "flux-device" and slow.fs == 5e7


def test_tone_is_coherent():
    u = make_tone(1024, 3, 0.5)
    assert u.shape == (1024,)
    assert np.max(np.abs(u)) <= 0.5
    assert u[0] == 0.0


def test_tone_validation():
    with pytest.raises(DomainError, match="two samples"):
        make_tone(1, 1, 0.5)
    with pytest.raises(DomainError, match="positive integer"):
        make_tone(64, 0, 0.5)
    with pytest.raises(DomainError, match="positive integer"):
        make_tone(64, 2.5, 0.5)
    with pytest.raises(DomainError, match="Nyquist"):
        make_tone(64, 33, 0.5)
    # at the Nyquist bin the sine is sampled at its zeros
    with pytest.raises(DomainError, match="Nyquist"):
        make_tone(64, 32, 0.5)


def test_run_modulator_input_validation():
    cfg = ModulatorConfig()
    with pytest.raises(DomainError, match="1-d"):
        run_modulator(cfg, np.zeros((4, 4)))
    with pytest.raises(DomainError, match="1-d"):
        run_modulator(cfg, np.array([]))
    with pytest.raises(DomainError, match="within \\[-1, 1\\]"):
        run_modulator(cfg, np.array([0.0, 1.2]))


@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
def test_run_modulator_rejects_nan_input(geometry):
    cfg = ModulatorConfig(geometry=geometry)
    with pytest.raises(DomainError, match="within \\[-1, 1\\]"):
        run_modulator(cfg, np.array([0.0, np.nan, 0.5]))


def test_matches_handwritten_recursion():
    # direct transcription of the difference equations, kept independent
    # of the implementation loop
    cfg = ModulatorConfig()
    n = 2048
    u = 0.3 * np.sin(2 * math.pi * 5 * np.arange(n) / n) + 0.1
    trace = run_modulator(cfg, u)

    lsb_n = cfg.comparator.b_lsb / cfg.full_scale_field
    hr = cfg.comparator.half_range
    a1, a2 = cfg.a
    c1, c2 = cfg.c
    x1 = x2 = 0.0
    prev_err = 0.0
    codes, states = [], []
    for k in range(n):
        x1 = x1 + c1 * prev_err
        x2 = x2 + c2 * x1
        y = a1 * x1 + a2 * x2
        code = min(max(round(y / lsb_n), -hr), hr)
        codes.append(code)
        states.append((x1, x2))
        prev_err = u[k] - code * lsb_n
    np.testing.assert_array_equal(trace.codes, np.array(codes))
    assert trace.state_peak == tuple(np.max(np.abs(states), axis=0))
    # the first integrator sums the delayed loop error
    x1_sum = np.cumsum(np.concatenate(
        [[0.0], c1 * (u[:-1] - trace.codes[:-1] * lsb_n)]))
    assert trace.state_peak[0] == pytest.approx(np.max(np.abs(x1_sum)),
                                                rel=1e-9)


# (a, c) per order; orders 3 and 4 are not tuned for the default bound
LOOP_COEFFS = {
    1: ((1.0,), (1.0,)),
    2: ((2.0, 4.0), (0.5, 0.5)),
    3: ((1.0, 0.5, 0.1), (0.4, 0.4, 0.3)),
    4: ((0.8, 0.4, 0.1, 0.02), (0.3, 0.3, 0.3, 0.3)),
}


def _loop_oracle(cfg, u, gain=None, stop_past=None):
    """The difference equations of the module docstring written out per
    stage, with the flux-device integrator when gain is given: returns
    codes, states and the saturation count. With stop_past, the states
    end at the first sample with a state not inside [-stop_past,
    stop_past], which is not quantized."""
    lsb_n = cfg.comparator.b_lsb / cfg.full_scale_field
    hr = cfg.comparator.half_range
    if cfg.input_noise is not None:
        u = u + synth_flicker_series(cfg.input_noise, u.size, cfg.fs)
    if gain is not None:
        quanta = cfg.full_scale_field * cfg.geometry.area / CODATA.phi0
    a, c = cfg.a, cfg.c
    order = len(cfg.a)
    x = [0.0] * order
    acc = 0
    err = 0.0
    codes, states, saturations = [], [], 0
    for k in range(u.size):
        if gain is None:
            x[0] = x[0] + c[0] * err
        else:
            acc += gain * round(err * quanta)
            x[0] = acc * (c[0] / gain) / quanta
        for i in range(1, order):
            x[i] = x[i] + c[i] * x[i - 1]
        if stop_past is not None and not all(abs(v) <= stop_past
                                             for v in x):
            states.append(list(x))
            break
        y = 0.0
        for i in range(order):
            y += a[i] * x[i]
        raw = round(y / lsb_n)
        code = min(max(raw, -hr), hr)
        saturations += code != raw
        codes.append(code)
        states.append(list(x))
        err = float(u[k]) - code * lsb_n
    return (np.array(codes, dtype=np.int64), np.array(states, dtype=float),
            saturations)


@pytest.mark.parametrize("noisy", [False, True],
                         ids=["no-noise", "input-noise"])
@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_loop_matches_difference_equations_exactly(order, geometry, noisy):
    a, c = LOOP_COEFFS[order]
    device = geometry is not None
    noise = NoiseModel(R0=1.0, tau1=2.0, tau2=2e4, kprime=1e-6, seed=3)
    cfg = ModulatorConfig(a=a, c=c, geometry=geometry, stability_bound=50.0,
                          input_noise=noise if noisy else None)
    # a DC step ahead of the tone saturates the quantizer of orders 2-4
    # while the loop settles
    u = make_tone(4096, 5, 0.5)
    u[:8] = 0.9
    trace = run_modulator(cfg, u)
    gain = GEOM8.n_segments // 2 if device else None
    assert trace.device_gain == gain
    codes, states, saturations = _loop_oracle(cfg, u, gain)
    assert trace.codes.dtype == np.int64 and trace.codes.shape == (4096,)
    assert trace.codes.tobytes() == codes.tobytes()
    assert trace.saturation_count == saturations
    assert (saturations > 0) == (order > 1)
    assert (np.array(trace.state_peak).tobytes()
            == np.max(np.abs(states), axis=0).tobytes())


@pytest.mark.parametrize("dc", [3 / 512, -3 / 512])
def test_loop_rounds_half_lsb_ties_like_round(dc):
    # the default loop's lsb_n is exactly 1/256 and its gains are
    # dyadic, so a DC input of 1.5 LSB keeps every state dyadic and
    # lands y / lsb_n on exact half-LSBs, above odd and even integers,
    # where rounding half to even decides the code
    cfg = ModulatorConfig()
    lsb_n = cfg.comparator.b_lsb / cfg.full_scale_field
    assert lsb_n == 1 / 256
    u = np.full(4096, dc)
    codes, states, saturations = _loop_oracle(cfg, u)
    t = (cfg.a[0] * states[:, 0] + cfg.a[1] * states[:, 1]) / lsb_n
    below_ties = np.floor(t[t % 1.0 == 0.5])
    assert np.any(below_ties % 2 == 0) and np.any(below_ties % 2 == 1)
    trace = run_modulator(cfg, u)
    assert trace.codes.tobytes() == codes.tobytes()
    assert trace.saturation_count == saturations == 0
    assert (np.array(trace.state_peak).tobytes()
            == np.max(np.abs(states), axis=0).tobytes())


def _assert_runs_as_oracle(cfg, u, gain=None):
    """run_modulator gives the oracle's codes, saturations and state
    peaks bit for bit, or raises InstabilityError at the oracle's first
    sample and stage past the bound."""
    bound = cfg.stability_bound
    codes, states, saturations = _loop_oracle(cfg, u, gain,
                                              stop_past=bound)
    past = ~(np.abs(states) <= bound)
    if past.any():
        sample = int(np.argmax(past.any(axis=1)))
        stage = int(np.argmax(past[sample])) + 1
        with pytest.raises(InstabilityError) as err:
            run_modulator(cfg, u)
        assert str(err.value) == (f"integrator {stage} left [-{bound}, "
                                  f"{bound}] at sample {sample}")
        assert err.value.sample == sample
        return
    trace = run_modulator(cfg, u)
    assert trace.codes.tobytes() == codes.tobytes()
    assert trace.saturation_count == saturations
    assert (np.array(trace.state_peak).tobytes()
            == np.max(np.abs(states), axis=0).tobytes())


def test_loop_rounds_a_tie_at_a_non_power_of_two_lsb_like_round():
    # lsb_n = 0.1 is no power of two, so a_0 / lsb_n = fl(30.000...04)
    # is inexact: the loop must divide the sum by the LSB, which puts
    # sample 1 on the tie 2.5 and rounds it to 2, where the gain folded
    # into the LSB would give 2.5000000000000004 and the code 3
    b_lsb = ModulatorConfig().comparator.b_lsb
    cfg = ModulatorConfig(a=(3.0,), c=(0.5,), full_scale=10 * b_lsb)
    lsb_n = cfg.comparator.b_lsb / cfg.full_scale_field
    assert lsb_n == 0.1
    x = 0.08333333333333334
    u = np.full(256, 2 * x)
    codes, states, _ = _loop_oracle(cfg, u)
    assert states[1, 0] == x and 3.0 * x / lsb_n == 2.5
    assert codes[1] == 2 and round(3.0 / lsb_n * x) == 3
    _assert_runs_as_oracle(cfg, u)


def test_gain_past_the_float_range_over_the_lsb_runs_as_the_oracle():
    # a_0 / lsb_n = 2**1020 / 2**-8 overflows, and inf * 0.0 would turn
    # sample 0's zero loop sum to nan, which saturates to -half_range
    cfg = ModulatorConfig(a=(2.0**1020,), c=(2.0**-1010,),
                          stability_bound=2.0**-1000)
    _assert_runs_as_oracle(cfg, np.full(16, 0.5))


# c[0] = 2**-998 over a gain of 4 is the normal power of two 2**-1000;
# a full scale of 1 mT is about 6e8 quanta, which 2**-1000 scales past
# the float range, and the default's 8e6 quanta, which it scales to
# 8.6e307; c[0] = 5e-324 over 4 rounds to 0. Each bound keeps the
# device accumulator under 2**48.
@pytest.mark.parametrize("c0,full_scale,bound", [
    (5e-324, None, 1e-317),
    (4 * 2.0**-1000, 1e-3, 1e-297),
    (4 * 2.0**-1000, None, 1e-297),
], ids=["c0-gain-underflows", "q-scale-overflows", "q-scale-finite"])
def test_device_loop_at_extreme_c0_gain_runs_as_the_oracle(c0, full_scale,
                                                           bound):
    cfg = ModulatorConfig(a=(2.0, 4.0), c=(c0, 0.5), geometry=GEOM8,
                          full_scale=full_scale, stability_bound=bound)
    assert cfg.device_gain == 4
    _assert_runs_as_oracle(cfg, np.full(64, 0.5), 4)


@pytest.mark.parametrize("dc", [5e-324, -1e-310, -0.0])
@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
@pytest.mark.parametrize("order", [2, 3])
def test_subnormal_and_signed_zero_dc_runs_as_the_oracle(order, geometry,
                                                         dc):
    # under the scaled loop's floor, so the loop runs unscaled; order
    # 3's gains are not dyadic, so its products round in the subnormal
    # range, where a scaled loop would round more finely
    a, c = LOOP_COEFFS[order]
    cfg = ModulatorConfig(a=a, c=c, geometry=geometry, stability_bound=50.0)
    _assert_runs_as_oracle(cfg, np.full(2048, dc),
                           None if geometry is None else 4)


def _scaled_run_as_oracle(monkeypatch, cfg, u, gain=None):
    """_assert_runs_as_oracle, then whether the run took the scaled
    loop: at the default full scale lsb_n = 2**-8 only the scaled loop
    leaves out its multiply and divide by lsb_n."""
    units = []
    monkeypatch.setattr(modulator, "_compiled_loop",
                        lambda *v: units.append(v[2]) or _compiled_loop(*v))
    _assert_runs_as_oracle(cfg, u, gain)
    return "lsb_n" in units[-1]


def _scaling_limits(cfg):
    """The floor and the ceiling on |u_n| of cfg's scaled loop."""
    lsb_n = cfg.comparator.b_lsb / cfg.full_scale_field
    return _input_limits(cfg, lsb_n, cfg.device_gain, *_loop_constants(
        cfg, lsb_n, cfg.device_gain, True))


# the default loop's floor on a nonzero |u_n| is 2**-1022 / P: P is
# 1/4 on the ideal loop, whose least quantum is that of x_2, c1 c2 err,
# and 1 on the device, whose first state is not formed from err
@pytest.mark.parametrize("inside", [True, False],
                         ids=["at-floor", "under-floor"])
@pytest.mark.parametrize("geometry,floor", [(None, 2.0**-1020),
                                            (GEOM8, 2.0**-1022)],
                         ids=BACKEND_IDS)
def test_input_at_the_scaling_floor_runs_as_the_oracle(geometry, floor,
                                                       inside, monkeypatch):
    cfg = ModulatorConfig(geometry=geometry)
    assert _scaling_limits(cfg)[0] == floor
    level = floor if inside else np.nextafter(floor, 0.0)
    # a tone, whose sample 0 is 0.0, with tiny samples of both signs
    u = make_tone(512, 5, 0.5)
    u[3::4] = level
    u[5::8] = -level
    assert _scaled_run_as_oracle(monkeypatch, cfg, u,
                                 None if geometry is None else 4) == inside


@pytest.mark.parametrize("inside", [True, False],
                         ids=["at-ceiling", "over-ceiling"])
def test_input_at_the_scaling_ceiling_runs_as_the_oracle(inside,
                                                         monkeypatch):
    # c[0] = 2**-960 scales x_1 by 2**968, which leaves max |u_n| a
    # ceiling of 2**970 / 2**968 - (1 + bound + half_range lsb_n) = 0.5
    cfg = ModulatorConfig(a=(1.0,), c=(2.0**-960,), stability_bound=1.5)
    assert _scaling_limits(cfg)[1] == 0.5
    u = make_tone(512, 5, 0.4)
    u[7] = 0.5 if inside else np.nextafter(0.5, 1.0)
    assert _scaled_run_as_oracle(monkeypatch, cfg, u) == inside


@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
def test_scaled_loop_leaving_the_bound_raises_as_the_oracle(geometry,
                                                            monkeypatch):
    # the scaled loop checks x_i against the bound scaled alike, and
    # its error names the unscaled bound
    cfg = ModulatorConfig(geometry=geometry, stability_bound=0.3)
    u = np.full(64, 0.9)
    with pytest.raises(InstabilityError, match=r"left \[-0\.3, 0\.3\]"):
        run_modulator(cfg, u)
    assert _scaled_run_as_oracle(monkeypatch, cfg, u,
                                 None if geometry is None else 4)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(min_value=1, max_value=3),
       a_exp=st.lists(st.integers(min_value=-2, max_value=3), min_size=3,
                      max_size=3),
       c_exp=st.lists(st.integers(min_value=-3, max_value=1), min_size=3,
                      max_size=3),
       scale_exp=st.integers(min_value=-4, max_value=4),
       device=st.booleans(), tone=st.booleans(),
       level=st.one_of(st.floats(min_value=0.0, max_value=0.95),
                       st.floats(min_value=0.0, max_value=2.0**-1000),
                       st.sampled_from([2.0**-1020, 2.0**-1022, 5e-324,
                                        np.nextafter(2.0**-1020, 0.0)])))
@example(order=2, a_exp=[1, 2, 0], c_exp=[-1, -1, 0], scale_exp=0,
         device=False, tone=False, level=2.0**-1020)
@example(order=2, a_exp=[1, 2, 0], c_exp=[-1, -1, 0], scale_exp=0,
         device=True, tone=True, level=0.5)
def test_power_of_two_loops_run_as_the_oracle(order, a_exp, c_exp, scale_exp,
                                              device, tone, level):
    # power-of-two gains and full scales, at tiny and ordinary levels,
    # scaled or not: codes, saturations and state peaks bit for bit,
    # or the oracle's InstabilityError
    cfg = ModulatorConfig(
        a=tuple(2.0**e for e in a_exp[:order]),
        c=tuple(2.0**e for e in c_exp[:order]),
        full_scale=ModulatorConfig().full_scale_field * 2.0**scale_exp,
        geometry=GEOM8 if device else None, stability_bound=50.0)
    u = make_tone(256, 3, level) if tone else np.full(256, level)
    u[1::5] = -level
    _assert_runs_as_oracle(cfg, u, 4 if device else None)


def test_sweep_compiles_each_loop_variant_once():
    # each of these 24 configs leaves a different set of constants at
    # 1.0, and so takes its own loop: per order, the ideal loop at two
    # full scales, one 1.1 times the default's, which makes lsb_n no
    # power of two, and the device loop at those two and at c[0] of
    # 0.5 and 0.3, whose c0_gain is no power of two; a second sweep
    # compiles nothing
    full_scale = 1.1 * ModulatorConfig().full_scale_field
    configs = [
        ModulatorConfig(a=a, c=(c0,) + c[1:], geometry=geometry,
                        full_scale=fs)
        for a, c in LOOP_COEFFS.values() for geometry in (None, GEOM8)
        for fs in (None, full_scale)
        for c0 in ((c[0],) if geometry is None else (0.5, 0.3))]
    _compiled_loop.cache_clear()
    for _ in range(2):
        for cfg in configs:
            run_modulator(cfg, np.zeros(16))
    info = _compiled_loop.cache_info()
    assert (info.misses, info.hits, info.currsize) == (24, 24, 24)


# the loop runs _BLOCK samples per iteration and the n % _BLOCK left
# one at a time, _CHUNK samples a call: runs of no whole block, of one
# block and a sample either way, of one chunk and a sample either way,
# and of four chunks and one sample
BLOCK_EDGE_LENGTHS = [1, 15, 16, 17, 31, 33, _CHUNK - 1, _CHUNK,
                      _CHUNK + 1, 4 * _CHUNK + 1]


@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_block_edges_run_as_the_oracle(order, geometry):
    # the DC step saturates orders 2-4 from sample 1 on, in the tail
    # loop of the runs shorter than a block
    a, c = LOOP_COEFFS[order]
    cfg = ModulatorConfig(a=a, c=c, geometry=geometry, stability_bound=50.0)
    u = make_tone(BLOCK_EDGE_LENGTHS[-1], 5, 0.5)
    u[:8] = 0.9
    for n in BLOCK_EDGE_LENGTHS:
        _assert_runs_as_oracle(cfg, u[:n], None if geometry is None else 4)
    assert (run_modulator(cfg, u[:15]).saturation_count > 0) == (order > 1)


# a step at sample at - 1 after zeros takes a state past the bound 0.5
# at sample at: x_1 = 0.9 in the order-1 loop, and x_2 = 2 x_1 = 0.9 in
# a loop with c = (0.5, 2.0); the 53 samples hold three blocks, and
# sample 50 lies in the tail
@pytest.mark.parametrize("at", [2 * _BLOCK + j for j in range(_BLOCK)]
                         + [3 * _BLOCK + 2],
                         ids=[f"block-{j}" for j in range(_BLOCK)] + ["tail"])
@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
def test_instability_at_each_block_position_runs_as_the_oracle(geometry, at):
    u = np.zeros(3 * _BLOCK + 5)
    u[at - 1:] = 0.9
    for stage, gains in ((1, ORDER1), (2, dict(c=(0.5, 2.0)))):
        cfg = ModulatorConfig(geometry=geometry, stability_bound=0.5,
                              **gains)
        with pytest.raises(InstabilityError, match=(
                rf"integrator {stage} left \[-0.5, 0.5\] at sample {at}$")):
            run_modulator(cfg, u)
        _assert_runs_as_oracle(cfg, u, None if geometry is None else 4)


def _samples_run(monkeypatch, cfg, u):
    """The InstabilityError that run_modulator raises for cfg and u, and
    how many samples its loop had run by then: the end of the span whose
    rebuild raised."""
    stops = []
    upto = modulator._Rebuild.upto
    monkeypatch.setattr(modulator._Rebuild, "upto",
                        lambda self, stop: stops.append(stop)
                        or upto(self, stop))
    with pytest.raises(InstabilityError) as err:
        run_modulator(cfg, u)
    return err.value, stops[-1]


# a quiet tone that steps at sample 1003 takes x_1 past the bound at
# sample 1004 with no code saturated: to 0.9 in the order-1 loop with
# bound 0.5, where it stays past the bound, and to 0.5 in the default
# loop with bound 0.2, where it is back inside at every chunk's end
@pytest.mark.parametrize("gains,bound,level,ran", [
    (ORDER1, 0.5, 0.9, _CHUNK), ({}, 0.2, 0.5, _REBUILD)],
    ids=["stays-past", "comes-back"])
@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
def test_run_past_the_bound_stops_within_a_chunk_or_a_rebuild(
        geometry, gains, bound, level, ran, monkeypatch):
    cfg = ModulatorConfig(geometry=geometry, stability_bound=bound, **gains)
    gain = None if geometry is None else 4
    u = make_tone(4 * _REBUILD, 5, 0.01)
    u[1003:] = level
    assert _loop_oracle(cfg, u[:1005], gain)[2] == 0
    err, stop = _samples_run(monkeypatch, cfg, u)
    assert err.sample == 1004 and stop == ran
    _assert_runs_as_oracle(cfg, u, gain)


def _run_clipping(monkeypatch, cfg, u):
    """run_modulator's trace of cfg and u, and whether it ran the
    clipping loop."""
    clips = []
    monkeypatch.setattr(modulator, "_compiled_loop",
                        lambda *v: clips.append(v[3]) or _compiled_loop(*v))
    return run_modulator(cfg, u), any(clips)


# a quiet tone that steps to 0.9 at sample first - 1 saturates the
# default loop from sample first on: mid-block in the first chunk, on
# its last sample, on the next chunk's first sample, and in the tail
# loop of the run's last call; a step to 1.0 leaves the bound 32
# samples after its first saturation, in the chunk after it
@pytest.mark.parametrize("first,level", [
    (1004, 0.9), (_CHUNK - 1, 0.9), (_CHUNK, 0.9), (2 * _CHUNK + 17, 0.9),
    (1004, 1.0)],
    ids=["mid-block", "chunk-end", "chunk-start", "tail", "then-unstable"])
def test_first_saturation_at_block_and_chunk_edges_runs_as_the_oracle(
        first, level, monkeypatch):
    cfg = ModulatorConfig()
    u = make_tone(2 * _CHUNK + 20, 5, 0.01)
    u[first - 1:] = level
    _, states, saturations = _loop_oracle(cfg, u)
    lsb_n = cfg.comparator.b_lsb / cfg.full_scale_field
    y = (cfg.a[0] * states[:, 0] + cfg.a[1] * states[:, 1]) / lsb_n
    assert np.flatnonzero(np.abs(np.round(y))
                          > cfg.comparator.half_range)[0] == first
    quiet, clipped = _run_clipping(monkeypatch, cfg, u[:first])
    assert quiet.saturation_count == 0 and not clipped
    if level < 1.0:
        trace, clipped = _run_clipping(monkeypatch, cfg, u)
        assert clipped and trace.saturation_count == saturations > 0
    else:
        past = np.flatnonzero(np.any(np.abs(states) > 8.0, axis=1))[0]
        assert past // _CHUNK == first // _CHUNK + 1
    _assert_runs_as_oracle(cfg, u)
    if first == 1004 and level < 1.0:
        assert first % _BLOCK == 12 and saturations == 16


@pytest.mark.parametrize("over", [False, True],
                         ids=["code-at-half-range", "code-a-hair-over"])
def test_code_at_half_range_runs_without_the_clipping_loop(over,
                                                           monkeypatch):
    # the order-1 loop at lsb_n = 2**-9: u_0 of half an LSB leaves x_1
    # on a tie that rounds to code 0, so u_1 = 0.5 puts x_1 at 256.5
    # LSBs, which rounds half to even to half_range, 256: the loop's
    # codes stand and nothing saturates; u_1 one ulp over 0.5 rounds to
    # 257, which the clipping loop re-runs and clamps once
    cfg = ModulatorConfig(full_scale=2 * ModulatorConfig().full_scale_field,
                          **ORDER1)
    assert cfg.comparator.b_lsb / cfg.full_scale_field == 2.0**-9
    assert cfg.comparator.half_range == 256
    u = make_tone(512, 5, 0.1)
    u[0] = 2.0**-10
    u[1] = np.nextafter(0.5, 1.0) if over else 0.5
    trace, clipped = _run_clipping(monkeypatch, cfg, u)
    assert trace.state_peak[0] * 2**9 == 256.5 + (2.0**-44 if over else 0.0)
    assert clipped == over and trace.saturation_count == int(over)
    _assert_runs_as_oracle(cfg, u)


# a step to 0.9 at sample 9 after zeros takes x_1 of the order-1 loop,
# and x_2 of a loop with c = (0.5, 2.0), to the run's largest state; a
# bound equal to that peak holds it, one an ulp under it does not, and
# the first state past a bound, not one on it, is the one named
@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
@pytest.mark.parametrize("stage,gains", [(1, ORDER1), (2, dict(c=(0.5, 2.0)))],
                         ids=["stage-1", "stage-2"])
def test_state_on_the_bound_runs_and_an_ulp_past_it_raises(stage, gains,
                                                           geometry):
    gain = None if geometry is None else 4
    u = np.zeros(96)
    u[9:] = 0.9
    cfg = ModulatorConfig(geometry=geometry, **gains)
    _, states, _ = _loop_oracle(cfg, u, gain)
    peak = np.max(np.abs(states))
    at = int(np.argmax(np.abs(states[:, stage - 1]) == peak))
    assert np.abs(states[at, stage - 1]) == peak and peak > 0.5
    on = dataclasses.replace(cfg, stability_bound=float(peak))
    assert run_modulator(on, u).state_peak[stage - 1] == peak
    _assert_runs_as_oracle(on, u, gain)
    past = dataclasses.replace(on, stability_bound=np.nextafter(peak, 0.0))
    with pytest.raises(InstabilityError, match=(
            rf"integrator {stage} left .* at sample {at}$")):
        run_modulator(past, u)
    _assert_runs_as_oracle(past, u, gain)
    # a bound on the stage's first nonzero state raises at the first
    # state past it, not at the one on it
    col = np.abs(states[:, stage - 1])
    first = int(np.flatnonzero(col)[0])
    early = dataclasses.replace(cfg, stability_bound=float(col[first]))
    with pytest.raises(InstabilityError) as err:
        run_modulator(early, u)
    assert err.value.sample > first
    _assert_runs_as_oracle(early, u, gain)


@settings(max_examples=300, deadline=None)
@given(t=st.one_of(
    st.floats(min_value=-2.0**50, max_value=2.0**50),
    st.integers(min_value=-2**50, max_value=2**50 - 1).map(
        lambda k: k + 0.5)))
@example(t=0.5)
@example(t=-0.5)
@example(t=1.5)
@example(t=-2.5)
@example(t=2.0**50 - 0.5)
@example(t=-2.0**50 + 0.5)
def test_float_rounding_is_round_half_even(t):
    # the loop's rounding, over the loop-sum limit's range of y / lsb_n
    assert (t + _ROUND) - _ROUND == round(t)


@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
def test_config_just_under_its_rounding_limit_runs_exactly(geometry):
    full_scale = _full_scale_at_limit(geometry) * (1.0 - 1e-12)
    cfg = ModulatorConfig(geometry=geometry, full_scale=full_scale,
                          **ORDER1)
    lsb_n = cfg.comparator.b_lsb / cfg.full_scale_field
    u = np.concatenate([np.full(8, 0.9), np.full(8, -0.9),
                        make_tone(2048, 5, 100.0 * lsb_n)])
    gain = GEOM8.n_segments // 2 if geometry is not None else None
    codes, states, saturations = _loop_oracle(cfg, u, gain)
    # the state, and so y / lsb_n or the accumulator, reaches 0.9 of
    # the limit
    assert np.max(np.abs(states)) >= 0.85 * cfg.stability_bound
    trace = run_modulator(cfg, u)
    assert trace.codes.tobytes() == codes.tobytes()
    assert trace.saturation_count == saturations > 0
    assert (np.array(trace.state_peak).tobytes()
            == np.max(np.abs(states), axis=0).tobytes())


def test_device_step_past_exact_rounding_raises_as_the_integer_loop():
    # a large c[0] keeps the accumulator limit while one full-scale unit
    # holds more than 2**51 quanta: the second sample rounds err quanta
    # past 2**51, inexactly in floats, and both arithmetics leave the
    # bound there, at stage 1
    c0 = 1024.0
    full_scale = 1.2 * 2.0**51 * CODATA.phi0 / GEOM8.area
    cfg = ModulatorConfig(a=(1.0,), c=(c0,), geometry=GEOM8,
                          full_scale=full_scale)
    assert cfg.stability_bound * cfg.quanta_per_unit * 4 / c0 < 2.0**48
    u = np.full(16, 0.85)
    # the loop error of sample 1 is u[0], which the float rounding
    # misses by one quantum
    t = u[0] * cfg.quanta_per_unit
    assert t >= 2.0**51 and (t + _ROUND) - _ROUND != round(t)
    _, states, _ = _loop_oracle(cfg, u, GEOM8.n_segments // 2)
    assert abs(states[0, 0]) <= 8.0 < abs(states[1, 0])
    with pytest.raises(InstabilityError) as err:
        run_modulator(cfg, u)
    assert str(err.value) == "integrator 1 left [-8.0, 8.0] at sample 1"


@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_state_peak_of_negative_excursion(order, geometry):
    # a negative DC level drives every stage's peak |x_i| from below
    # zero, where the peak is the rebuilt states' least value
    a, c = LOOP_COEFFS[order]
    device = geometry is not None
    cfg = ModulatorConfig(a=a, c=c, geometry=geometry, stability_bound=50.0)
    u = np.full(2048, -0.5)
    trace = run_modulator(cfg, u)
    _, states, _ = _loop_oracle(cfg, u, GEOM8.n_segments // 2
                                if device else None)
    at_peak = states[np.argmax(np.abs(states), axis=0), range(order)]
    assert np.all(at_peak < 0.0)
    assert (np.array(trace.state_peak).tobytes()
            == np.max(np.abs(states), axis=0).tobytes())


@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_loop_quantizer_matches_comparator_quantize(order, geometry):
    # the loop inlines the comparator's round-and-clamp; rebuilt from the
    # oracle's states, whose codes the exact test above pins to the
    # loop's, its input y must quantize to the same codes through
    # comparator.quantize at the loop's normalized LSB
    a, c = LOOP_COEFFS[order]
    device = geometry is not None
    cfg = ModulatorConfig(a=a, c=c, geometry=geometry, stability_bound=50.0)
    u = make_tone(4096, 5, 0.5)
    u[:8] = 0.9
    trace = run_modulator(cfg, u)
    _, states, _ = _loop_oracle(cfg, u, GEOM8.n_segments // 2
                                if device else None)
    y = cfg.a[0] * states[:, 0]
    for i in range(1, order):
        y = y + cfg.a[i] * states[:, i]
    comp = cfg.comparator
    lsb_n = comp.b_lsb / cfg.full_scale_field
    codes, saturated = quantize(dataclasses.replace(comp, b_lsb=lsb_n), y)
    assert trace.codes.tobytes() == codes.tobytes()
    assert trace.saturation_count == int(saturated.sum())
    assert (trace.saturation_count > 0) == (order > 1)


@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_instability_reports_first_stage_past_bound(order, geometry):
    # a DC step drives the states past each bound in turn; the error
    # names the first (sample, stage) of the oracle's states past it,
    # and at the largest bound this order breaks that is its last stage
    a, c = LOOP_COEFFS[order]
    device = geometry is not None
    u = np.full(64, 0.9)
    _, states, _ = _loop_oracle(
        ModulatorConfig(a=a, c=c, geometry=geometry),
        u, GEOM8.n_segments // 2 if device else None)
    stages = []
    for bound in (0.25, 1.0, 4.0):
        cfg = ModulatorConfig(a=a, c=c, geometry=geometry,
                              stability_bound=bound)
        past = np.abs(states) > bound
        if not past.any():
            assert max(run_modulator(cfg, u).state_peak) <= bound
            continue
        sample = int(np.argmax(past.any(axis=1)))
        stage = int(np.argmax(past[sample])) + 1
        stages.append(stage)
        with pytest.raises(InstabilityError) as err:
            run_modulator(cfg, u)
        assert str(err.value) == (f"integrator {stage} left [-{bound}, "
                                  f"{bound}] at sample {sample}")
        assert err.value.sample == sample
    assert stages[-1] == order


@pytest.mark.parametrize("geometry", [None, GEOM8], ids=BACKEND_IDS)
@pytest.mark.parametrize("stage", [0, 1])
def test_nan_state_raises_instability_at_its_stage(stage, geometry):
    # inf * 0.0 is nan: an infinite c_i turns stage i+1 nan at sample 0,
    # which the rebuilt states must name; (nan + _ROUND) - _ROUND is a
    # nan code, which the clipping loop clamps to -half_range
    c = [0.5, 0.5]
    c[stage] = math.inf
    cfg = ModulatorConfig(c=tuple(c), geometry=geometry)
    with pytest.raises(InstabilityError) as err:
        run_modulator(cfg, np.full(16, 0.5))
    assert str(err.value) == (f"integrator {stage + 1} left [-8.0, 8.0] "
                              "at sample 0")
    assert err.value.sample == 0


def test_zero_input_is_silent():
    trace = run_modulator(ModulatorConfig(), np.zeros(4096))
    assert np.all(trace.codes == 0)
    assert trace.saturation_count == 0
    assert dc_tracking_mean(trace) == 0.0
    assert trace.device_gain is None


@settings(max_examples=10, deadline=None)
@given(dc=st.floats(min_value=-0.8, max_value=0.8))
def test_dc_tracking(dc):
    trace = run_modulator(ModulatorConfig(), np.full(2**14, dc))
    assert abs(dc_tracking_mean(trace) - dc) <= 2.0 / 256.0


def test_stability_over_random_inputs():
    cfg = ModulatorConfig()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-0.9, 0.9, 4096)
        trace = run_modulator(cfg, u)
        _, states, _ = _loop_oracle(cfg, u)
        assert trace.state_peak == tuple(np.max(np.abs(states), axis=0))
        assert max(trace.state_peak) <= cfg.stability_bound


def test_instability_reports_sample_index():
    cfg = ModulatorConfig(stability_bound=0.1)
    with pytest.raises(InstabilityError, match="integrator 1.*at sample 1") as err:
        run_modulator(cfg, np.full(8, 0.5))
    assert err.value.sample == 1


def test_noise_shaping_doubles_with_osr():
    trace = run_modulator(ModulatorConfig(), make_tone(2**14, 3, 0.5))
    _, power = output_power_spectrum(trace)
    # noise-plus-distortion power in band: bins above the +-3 bin window
    # around the tone at bin 3, up to the band edge n / (2 osr)
    powers = [float(np.sum(power[7:2**14 // (2 * osr) + 1]))
              for osr in (16, 32, 64, 128)]
    assert powers == pytest.approx(
        [95.9447459529159, 2.60982461494367,
         0.06677671740379164, 0.0018025473018806317], rel=1e-9)
    # order-2 shaping: each octave of oversampling buys ~2^(2L+1)
    for wide, narrow in zip(powers, powers[1:]):
        assert wide / narrow > 30.0


def test_device_backend_equivalence():
    # the flux-device integrator rounds to whole quanta each cycle, so
    # codes may walk off by a couple of counts; the loop contract is
    # that SNDR stays within 1 dB of the ideal backend at matched gain
    u = make_tone(2**16, 257, 10 ** (-1.0 / 20.0))
    ideal = run_modulator(ModulatorConfig(osr=32), u)
    device = run_modulator(
        ModulatorConfig(osr=32, geometry=GEOM8), u)
    assert device.device_gain == 4
    s_ideal = sndr_db(ideal, 257)
    s_device = sndr_db(device, 257)
    assert abs(s_ideal - s_device) <= 1.0
    assert int(np.max(np.abs(ideal.codes - device.codes))) <= 2


def test_device_backend_custom_schedule_gain():
    from fluxdsm.fluxtrap import doubling_amplification_schedule
    geom = CylinderGeometry(radius=0.02, n_segments=4, n_eff=4)
    cfg = ModulatorConfig(geometry=geom,
                          schedule=doubling_amplification_schedule())
    trace = run_modulator(cfg, np.zeros(64))
    assert trace.device_gain == 2


@pytest.mark.parametrize("schedule", [
    (),
    (FieldStep(True), FieldStep(False)),
], ids=["empty", "field-only"])
def test_device_schedule_without_rings_is_rejected(schedule):
    geom = CylinderGeometry(radius=0.02, n_segments=4, n_eff=4)
    with pytest.raises(DomainError, match="leaves no ring"):
        ModulatorConfig(geometry=geom, schedule=schedule)


def test_deterministic_codes():
    cfg = ModulatorConfig()
    u = make_tone(4096, 5, 0.5)
    a = run_modulator(cfg, u).codes
    b = run_modulator(cfg, u).codes
    assert a.tobytes() == b.tobytes()


def test_deterministic_with_input_noise():
    noise = NoiseModel(R0=1.0, tau1=2.0, tau2=2e4, kprime=1e-8, seed=5)
    cfg = ModulatorConfig(input_noise=noise)
    u = make_tone(8192, 5, 0.5)
    a = run_modulator(cfg, u).codes
    b = run_modulator(cfg, u).codes
    assert a.tobytes() == b.tobytes()
    other = ModulatorConfig(input_noise=NoiseModel(
        R0=1.0, tau1=2.0, tau2=2e4, kprime=1e-8, seed=6))
    assert a.tobytes() != run_modulator(other, u).codes.tobytes()


def test_power_spectrum_bin_count():
    freqs, power = power_spectrum(np.sin(np.arange(1000)), fs=2.0)
    assert freqs.shape == (500,)
    assert power.shape == (500,)
    assert freqs[0] == 0.0
    trace = run_modulator(ModulatorConfig(), make_tone(512, 3, 0.5))
    f2, p2 = output_power_spectrum(trace)
    assert f2.shape == (256,) and p2.shape == (256,)


@pytest.mark.parametrize("n", [1, 1000, 4096, 65536])
def test_hann_window_is_shared_read_only_and_exact(n):
    # built once per length and shared by every spectrum of that length
    w = _hann_periodic(n)
    assert _hann_periodic(n) is w
    assert not w.flags.writeable
    k = np.arange(n)
    assert w.tobytes() == (0.5 - 0.5 * np.cos(2.0 * math.pi * k / n)).tobytes()


def test_sndr_estimator_against_white_noise():
    # tone at bin 501 plus white noise sized for exactly 120 dB in-band
    # SNR at osr 16: the estimator must land on it
    n = 2**16
    rng = np.random.default_rng(7)
    sigma = math.sqrt(16.0 * 0.5 / 1e12)
    x = (np.sin(2 * math.pi * 501 * np.arange(n) / n)
         + sigma * rng.standard_normal(n))
    assert band_sndr(power_spectrum(x)[1], 16, 501) == pytest.approx(
        119.83, abs=0.5)


def test_sndr_pure_tone_floor():
    n = 2**16
    x = np.sin(2 * math.pi * 501 * np.arange(n) / n)
    assert band_sndr(power_spectrum(x)[1], 16, 501) > 200.0


def test_sndr_band_without_noise_is_rejected():
    # osr 4 with the tone at bin 5: every in-band noise bin falls inside
    # the guard window, so the band holds no noise bin
    with pytest.raises(ConfigError, match="no noise bin in the band"):
        band_sndr(power_spectrum(make_tone(64, 5, 1.0))[1], 4, 5)
    # noise bins that hold no power would divide by zero
    power = np.zeros(64)
    power[5] = 1.0
    with pytest.raises(DomainError, match="no noise power in the band"):
        band_sndr(power, 4, 5)


def test_sndr_validation():
    with pytest.raises(ConfigError, match="outside the modulator band"):
        band_sndr(power_spectrum(np.ones(4096))[1], 128, 20)
    with pytest.raises(DomainError, match="no signal power"):
        band_sndr(power_spectrum(np.zeros(4096))[1], 128, 5)


def test_sndr_tracks_theory_at_osr_64():
    u = make_tone(2**16, 129, 10 ** (-1.0 / 20.0))
    trace = run_modulator(ModulatorConfig(osr=64), u)
    measured = sndr_db(trace, 129)
    theory = theoretical_sqnr(2, 64, 9)
    assert theory - 6.0 <= measured <= theory + 1.0
    assert measured == pytest.approx(132.31, abs=0.1)
    # band_sndr of the spectrum a caller already holds gives the same
    # value, bit for bit, at any sample rate
    _, power = output_power_spectrum(
        dataclasses.replace(trace, config=ModulatorConfig(osr=64, fs=1e9)))
    assert band_sndr(power, 64, 129) == measured


def test_theoretical_sqnr_values():
    assert theoretical_sqnr(2, 128, 9) == pytest.approx(148.40420361798823,
                                                        rel=1e-12)
    assert theoretical_sqnr(2, 64, 9) == pytest.approx(133.35270383478917,
                                                       rel=1e-12)
    # quoted roundings of the same expression
    assert theoretical_sqnr(2, 128, 9) == pytest.approx(148.3, abs=0.2)
    assert theoretical_sqnr(2, 64, 9) == pytest.approx(133.2, abs=0.2)


def test_theoretical_sqnr_osr_doubling_rule():
    for order in (1, 2, 3):
        gained = (theoretical_sqnr(order, 256, 9)
                  - theoretical_sqnr(order, 128, 9))
        assert gained == pytest.approx(
            (2 * order + 1) * 10.0 * math.log10(2.0), rel=1e-12)


def test_theoretical_sqnr_validation():
    with pytest.raises(DomainError):
        theoretical_sqnr(0, 128, 9)
    with pytest.raises(DomainError):
        theoretical_sqnr(2, 1, 9)
    with pytest.raises(DomainError):
        theoretical_sqnr(2, 128, 0.0)


@pytest.mark.parametrize("n", [1, 3, 4, 64])
def test_dc_tracking_mean_drops_first_quarter(n):
    cfg = ModulatorConfig()
    trace = run_modulator(cfg, np.full(n, 0.5))
    lsb_n = cfg.comparator.b_lsb / cfg.full_scale_field
    assert dc_tracking_mean(trace) == float(
        np.mean(trace.codes[n // 4:])) * lsb_n


def test_custom_comparator_changes_lsb():
    comp = make_comparator(100e-6, 9.371e-3)
    cfg = ModulatorConfig(comparator=comp)
    assert cfg.full_scale_field == pytest.approx(
        comp.half_range * comp.b_lsb, rel=1e-15)
