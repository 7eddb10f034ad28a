"""Loop recursion, spectral analysis, and the device-backend contract."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluxdsm.comparator import make_comparator, quantize
from fluxdsm.constants import CODATA
from fluxdsm.errors import ConfigError, DomainError, InstabilityError
from fluxdsm.fluxtrap import (CylinderGeometry, FieldStep,
                              default_amplification_schedule,
                              doubling_amplification_schedule)
from fluxdsm.modulator import (
    ModulatorConfig,
    dc_tracking_mean,
    output_power_spectrum,
    power_spectrum,
    run_modulator,
    sndr_db,
    sndr_from_series,
    theoretical_sqnr,
)
from fluxdsm.modulator import test_tone as make_tone
from fluxdsm.noise import NoiseModel, synth_flicker_series

GEOM8 = CylinderGeometry(radius=0.02, n_segments=8, n_eff=4)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(a=(), c=()), "order .* must be in 1..4"),
    (dict(a=(1.0,) * 5, c=(0.5,) * 5), "order .* must be in 1..4"),
    (dict(osr=4), "osr must be"),
    (dict(a=(1.0,)), "one entry per stage"),
    (dict(a=(1.0, -2.0)), "gains must be > 0"),
    (dict(backend="analog"), "backend must be"),
    (dict(backend="flux-device"), "needs a cylinder geometry"),
    # the ideal loop has no device to take them
    (dict(geometry=GEOM8), "ideal backend takes no geometry or schedule"),
    (dict(schedule=doubling_amplification_schedule()),
     "ideal backend takes no geometry or schedule"),
    (dict(backend="ideal", geometry=CylinderGeometry(1e-4, 8, 4.0),
          schedule=default_amplification_schedule(8)),
     "ideal backend takes no geometry or schedule"),
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


@pytest.mark.parametrize("kwargs,msg", [
    # the loop sum in comparator LSBs overflows
    (dict(full_scale=1e308), "past the float range"),
    (dict(stability_bound=1e306), "past the float range"),
    # one full-scale unit over a wide bore overflows the quanta count
    (dict(full_scale=1e285, backend="flux-device",
          geometry=CylinderGeometry(radius=1e10, n_segments=4, n_eff=4)),
     "flux quanta"),
    # or underflows it to zero, which the integrator divides by
    (dict(full_scale=1e-300, backend="flux-device",
          geometry=CylinderGeometry(radius=1e-100, n_segments=4, n_eff=4)),
     "0.0 flux quanta"),
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


def test_settle_warning_threshold():
    # 8-segment schedule with default time constants settles in 6.2 ns;
    # the warning should trip once the clock leaves under half a period
    u = np.zeros(64)
    fast = ModulatorConfig(backend="flux-device", geometry=GEOM8, fs=1e8)
    with pytest.warns(UserWarning, match="settle") as record:
        run_modulator(fast, u)
    # the warning names the line that ran the loop
    assert [w.filename for w in record] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_modulator(dataclasses.replace(fast, fs=5e7), u)


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


def test_run_modulator_input_validation():
    cfg = ModulatorConfig()
    with pytest.raises(DomainError, match="1-d"):
        run_modulator(cfg, np.zeros((4, 4)))
    with pytest.raises(DomainError, match="1-d"):
        run_modulator(cfg, np.array([]))
    with pytest.raises(DomainError, match="within \\[-1, 1\\]"):
        run_modulator(cfg, np.array([0.0, 1.2]))


@pytest.mark.parametrize("backend,geometry", [("ideal", None),
                                             ("flux-device", GEOM8)])
def test_run_modulator_rejects_nan_input(backend, geometry):
    cfg = ModulatorConfig(backend=backend, geometry=geometry)
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
    codes = []
    for k in range(n):
        x1 = x1 + c1 * prev_err
        x2 = x2 + c2 * x1
        y = a1 * x1 + a2 * x2
        code = min(max(round(y / lsb_n), -hr), hr)
        codes.append(code)
        prev_err = u[k] - code * lsb_n
    np.testing.assert_array_equal(trace.codes, np.array(codes))
    np.testing.assert_allclose(trace.states[:, 0], np.cumsum(
        np.concatenate([[0.0], c1 * (u[:-1] - trace.codes[:-1] * lsb_n)])),
        rtol=1e-9, atol=1e-15)


# (a, c) per order; orders 3 and 4 are not tuned for the default bound
LOOP_COEFFS = {
    1: ((1.0,), (1.0,)),
    2: ((2.0, 4.0), (0.5, 0.5)),
    3: ((1.0, 0.5, 0.1), (0.4, 0.4, 0.3)),
    4: ((0.8, 0.4, 0.1, 0.02), (0.3, 0.3, 0.3, 0.3)),
}


def _loop_oracle(cfg, u, gain=None):
    """The difference equations of the module docstring written out per
    stage, with the flux-device integrator when gain is given: returns
    codes, states and the saturation count."""
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
@pytest.mark.parametrize("backend", ["ideal", "flux-device"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_loop_matches_difference_equations_exactly(order, backend, noisy):
    a, c = LOOP_COEFFS[order]
    device = backend == "flux-device"
    noise = NoiseModel(R0=1.0, tau1=2.0, tau2=2e4, kprime=1e-6, seed=3)
    cfg = ModulatorConfig(a=a, c=c, backend=backend,
                          geometry=GEOM8 if device else None,
                          stability_bound=50.0,
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
    assert trace.states.dtype == np.float64
    assert trace.states.shape == (4096, order)
    assert trace.codes.tobytes() == codes.tobytes()
    assert trace.states.tobytes() == states.tobytes()
    assert trace.saturation_count == saturations
    assert (saturations > 0) == (order > 1)
    assert trace.state_peak == tuple(np.max(np.abs(states), axis=0))


@pytest.mark.parametrize("backend", ["ideal", "flux-device"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_loop_quantizer_matches_comparator_quantize(order, backend):
    # the loop inlines the comparator's round-and-clamp; rebuilt from the
    # stored states, its input y must quantize to the same codes through
    # comparator.quantize at the loop's normalized LSB
    a, c = LOOP_COEFFS[order]
    device = backend == "flux-device"
    cfg = ModulatorConfig(a=a, c=c, backend=backend,
                          geometry=GEOM8 if device else None,
                          stability_bound=50.0)
    u = make_tone(4096, 5, 0.5)
    u[:8] = 0.9
    trace = run_modulator(cfg, u)
    y = cfg.a[0] * trace.states[:, 0]
    for i in range(1, order):
        y = y + cfg.a[i] * trace.states[:, i]
    comp = cfg.comparator
    lsb_n = comp.b_lsb / cfg.full_scale_field
    codes, saturated = quantize(dataclasses.replace(comp, b_lsb=lsb_n), y)
    assert trace.codes.tobytes() == codes.tobytes()
    assert trace.saturation_count == int(saturated.sum())
    assert (trace.saturation_count > 0) == (order > 1)


def test_instability_in_second_integrator_reports_sample():
    # a DC step drives x2 past the bound while x1 stays inside it
    u = np.full(64, 0.9)
    bound = 1.0
    _, states, _ = _loop_oracle(ModulatorConfig(), u)
    first = int(np.argmax(np.any(np.abs(states) > bound, axis=1)))
    assert abs(states[first, 0]) <= bound < abs(states[first, 1])
    with pytest.raises(InstabilityError) as err:
        run_modulator(ModulatorConfig(stability_bound=bound), u)
    assert str(err.value) == f"integrator 2 left [-1.0, 1.0] at sample {first}"
    assert err.value.sample == first == 7


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
        assert np.max(np.abs(trace.states)) <= cfg.stability_bound


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
        ModulatorConfig(osr=32, backend="flux-device", geometry=GEOM8), u)
    assert device.device_gain == 4
    s_ideal = sndr_db(ideal, 257)
    s_device = sndr_db(device, 257)
    assert abs(s_ideal - s_device) <= 1.0
    assert int(np.max(np.abs(ideal.codes - device.codes))) <= 2


def test_device_backend_custom_schedule_gain():
    from fluxdsm.fluxtrap import doubling_amplification_schedule
    geom = CylinderGeometry(radius=0.02, n_segments=4, n_eff=4)
    cfg = ModulatorConfig(backend="flux-device", geometry=geom,
                          schedule=doubling_amplification_schedule())
    trace = run_modulator(cfg, np.zeros(64))
    assert trace.device_gain == 2


@pytest.mark.parametrize("schedule", [
    (),
    (FieldStep(True), FieldStep(False)),
], ids=["empty", "field-only"])
def test_device_schedule_without_rings_is_rejected(schedule):
    geom = CylinderGeometry(radius=0.02, n_segments=4, n_eff=4)
    cfg = ModulatorConfig(backend="flux-device", geometry=geom,
                          schedule=schedule)
    with pytest.raises(DomainError, match="leaves no ring"):
        run_modulator(cfg, np.zeros(64))


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


def test_sndr_estimator_against_white_noise():
    # tone at bin 501 plus white noise sized for exactly 120 dB in-band
    # SNR at osr 16: the estimator must land on it
    n = 2**16
    rng = np.random.default_rng(7)
    sigma = math.sqrt(16.0 * 0.5 / 1e12)
    x = (np.sin(2 * math.pi * 501 * np.arange(n) / n)
         + sigma * rng.standard_normal(n))
    assert sndr_from_series(x, 16, 501) == pytest.approx(119.83, abs=0.5)


def test_sndr_pure_tone_floor():
    n = 2**16
    x = np.sin(2 * math.pi * 501 * np.arange(n) / n)
    assert sndr_from_series(x, 16, 501) > 200.0


def test_sndr_silent_band_reports_floor_code():
    # osr 4 with the tone at bin 5: every in-band noise bin falls inside
    # the guard window, so the noise sum is exactly zero
    assert sndr_from_series(make_tone(64, 5, 1.0), 4, 5) == 320.0


def test_sndr_validation():
    with pytest.raises(ConfigError, match="outside the modulator band"):
        sndr_from_series(np.ones(4096), 128, 20)
    with pytest.raises(DomainError, match="no signal power"):
        sndr_from_series(np.zeros(4096), 128, 5)


def test_sndr_tracks_theory_at_osr_64():
    u = make_tone(2**16, 129, 10 ** (-1.0 / 20.0))
    trace = run_modulator(ModulatorConfig(osr=64), u)
    measured = sndr_db(trace, 129)
    theory = theoretical_sqnr(2, 64, 9)
    assert theory - 6.0 <= measured <= theory + 1.0
    assert measured == pytest.approx(132.31, abs=0.1)


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
