"""Relaxation-noise PSDs, flicker synthesis, and the DOF projection."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import welch

from fluxdsm.errors import DomainError
from fluxdsm.noise import (
    NoiseModel,
    dof_variance_factor,
    flicker_psd,
    lorentzian_psd,
    synth_flicker_series,
    welch_psd,
)

MODEL = NoiseModel(R0=1.0, tau1=2.0, tau2=2e4, kprime=1.0, seed=42)


@pytest.mark.parametrize("bad", [
    dict(R0=-1.0),
    dict(tau1=0.0),
    dict(tau2=0.0),
    dict(tau1=3.0, tau2=2.0),
    dict(tau1=2.0, tau2=2.0),
    dict(kprime=-1.0),
    dict(dof_coupled=0),
    dict(dof_coupled=4),
    dict(R0=math.nan),
    dict(tau1=math.nan),
    dict(tau2=math.nan),
    dict(kprime=math.nan),
    dict(seed=-1),
    dict(seed=np.int64(-1)),
    dict(seed=1.5),
    dict(seed=42.0),
    dict(seed=math.nan),
    dict(seed="7"),
])
def test_noise_model_validation(bad):
    kwargs = dict(R0=1.0, tau1=2.0, tau2=2e4, kprime=1.0)
    kwargs.update(bad)
    with pytest.raises(DomainError):
        NoiseModel(**kwargs)


def test_lorentzian_zero_frequency():
    assert lorentzian_psd(MODEL, 0.0) == pytest.approx(4.0 * 2.0, rel=1e-15)


def test_lorentzian_total_power_is_r0():
    val, _ = quad(lambda f: lorentzian_psd(MODEL, 2 * math.pi * f), 0, np.inf)
    assert val == pytest.approx(MODEL.R0, rel=1e-6)


def test_lorentzian_rejects_negative_omega():
    with pytest.raises(DomainError):
        lorentzian_psd(MODEL, -1.0)
    with pytest.raises(DomainError):
        lorentzian_psd(MODEL, math.nan)


def test_flicker_zero_frequency_limit():
    assert flicker_psd(MODEL, 0.0) == pytest.approx(
        MODEL.kprime * (MODEL.tau2 - MODEL.tau1), rel=1e-15)
    # the array path hits the same branch
    arr = flicker_psd(MODEL, np.array([0.0, 1.0]))
    assert arr[0] == pytest.approx(MODEL.kprime * (MODEL.tau2 - MODEL.tau1))


def test_flicker_midband_inverse_omega():
    m = NoiseModel(R0=1.0, tau1=1e-4, tau2=1e2, kprime=3.0)
    # deep in the band both arctans saturate, so S*omega -> k'*pi/2
    assert flicker_psd(m, 1.0) * 1.0 == pytest.approx(
        3.0 * math.pi / 2.0, rel=0.02)


def test_flicker_rejects_negative_omega():
    with pytest.raises(DomainError):
        flicker_psd(MODEL, np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        flicker_psd(MODEL, np.array([1.0, math.nan]))


@pytest.mark.parametrize("kwargs,msg", [
    (dict(n=1024, fs=1.0), "n >= 4096"),
    (dict(n=8192, fs=0.0), "sample rate"),
    (dict(n=8192, fs=math.nan), "sample rate"),
    (dict(n=8192, fs=1e-4), "fs \\* tau2"),
    (dict(n=8192.0, fs=1.0), "not an integer"),
    (dict(n=8192.5, fs=1.0), "not an integer"),
])
def test_synth_preconditions(kwargs, msg):
    with pytest.raises(DomainError, match=msg):
        synth_flicker_series(MODEL, **kwargs)


def test_synth_narrow_band_rejected():
    m = NoiseModel(R0=1.0, tau1=10.0, tau2=50.0, kprime=1.0)
    with pytest.raises(DomainError, match="one decade"):
        synth_flicker_series(m, 8192, 1.0)


def test_telegraph_variance_matches_continuum():
    x = synth_flicker_series(MODEL, 65536, 1.0)
    expected = MODEL.kprime * math.log(MODEL.tau2 / MODEL.tau1) / 4.0
    assert x.var() == pytest.approx(expected, rel=0.15)


def test_telegraph_psd_tracks_closed_form():
    x = synth_flicker_series(MODEL, 65536, 1.0)
    f, p = welch(x, fs=1.0, nperseg=8192, detrend="constant")
    band = (f > 2e-4) & (f < 2e-2)
    model = flicker_psd(MODEL, 2 * math.pi * f[band])
    ratio = float(np.mean(p[band] / model))
    assert 0.8 < ratio < 1.2


def test_synth_deterministic_per_seed():
    a = synth_flicker_series(MODEL, 8192, 1.0)
    b = synth_flicker_series(MODEL, 8192, 1.0)
    assert np.array_equal(a, b)
    other = NoiseModel(R0=1.0, tau1=2.0, tau2=2e4, kprime=1.0, seed=43)
    assert not np.array_equal(a, synth_flicker_series(other, 8192, 1.0))
    # a numpy integer seed draws the same series as the int
    same = NoiseModel(R0=1.0, tau1=2.0, tau2=2e4, kprime=1.0,
                      seed=np.int64(42))
    assert np.array_equal(a, synth_flicker_series(same, 8192, 1.0))
    # and a numpy integer sample count the same as the int
    assert np.array_equal(a, synth_flicker_series(MODEL, np.int64(8192), 1.0))


def _telegraph_loop_series(model, n, fs):
    """synth_flicker_series as it was first written: one fresh array per
    step of each process. The buffered form must draw the same."""
    decades = math.log10(model.tau2 / model.tau1)
    rng = np.random.default_rng(model.seed)
    m = math.ceil(20.0 * decades)
    amp = math.sqrt(model.kprime * math.log(model.tau2 / model.tau1)
                    / (4.0 * m))
    out = np.zeros(n)
    for tau in np.geomspace(model.tau1, model.tau2, m):
        q = -0.5 * math.expm1(-1.0 / fs / tau)
        flips = rng.random(n) < q
        start = rng.integers(0, 2)
        parity = (start + np.cumsum(flips)) & 1
        out += amp * (1.0 - 2.0 * parity)
    return out


# (model keywords, n, fs) of each case the run-length synthesis is
# checked on against the loop
ORACLE_CASES = {
    "4096": (dict(tau1=2.0, tau2=2e4, kprime=1.0), 4096, 1.0),
    "65536": (dict(tau1=2.0, tau2=2e4, kprime=1.0), 65536, 1.0),
    "loop-sweep-noise": (dict(tau1=2.0, tau2=2e4, kprime=1e-9), 16384, 1.0),
    "q-near-half": (dict(tau1=0.01, tau2=100.0, kprime=1.0), 4096, 1.0),
    "fs-3.7": (dict(tau1=2.0, tau2=2e4, kprime=1.0), 4096, 3.7),
    "n-5000": (dict(tau1=2.0, tau2=2e4, kprime=1.0), 5000, 1.0),
}


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_synth_equals_the_loop_bit_for_bit(seed, case):
    """Every case at seeds 42 and 7. The run edges are reached:
    - q-near-half, whose fastest process has q = 0.5 to the last bit:
      at both seeds 22 processes flip at sample 0, which makes a
      zero-length first run, and over 20 flip at sample n - 1.
    - Every other case has a process that flips at sample 0 at seed
      42, and none at seed 7.
    - Every case but q-near-half has a process that never flips, one
      long run: 22 of 80 at 4096 and seed 42, 27 at fs-3.7 and 42.
    """
    kwargs, n, fs = ORACLE_CASES[case]
    model = NoiseModel(R0=1.0, seed=seed, **kwargs)
    assert synth_flicker_series(model, n, fs).tobytes() == \
        _telegraph_loop_series(model, n, fs).tobytes()


def test_synth_zero_magnitude_is_silent():
    m = NoiseModel(R0=1.0, tau1=2.0, tau2=2e4, kprime=0.0, seed=42)
    assert np.all(synth_flicker_series(m, 8192, 1.0) == 0.0)


@pytest.mark.parametrize("dof,factor", [(1, 1 / 3), (2, 2 / 3), (3, 1.0)])
def test_dof_variance_factor(dof, factor):
    m = NoiseModel(R0=1.0, tau1=2.0, tau2=2e4, kprime=1.0, dof_coupled=dof)
    assert dof_variance_factor(m) == pytest.approx(factor, rel=1e-15)


@pytest.mark.parametrize("n", [4096, 5000, 8200, 65536, 70001, 2**18])
@pytest.mark.parametrize("fs", [1.0, 3.7])
def test_welch_psd_equals_scipy_bit_for_bit(n, fs):
    """psd.csv keeps its bytes: odd and even segment lengths, and the
    one the noise runner uses."""
    x = np.random.default_rng(n).standard_normal(n)
    for m in sorted({n // 8, n // 8 + 1, min(n // 8, 65536)}):
        f_ref, p_ref = welch(x, fs=fs, nperseg=m, detrend="constant")
        f, p = welch_psd(x, fs, m)
        assert np.array_equal(f, f_ref), m
        assert np.array_equal(p, p_ref), m
