"""Slab field profiles, the two-fluid dispersion, and coil field maps."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fluxdsm.constants import CODATA
from fluxdsm.electrodynamics import (
    SlabConfig,
    circular_loop_center_field,
    circular_loop_current_for_field,
    crank_nicolson_diffusion,
    normal_slab_profile,
    skin_depth,
    solenoid_field,
    square_loop_center_field,
    square_loop_current_for_field,
    super_slab_profile,
    two_fluid_wavenumber,
)
from fluxdsm.errors import DomainError, PhaseViolationError
from fluxdsm.materials import Material, critical_flux_density, get_material


def _conductor(sigma=5.8e7, lambda_l=1e-8, tau_s=0.0):
    return Material(name="probe", kind="type-I", Tc=1.0, Hc0=1.0,
                    lambda_l=lambda_l, delta=1e-22, vF=1e6, kF=1e10,
                    N0=1e47, sigma_n=sigma, tau_s=tau_s)


def test_skin_depth_frozen_value():
    # 50 Hz in a sigma = 5.8e7 S/m conductor: the textbook ~9.3 mm
    assert skin_depth(2 * math.pi * 50, 5.8e7) == pytest.approx(
        0.009345900059383452, rel=1e-12)


def test_skin_depth_rejects_nonpositive():
    with pytest.raises(DomainError):
        skin_depth(0.0, 5.8e7)
    with pytest.raises(DomainError):
        skin_depth(1e3, -1.0)
    with pytest.raises(DomainError):
        skin_depth(math.nan, 5.8e7)


def test_slab_config_validation():
    m = _conductor()
    with pytest.raises(DomainError, match="half-thickness"):
        SlabConfig(d=0.0, material=m, B0=1.0, omega=1e3)
    with pytest.raises(DomainError, match="omega"):
        SlabConfig(d=1e-3, material=m, B0=1.0, omega=-1.0)
    with pytest.raises(DomainError, match="temperature"):
        SlabConfig(d=1e-3, material=m, B0=1.0, omega=0.0, T=-0.5)
    with pytest.raises(DomainError, match="half-thickness"):
        SlabConfig(d=math.nan, material=m, B0=1.0, omega=1e3)
    with pytest.raises(DomainError, match="omega"):
        SlabConfig(d=1e-3, material=m, B0=1.0, omega=math.nan)
    with pytest.raises(DomainError, match="temperature"):
        SlabConfig(d=1e-3, material=m, B0=1.0, omega=0.0, T=math.nan)


def test_grid_outside_slab_rejected():
    cfg = SlabConfig(d=1e-3, material=_conductor(), B0=1.0, omega=0.0)
    with pytest.raises(DomainError, match="outside the slab"):
        normal_slab_profile(cfg, [0.0, 2e-3])


def test_normal_slab_dc_is_uniform():
    cfg = SlabConfig(d=1e-3, material=_conductor(), B0=0.7, omega=0.0)
    prof = normal_slab_profile(cfg, np.linspace(-1e-3, 1e-3, 11))
    assert np.all(prof.B == 0.7)
    assert np.all(prof.J == 0.0)


def test_normal_slab_boundary_and_symmetry():
    cfg = SlabConfig(d=2e-3, material=_conductor(), B0=1.0, omega=2e3)
    x = np.linspace(-2e-3, 2e-3, 41)
    prof = normal_slab_profile(cfg, x)
    assert prof.B[0] == pytest.approx(1.0, rel=1e-12)
    assert prof.B[-1] == pytest.approx(1.0, rel=1e-12)
    # even field, odd current
    np.testing.assert_allclose(prof.B, prof.B[::-1], rtol=1e-12)
    np.testing.assert_allclose(prof.J, -prof.J[::-1], rtol=1e-12, atol=1e-30)
    # interior attenuation
    assert abs(prof.B[20]) < 1.0


def test_normal_slab_matches_time_domain_oracle():
    # one medium-thickness case; the full triple sweep lives in the
    # acceptance suite at tighter resolution
    sigma = 5.8e7
    omega = 2 * math.pi * 50
    d = 2.5 * skin_depth(omega, sigma)
    x, b_hat = crank_nicolson_diffusion(d, sigma, omega, npoints=401,
                                        periods=12, steps_per_period=512)
    cfg = SlabConfig(d=d, material=_conductor(sigma=sigma), B0=1.0,
                     omega=omega)
    prof = normal_slab_profile(cfg, x)
    dev = np.abs(b_hat[1:-1] - prof.B[1:-1]) / np.abs(prof.B[1:-1])
    assert float(np.max(dev)) < 2e-4


def test_crank_nicolson_rejects_bad_args():
    with pytest.raises(DomainError):
        crank_nicolson_diffusion(1e-3, 5.8e7, 0.0)
    with pytest.raises(DomainError):
        crank_nicolson_diffusion(1e-3, 5.8e7, 1e3, npoints=3)
    with pytest.raises(DomainError):
        crank_nicolson_diffusion(math.nan, 5.8e7, 1e3)


def test_super_slab_center_screening():
    lead = get_material("lead")
    d = 2e-7
    cfg = SlabConfig(d=d, material=lead, B0=1e-3, omega=0.0, T=4.2)
    prof = super_slab_profile(cfg, np.array([0.0]))
    expected = 1.0 / math.cosh(d / lead.lambda_l)
    assert abs(prof.B[0]) / 1e-3 == pytest.approx(expected, rel=1e-12)


def test_super_slab_frequency_independent():
    lead = get_material("lead")
    x = np.linspace(-2e-7, 2e-7, 21)
    p0 = super_slab_profile(
        SlabConfig(d=2e-7, material=lead, B0=1e-3, omega=0.0, T=4.2), x)
    p1 = super_slab_profile(
        SlabConfig(d=2e-7, material=lead, B0=1e-3, omega=1e6, T=4.2), x)
    np.testing.assert_array_equal(p0.B, p1.B)
    np.testing.assert_array_equal(p0.J, p1.J)


def test_super_slab_above_critical_field():
    lead = get_material("lead")
    bc = critical_flux_density(lead, 4.2)
    cfg = SlabConfig(d=2e-7, material=lead, B0=bc * 1.01, omega=0.0, T=4.2)
    with pytest.raises(PhaseViolationError, match="not below the critical"):
        super_slab_profile(cfg, np.array([0.0]))


def test_super_slab_current_antisymmetric():
    lead = get_material("lead")
    x = np.linspace(-2e-7, 2e-7, 41)
    prof = super_slab_profile(
        SlabConfig(d=2e-7, material=lead, B0=1e-3, omega=0.0, T=4.2), x)
    np.testing.assert_allclose(prof.J, -prof.J[::-1], rtol=1e-12, atol=1e-30)


def test_two_fluid_low_frequency_limit():
    lead = get_material("lead")
    k = two_fluid_wavenumber(lead, 1e3)
    ref = 1.0 / lead.lambda_l
    assert abs(k - ref) / ref < 1e-6


def test_two_fluid_normal_metal_limit():
    # lambda_l = 1 km removes the superfluid channel
    m = _conductor(sigma=1e7, lambda_l=1e3)
    omega = 1e5
    k = two_fluid_wavenumber(m, omega)
    ref = cmath.sqrt(1j * omega * CODATA.mu0 * m.sigma_n)
    assert abs(k - ref) / abs(ref) < 1e-6


def test_two_fluid_rejects_negative_omega():
    with pytest.raises(DomainError):
        two_fluid_wavenumber(get_material("lead"), -1.0)
    with pytest.raises(DomainError):
        two_fluid_wavenumber(get_material("lead"), math.nan)


@given(omega=st.floats(min_value=0.0, max_value=1e12),
       name=st.sampled_from(["lead", "aluminum", "niobium"]))
def test_two_fluid_principal_root(omega, name):
    k = two_fluid_wavenumber(get_material(name), omega)
    assert k.real >= 0.0


def test_solenoid_field():
    assert solenoid_field(1000.0, 2.0) == pytest.approx(
        CODATA.mu0 * 2000.0, rel=1e-15)
    assert solenoid_field(0.0, 5.0) == 0.0
    with pytest.raises(DomainError):
        solenoid_field(-1.0, 1.0)
    with pytest.raises(DomainError):
        solenoid_field(math.nan, 1.0)


def test_square_loop_frozen_current():
    # current for one comparator LSB of field at the 200 um loop
    i = square_loop_current_for_field(200e-6, 5.169584621154824e-08)
    assert i == pytest.approx(9.138620848865819e-06, rel=1e-12)


@given(side=st.floats(min_value=1e-6, max_value=1e-2),
       current=st.floats(min_value=-10.0, max_value=10.0))
def test_square_loop_roundtrip(side, current):
    b = square_loop_center_field(side, current)
    assert square_loop_current_for_field(side, b) == pytest.approx(
        current, rel=1e-12, abs=1e-18)


def test_circular_loop_frozen_current():
    i = circular_loop_current_for_field(100e-6, 2.07e-15)
    assert i == pytest.approx(3.294507320208784e-13, rel=1e-12)
    assert circular_loop_center_field(100e-6, i) == pytest.approx(
        2.07e-15, rel=1e-12)


@pytest.mark.parametrize("fn", [
    square_loop_center_field, square_loop_current_for_field,
    circular_loop_center_field, circular_loop_current_for_field])
@pytest.mark.parametrize("size", [0.0, -1e-6, math.nan])
def test_loop_helpers_reject_nonpositive_size(fn, size):
    with pytest.raises(DomainError):
        fn(size, 1.0)
