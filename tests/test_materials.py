"""Material records and the parabolic critical-field law."""

import math

import pytest
from hypothesis import given, strategies as st

from fluxdsm.constants import CODATA
from fluxdsm.errors import DomainError, PhaseViolationError
from fluxdsm.materials import (
    BUILTIN_MATERIALS,
    Material,
    check_superconducting,
    critical_field,
    critical_flux_density,
    get_material,
)


def test_builtin_catalog_contents():
    assert set(BUILTIN_MATERIALS) == {"lead", "aluminum", "niobium"}
    lead = get_material("lead")
    assert lead.kind == "type-I"
    assert lead.Tc == 7.19
    assert lead.Hc0 == 6.39e4
    nb = get_material("niobium")
    assert nb.kind == "type-II"
    assert nb.Hc0 == 1.43e5


def test_get_material_unknown_name():
    with pytest.raises(DomainError, match="unknown material 'unobtainium'"):
        get_material("unobtainium")


def test_critical_field_parabolic_law():
    lead = get_material("lead")
    assert critical_field(lead, 0.0) == lead.Hc0
    # midpoint of the parabola: 1 - (T/Tc)^2 = 3/4
    mid = critical_field(lead, lead.Tc / 2)
    assert mid == pytest.approx(lead.Hc0 * 0.75, rel=1e-12)
    assert critical_field(lead, lead.Tc) == 0.0
    assert critical_field(lead, lead.Tc * 2) == 0.0


@pytest.mark.parametrize("T", [-0.1, math.nan])
def test_critical_field_negative_temperature(T):
    lead = get_material("lead")
    with pytest.raises(DomainError, match="non-negative"):
        critical_field(lead, T)


def test_critical_flux_density_is_mu0_h():
    lead = get_material("lead")
    b = critical_flux_density(lead, 4.2)
    h = critical_field(lead, 4.2)
    assert b == pytest.approx(CODATA.mu0 * h, rel=1e-15)


def test_london_coefficient():
    lead = get_material("lead")
    assert lead.london_coefficient == pytest.approx(
        CODATA.mu0 * lead.lambda_l**2, rel=1e-15)


@given(t=st.floats(min_value=0.0, max_value=7.19, allow_nan=False))
def test_critical_field_monotone_below_tc(t):
    lead = get_material("lead")
    assert 0.0 <= critical_field(lead, t) <= lead.Hc0


def _material_kwargs(**overrides):
    base = dict(name="x", kind="type-I", Tc=1.0, Hc0=1.0, lambda_l=1e-8,
                delta=1e-22, vF=1e6, kF=1e10, N0=1e47, sigma_n=1e7,
                tau_s=1e-12)
    base.update(overrides)
    return base


@pytest.mark.parametrize("bad", [
    dict(kind="type-III"),
    dict(Tc=0.0),
    dict(lambda_l=0.0),
    dict(delta=-1e-22),
    dict(vF=0.0),
    dict(sigma_n=0.0),
    dict(tau_s=-1e-12),
    dict(Tc=math.nan),
    dict(lambda_l=math.nan),
    dict(delta=math.nan),
    dict(vF=math.nan),
    dict(sigma_n=math.nan),
    dict(tau_s=math.nan),
    dict(Hc0=math.nan),
    dict(Hc0=0.0),
])
def test_material_validation(bad):
    with pytest.raises(DomainError):
        Material(**_material_kwargs(**bad))


def test_check_superconducting_accepts_the_phase():
    lead = get_material("lead")
    bc = critical_flux_density(lead, 4.2)
    check_superconducting(lead, 4.2, -0.99 * bc, "b")
    check_superconducting(lead, 0.0)
    # niobium's anchor is its lower critical field Hc1
    check_superconducting(get_material("niobium"), 4.2, 0.13)


@pytest.mark.parametrize("T, b, msg", [
    (4.2, 0.06, r"\|b_in\| = 0.06 T is not below the critical flux density "
     r"0.0529 T of lead at t = 4.2 K"),
    (4.2, -0.06, r"\|b_in\| = 0.06 T is not below"),
    (4.2, math.nan, r"\|b_in\| = nan T is not below"),
    (7.19, 0.0, r"t = 7.19 K is not below lead's Tc 7.19 K"),
    (20.0, 1e-10, r"t = 20 K is not below lead's Tc 7.19 K"),
    (math.nan, 0.0, r"t = nan K is not below lead's Tc 7.19 K"),
], ids=["above-bc", "above-bc-negative", "nan-field", "at-tc", "above-tc",
        "nan-t"])
def test_check_superconducting_rejects_the_normal_phase(T, b, msg):
    with pytest.raises(PhaseViolationError, match=msg):
        check_superconducting(get_material("lead"), T, b, "b_in")


def test_check_superconducting_rejects_negative_temperature():
    with pytest.raises(DomainError, match="non-negative"):
        check_superconducting(get_material("lead"), -1.0)

