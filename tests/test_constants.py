import dataclasses

import pytest

from fluxdsm.constants import CODATA, PhysicalConstants, flux_quantum


def test_flux_quantum_value():
    # h / (2 e) with the 2019 SI exact values
    assert flux_quantum() == pytest.approx(2.0678338484619295e-15, rel=1e-15)
    assert flux_quantum() == CODATA.h / (2.0 * CODATA.e)


def test_flux_quantum_close_to_quoted_device_value():
    # device literature rounds to 2.0706e-15; both within 0.2%
    assert abs(flux_quantum() / 2.0706e-15 - 1.0) < 2e-3


def test_derived_members():
    assert CODATA.hbar == pytest.approx(CODATA.h / (2 * 3.141592653589793),
                                        rel=1e-12)
    assert CODATA.phi0 == flux_quantum()


def test_constants_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CODATA.h = 1.0


def test_constants_take_no_arguments():
    with pytest.raises(TypeError):
        PhysicalConstants(h=1)
    assert dataclasses.fields(CODATA) == ()
    # every instance holds the same values as CODATA
    assert PhysicalConstants().phi0 == CODATA.phi0
