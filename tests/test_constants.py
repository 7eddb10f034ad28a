import dataclasses
import math

import pytest

from fluxdsm.constants import CODATA, PhysicalConstants, flux_quantum
from fluxdsm.errors import DomainError


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


def test_phi0_derived_from_custom_constants():
    custom = PhysicalConstants(h=2.0 * CODATA.h, e=CODATA.e,
                               mu0=CODATA.mu0, kB=CODATA.kB)
    assert custom.phi0 == pytest.approx(2.0 * flux_quantum(), rel=1e-15)


@pytest.mark.parametrize("bad", [0.0, math.nan])
@pytest.mark.parametrize("field", ["h", "e", "mu0", "kB"])
def test_nonpositive_rejected(field, bad):
    values = {"h": CODATA.h, "e": CODATA.e, "mu0": CODATA.mu0,
              "kB": CODATA.kB}
    values[field] = bad
    with pytest.raises(DomainError):
        PhysicalConstants(**values)
