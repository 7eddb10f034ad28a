"""Quasiparticle algebra, interface scattering, and junction currents."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import expit

from fluxdsm.constants import CODATA
from fluxdsm.errors import DomainError, QuadratureError
from fluxdsm.junctions import (
    ELECTRON,
    HOLE,
    NORMAL_SIDE,
    SUPER_SIDE,
    BCS_GAP_RATIO,
    NIS_MAX_EV,
    NIS_RTOL,
    NIS_SMALL_EV,
    JunctionConfig,
    _btk_kernel,
    _fermi,
    _nis_integrand,
    _nis_integrand_small,
    andreev_outcome,
    btk_probabilities,
    coherence_factors,
    dirty_spectrum,
    n_coherence_length,
    nis_current,
    nis_current_lowT,
    sns_current,
    sns_prefactor,
)
from fluxdsm.materials import get_material

LEAD = get_material("lead")


def test_junction_config_validation():
    with pytest.raises(DomainError, match="gap"):
        JunctionConfig(delta=-1.0, T=1.0, d=0.0)
    with pytest.raises(DomainError, match="temperature"):
        JunctionConfig(delta=1.0, T=-1.0, d=0.0)
    with pytest.raises(DomainError, match="thickness"):
        JunctionConfig(delta=1.0, T=1.0, d=-1e-9)
    with pytest.raises(DomainError, match="barrier"):
        JunctionConfig(delta=1.0, T=1.0, d=0.0, Z=-1.0)
    with pytest.raises(DomainError, match="area"):
        JunctionConfig(delta=1.0, T=1.0, d=0.0, area=0.0)
    with pytest.raises(DomainError, match="gap"):
        JunctionConfig(delta=math.nan, T=1.0, d=0.0)
    with pytest.raises(DomainError, match="temperature"):
        JunctionConfig(delta=1.0, T=math.nan, d=0.0)
    with pytest.raises(DomainError, match="thickness"):
        JunctionConfig(delta=1.0, T=1.0, d=math.nan)
    with pytest.raises(DomainError, match="barrier"):
        JunctionConfig(delta=1.0, T=1.0, d=0.0, Z=math.nan)
    with pytest.raises(DomainError, match="area"):
        JunctionConfig(delta=1.0, T=1.0, d=0.0, area=math.nan)
    # zero thickness is a legal tunnel junction
    JunctionConfig(delta=1.0, T=1.0, d=0.0)


@given(eps=st.floats(min_value=1e-3, max_value=10.0))
def test_coherence_unity_both_regimes(eps):
    u, v = coherence_factors(eps, 1.0)
    assert abs(u * u + v * v - 1.0) < 1e-12


def test_coherence_sub_gap_weight():
    for s in (0.1, 0.5, 0.9, 0.999):
        u, v = coherence_factors(s, 1.0)
        assert abs(abs(u) ** 2 + abs(v) ** 2 - 1.0 / s) < 1e-12


def test_coherence_above_gap_real():
    u, v = coherence_factors(2.0, 1.0)
    assert u.imag == pytest.approx(0.0, abs=1e-15)
    assert v.imag == pytest.approx(0.0, abs=1e-15)
    assert (u * u - v * v).real == pytest.approx(math.sqrt(3.0) / 2.0,
                                                 rel=1e-12)


def test_coherence_array_and_validation():
    u, v = coherence_factors(np.array([0.5, 2.0]), 1.0)
    assert u.shape == (2,)
    with pytest.raises(DomainError, match="energy"):
        coherence_factors(0.0, 1.0)
    with pytest.raises(DomainError, match="gap"):
        coherence_factors(1.0, -1.0)
    with pytest.raises(DomainError, match="energy"):
        coherence_factors(np.array([2.0, math.nan]), 1.0)
    with pytest.raises(DomainError, match="gap"):
        coherence_factors(1.0, math.nan)


def test_dirty_spectrum_gap_edge():
    eps, u2, v2 = dirty_spectrum(0.0, 1.0)
    assert eps == 1.0 and u2 == 0.5 and v2 == 0.5


def test_dirty_spectrum_gapless_origin():
    eps, u2, v2 = dirty_spectrum(0.0, 0.0)
    assert eps == 0.0 and u2 == 0.5 and v2 == 0.5


@pytest.mark.parametrize("delta", [-1.0, math.nan])
def test_dirty_spectrum_rejects_bad_gap(delta):
    with pytest.raises(DomainError, match="gap"):
        dirty_spectrum(0.5, delta)


@given(xi=st.floats(min_value=-10.0, max_value=10.0),
       delta=st.floats(min_value=0.0, max_value=5.0))
def test_dirty_spectrum_properties(xi, delta):
    eps, u2, v2 = dirty_spectrum(xi, delta)
    assert eps == pytest.approx(math.hypot(xi, delta), rel=1e-12)
    assert u2 + v2 == pytest.approx(1.0, rel=1e-12)
    assert -1e-15 <= u2 <= 1 + 1e-15


@given(eps=st.floats(min_value=0.0, max_value=10.0),
       z=st.floats(min_value=0.0, max_value=20.0))
def test_btk_unitarity(eps, z):
    a, b, c, d = btk_probabilities(eps, 1.0, z)
    assert a + b + c + d == pytest.approx(1.0, rel=0, abs=1e-12)
    assert min(a, b, c, d) >= -1e-15


def test_btk_transparent_sub_gap():
    a, b, c, d = btk_probabilities(0.5, 1.0, 0.0)
    assert a == 1.0 and b == 0.0 and c == 0.0 and d == 0.0


def test_btk_frozen_barrier_point():
    a, b, c, d = btk_probabilities(0.5, 1.0, 1.0)
    assert a == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert b == pytest.approx(6.0 / 7.0, rel=1e-12)
    assert c == 0.0 and d == 0.0


@pytest.mark.parametrize("eps,z", [(1.5, 0.7), (2.0, 2.0), (1.01, 0.0)])
def test_btk_above_gap_kernel_identity(eps, z):
    a, b, _, _ = btk_probabilities(eps, 1.0, z)
    eta = math.sqrt(eps**2 - 1.0) / eps
    assert 1.0 + a - b == pytest.approx(
        2.0 / (1.0 + eta * (1.0 + 2.0 * z * z)), rel=1e-12)


@given(e=st.one_of(st.sampled_from([0.0, 1.0]),
                   st.floats(min_value=0.0, max_value=10.0)),
       z=st.floats(min_value=0.0, max_value=20.0))
def test_btk_kernel_matches_probabilities(e, z):
    a, b, _, _ = btk_probabilities(e, 1.0, z)
    assert _btk_kernel(e, z) == pytest.approx(1.0 + a - b, rel=0, abs=1e-12)


def test_fermi_matches_expit():
    kt = 0.02
    for x in np.linspace(-14.0, 14.0, 4001).tolist():  # |x/kt| <= 700
        assert math.isclose(_fermi(x, kt), float(expit(-x / kt)),
                            rel_tol=1e-15, abs_tol=0.0)
    for y in (800.0, 1e4, 1e300):
        for x in (y * kt, -y * kt):
            assert _fermi(x, kt) == float(expit(-x / kt))


def test_btk_validation():
    with pytest.raises(DomainError):
        btk_probabilities(-0.1, 1.0, 0.0)
    with pytest.raises(DomainError):
        btk_probabilities(0.5, 1.0, -1.0)
    with pytest.raises(DomainError, match="energy"):
        btk_probabilities(math.nan, 1.0, 0.0)
    with pytest.raises(DomainError, match="barrier"):
        btk_probabilities(1.5, 1.0, math.nan)


def test_andreev_normal_side_sub_gap():
    out = andreev_outcome(ELECTRON, NORMAL_SIDE, 0.5, 1.0, Z=1.0)
    assert out.regime == "sub-gap"
    labels = [ch.label for ch in out.channels]
    assert labels == ["andreev", "specular", "pair-transfer"]
    assert out.probability("andreev") == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert out.probability("pair-transfer") == 0.0
    assert out.total_probability == pytest.approx(1.0, abs=1e-12)
    # retro-reflection flips the species
    assert out.channels[0].species == HOLE


def test_andreev_normal_side_above_gap():
    out = andreev_outcome(HOLE, NORMAL_SIDE, 2.0, 1.0, Z=0.5)
    assert out.regime == "above-gap"
    assert len(out.channels) == 4
    assert out.total_probability == pytest.approx(1.0, abs=1e-12)
    assert out.channels[0].species == ELECTRON


def test_andreev_super_side_sub_gap_forbidden():
    with pytest.raises(DomainError, match="below the gap"):
        andreev_outcome(ELECTRON, SUPER_SIDE, 0.5, 1.0)


def test_andreev_super_side_above_gap():
    out = andreev_outcome(ELECTRON, SUPER_SIDE, 2.0, 1.0, Z=0.5)
    assert len(out.channels) == 4
    assert out.total_probability == pytest.approx(1.0, abs=1e-12)


def test_andreev_validation():
    with pytest.raises(DomainError, match="species"):
        andreev_outcome("muon", NORMAL_SIDE, 0.5, 1.0)
    with pytest.raises(DomainError, match="side"):
        andreev_outcome(ELECTRON, "vacuum", 0.5, 1.0)
    with pytest.raises(DomainError, match="energy"):
        andreev_outcome(ELECTRON, NORMAL_SIDE, 0.0, 1.0)


def test_n_coherence_length_frozen():
    assert n_coherence_length(LEAD.vF, 4.2) == pytest.approx(
        5.296815056361811e-07, rel=1e-12)
    with pytest.raises(DomainError):
        n_coherence_length(0.0, 4.2)
    with pytest.raises(DomainError):
        n_coherence_length(LEAD.vF, 0.0)
    with pytest.raises(DomainError, match="Fermi velocity"):
        n_coherence_length(math.nan, 4.2)
    with pytest.raises(DomainError, match="temperature"):
        n_coherence_length(LEAD.vF, math.nan)


def _sns_cfg(d=1e-7, r_sheet=10.0):
    return JunctionConfig(delta=LEAD.delta, T=4.2, d=d, material=LEAD,
                          r_sheet=r_sheet)


def test_sns_prefactor_three_forms():
    cfg = _sns_cfg()
    assert sns_prefactor(cfg, 1) == pytest.approx(148.3221143104242,
                                                  rel=1e-12)
    assert sns_prefactor(cfg, 2) == pytest.approx(294.2334729231444,
                                                  rel=1e-12)
    assert sns_prefactor(cfg, 3) == pytest.approx(0.009636223049761273,
                                                  rel=1e-12)


def test_sns_prefactor_validation():
    with pytest.raises(DomainError, match="material"):
        sns_prefactor(JunctionConfig(delta=1.0, T=4.2, d=1e-7))
    with pytest.raises(DomainError, match="positive bridge length"):
        sns_prefactor(_sns_cfg(d=0.0))
    with pytest.raises(DomainError, match="r_sheet"):
        sns_prefactor(_sns_cfg(r_sheet=None), 3)
    with pytest.raises(DomainError, match="r_sheet"):
        sns_prefactor(_sns_cfg(r_sheet=math.nan), 3)
    # d * r_sheet underflows to zero
    with pytest.raises(DomainError, match="float range"):
        sns_prefactor(_sns_cfg(r_sheet=1e-300), 3)
    with pytest.raises(DomainError, match="unknown prefactor form"):
        sns_prefactor(_sns_cfg(), 4)


def test_sns_current_zero_phase():
    assert sns_current(_sns_cfg(), 0.0) == 0.0
    assert sns_current(_sns_cfg(), math.pi) == pytest.approx(0.0, abs=1e-12)


def test_sns_current_phase_relation():
    cfg = _sns_cfg()
    phi = np.linspace(0.0, 2 * math.pi, 9)
    i = sns_current(cfg, phi)
    i_c = sns_prefactor(cfg, 1) * math.exp(
        -cfg.d / n_coherence_length(LEAD.vF, cfg.T))
    np.testing.assert_allclose(i, i_c * np.sin(phi), rtol=1e-12, atol=1e-15)


def test_sns_decay_slope_is_inverse_coherence_length():
    # P carries a 1/d, so fit ln(d * I) against d: the slope is exactly
    # -1/xi_N
    xi = n_coherence_length(LEAD.vF, 4.2)
    ds = np.linspace(0.5, 3.0, 7) * xi
    lic = np.array([
        math.log(d * sns_current(_sns_cfg(d=d), math.pi / 2)) for d in ds])
    slope = np.polyfit(ds, lic, 1)[0]
    assert abs(slope * xi + 1.0) < 1e-6


def test_sns_current_needs_positive_temperature():
    cfg = JunctionConfig(delta=LEAD.delta, T=0.0, d=1e-7, material=LEAD)
    with pytest.raises(DomainError, match="temperature must be positive"):
        sns_current(cfg, 1.0)


def _nis_cfg(z=10.0, kt_over_delta=0.02):
    t = LEAD.delta * kt_over_delta / CODATA.kB
    return JunctionConfig(delta=LEAD.delta, T=t, d=0.0, Z=z)


def test_nis_below_gap_suppressed():
    cfg = _nis_cfg()
    below = nis_current(cfg, 0.5 * LEAD.delta / CODATA.e)
    ref = nis_current(cfg, 2.0 * LEAD.delta / CODATA.e)
    assert abs(below) < 1e-2 * ref
    assert nis_current(cfg, 0.0) == 0.0


def test_nis_matches_tunneling_law():
    cfg = _nis_cfg()
    s = np.array([1.2, 1.6, 2.4, 3.0])
    v = s * LEAD.delta / CODATA.e
    dev = np.abs(nis_current(cfg, v) - nis_current_lowT(cfg, v))
    assert np.all(dev / nis_current_lowT(cfg, v) < 0.01)


def test_nis_current_validation():
    with pytest.raises(DomainError, match="T > 0"):
        nis_current(JunctionConfig(delta=1e-22, T=0.0, d=0.0), 1e-3)
    with pytest.raises(DomainError, match="positive gap"):
        nis_current(JunctionConfig(delta=0.0, T=1.0, d=0.0), 1e-3)


def test_nis_current_rejects_unverified_domain():
    cfg = JunctionConfig(delta=LEAD.delta, T=0.3128, d=0.0)
    v_limit = NIS_MAX_EV * LEAD.delta / CODATA.e
    # the limit itself is accepted, and there the current is ohmic
    assert nis_current(cfg, -v_limit) == pytest.approx(
        -LEAD.delta * NIS_MAX_EV, rel=1e-12)
    for v in (np.nextafter(v_limit, math.inf), 1e300, math.nan):
        with pytest.raises(DomainError, match="past the NIS sweep limit"):
            nis_current(cfg, np.array([0.0, -v]))
    # the BCS Tc of lead's gap, delta / (1.764 kB) = 8.87 K, bounds T
    # also when no material sets a lower one
    tc = LEAD.delta / (BCS_GAP_RATIO * CODATA.kB)
    for t in (tc, 1e300, math.inf):
        with pytest.raises(DomainError, match="not below the BCS Tc 8.87 K"):
            nis_current(JunctionConfig(delta=LEAD.delta, T=t, d=0.0), 4e-3)


def test_nis_lowT_form():
    cfg = JunctionConfig(delta=LEAD.delta, T=0.0, d=0.0, Z=10.0)
    assert nis_current_lowT(cfg, 0.9 * LEAD.delta / CODATA.e) == 0.0
    v = 2.0 * LEAD.delta / CODATA.e
    expected = math.sqrt((2.0 * LEAD.delta) ** 2 - LEAD.delta**2) / 101.0
    assert nis_current_lowT(cfg, v) == pytest.approx(expected, rel=1e-12)
    arr = nis_current_lowT(cfg, np.array([0.0, v]))
    assert arr[0] == 0.0 and arr[1] > 0.0


def _nis_reference(cfg, v, rtol=NIS_RTOL):
    """The NIS integral over btk_probabilities and expit, with the
    interval, breakpoints and tolerances of nis_current."""
    delta = cfg.delta
    kt = CODATA.kB * cfg.T / delta
    ev = CODATA.e * v / delta
    lo = min(-30.0 * kt, ev - 30.0 * kt, -1.5)
    hi = max(30.0 * kt, ev + 30.0 * kt, 1.5)
    breakpoints = sorted(p for p in (-1.0, 1.0, ev) if lo < p < hi)

    def integrand(s):
        a, b, _, _ = btk_probabilities(abs(s), 1.0, cfg.Z)
        return (1.0 + a - b) * (expit(-(s - ev) / kt) - expit(-s / kt))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, lo, hi, points=breakpoints, limit=400,
                      epsabs=0.0, epsrel=rtol)
    return cfg.prefactor * delta * val


def test_nis_matches_probability_integrand():
    # the shipped junction_nis_lead parameters: kT = delta/50, Z = 10
    cfg = JunctionConfig(delta=LEAD.delta, T=0.3128, d=0.0, Z=10.0)
    volts = [s * LEAD.delta / CODATA.e for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
    ref = np.array([_nis_reference(cfg, v) for v in volts])
    dev = np.abs(nis_current(cfg, np.array(volts)) - ref)
    assert np.max(dev) <= 1e-12 * np.max(np.abs(ref))


def test_nis_quadrature_error(monkeypatch):
    cfg = _nis_cfg()
    v = 2.0 * LEAD.delta / CODATA.e
    kt = CODATA.kB * cfg.T / cfg.delta
    bound = 1e3 * NIS_RTOL * max(0.5, kt)
    seen = {}
    abserr = 2.0 * bound

    def fake_quad(f, a, b, **kwargs):
        seen.update(kwargs)
        # full_output adds an info dict, and a message when QUADPACK
        # flags the result
        return 0.5, abserr, {}, "flagged"

    monkeypatch.setattr("scipy.integrate.quad", fake_quad)
    with pytest.raises(QuadratureError, match=re.escape(f"V = {v}")) as err:
        nis_current(cfg, v)
    assert err.value.diagnostics == {"estimate": 0.5, "abserr": abserr}
    assert err.value.exit_code == 5
    ev = CODATA.e * v / cfg.delta
    assert seen == {"args": (ev, kt, cfg.Z), "points": [-1.0, 1.0, ev],
                    "limit": 400, "epsabs": 0.0, "epsrel": NIS_RTOL,
                    "full_output": 1}
    # an error estimate inside the bound passes the estimate through
    abserr = 0.5 * bound
    assert nis_current(cfg, v) == cfg.prefactor * cfg.delta * 0.5


@pytest.mark.parametrize("t", [0.3128, 4.2, 8.8])
@pytest.mark.parametrize("z", [0.0, 1.0, 10.0])
def test_nis_linear_response_at_tiny_voltages(t, z):
    # past |eV| ~ 1e-16 kT, f(s - eV) - f(s) rounds to 0.0 and the
    # current with it; I/V must stay at its linear-response value
    cfg = JunctionConfig(delta=LEAD.delta, T=t, d=0.0, Z=z)
    conductance = nis_current(cfg, 1e-15) / 1e-15
    assert conductance > 0.0
    for v in (1e-18, 1e-21, -1e-21, 1e-200):
        assert nis_current(cfg, v) / v == pytest.approx(conductance,
                                                        rel=1e-5)
    assert nis_current(cfg, 0.0) == 0.0
    up, down = nis_current(cfg, np.array([1e-21, -1e-21]))
    assert down == pytest.approx(-up, rel=1e-12)
    # 1e-300 V gives a subnormal current, too few bits for the ratio
    assert 0.0 < nis_current(cfg, 1e-300) < sys.float_info.min


@pytest.mark.parametrize("t", [0.3128, 4.2, 8.8])
@pytest.mark.parametrize("z", [0.0, 1.0, 10.0])
def test_nis_small_voltage_form_meets_fermi_form(t, z):
    # at the crossover |eV| = NIS_SMALL_EV kT the Fermi difference form
    # still keeps about 12 digits, past what NIS_RTOL asks of quad
    kt = CODATA.kB * t / LEAD.delta
    ev = NIS_SMALL_EV * kt
    lo, hi = min(-30.0 * kt, -1.5), max(ev + 30.0 * kt, 1.5)
    kwargs = dict(args=(ev, kt, z), limit=400, epsabs=0.0, epsrel=NIS_RTOL,
                  points=sorted(p for p in (-1.0, 1.0, ev) if lo < p < hi))
    fermi = quad(_nis_integrand, lo, hi, **kwargs)[0]
    small = quad(_nis_integrand_small, lo, hi, **kwargs)[0]
    assert small == pytest.approx(fermi, rel=1e-10)
    # past |y - a/2| = 700 the form reads 0.0, where cosh would overflow
    assert _nis_integrand_small(720.0 * kt, ev, kt, z) == 0.0
