"""The NIS quadrature: the package's port of QUADPACK's dqagpe against
scipy.integrate.quad bit for bit, and the NIS current's invariants
through it."""

import math
import random
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from fluxdsm._quadpack import EPMACH, UFLOW, _WG, _WGK, _XGK, qagpe
from fluxdsm.constants import CODATA
from fluxdsm.junctions import (BCS_GAP_RATIO, NIS_RTOL, NIS_SMALL_EV,
                               JunctionConfig, _nis_integrand,
                               _nis_integrand_small, check_nis, nis_current)
from fluxdsm.materials import get_material

LEAD = get_material("lead")
# the shipped junction_nis_lead sweep
SHIPPED = JunctionConfig(delta=LEAD.delta, T=0.3128, d=0.0, Z=10.0)
SHIPPED_VOLTS = np.linspace(0.0, 4e-3, 121)


def _port_runs(monkeypatch):
    """The (value, abserr, neval) of each quadrature that nis_current
    runs through the port, in order, from here on."""
    runs = []

    def recording(rule, a, b, **kwargs):
        runs.append(qagpe(rule, a, b, **kwargs))
        return runs[-1]

    monkeypatch.setattr("fluxdsm._quadpack.qagpe", recording)
    return runs


def _quad(cfg, v):
    """(value, abserr, neval) of scipy's quad over the quadrature that
    nis_current makes at v, and whether it takes the small form."""
    kt = CODATA.kB * cfg.T / cfg.delta
    ev = CODATA.e * float(v) / cfg.delta
    lo = min(-30.0 * kt, ev - 30.0 * kt, -1.5)
    hi = max(30.0 * kt, ev + 30.0 * kt, 1.5)
    small = abs(ev) < NIS_SMALL_EV * kt
    val, err, info = quad(_nis_integrand_small if small else _nis_integrand,
                          lo, hi, args=(ev, kt, cfg.Z),
                          points=[-1.0, 1.0, ev], limit=400, epsabs=0.0,
                          epsrel=NIS_RTOL, full_output=1)[:3]
    return (val, err, info["neval"]), small


def _random_cases(count, seed):
    """Seeded NIS points inside check_nis: gaps of 0.2 to 5 times
    lead's, T over (0, Tc), Z of 0 or up to 20, and |V| up to 6 mV or
    log-uniform down to 1e-25 V, of either sign."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        delta = LEAD.delta * rng.uniform(0.2, 5.0)
        tc = delta / (BCS_GAP_RATIO * CODATA.kB)
        z = rng.choice([0.0, rng.uniform(0.0, 20.0)])
        cfg = JunctionConfig(delta=delta, T=rng.uniform(0.01, 0.99) * tc,
                             d=0.0, Z=z)
        v = (rng.uniform(-6e-3, 6e-3) if rng.random() < 0.5 else
             rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-25.0, -3.0))
        check_nis(cfg, v)
        cases.append((cfg, v))
    return cases


def test_port_equals_quad_on_shipped_sweep(monkeypatch):
    runs = _port_runs(monkeypatch)
    currents, evals = nis_current(SHIPPED, SHIPPED_VOLTS, full_output=True)
    refs = [_quad(SHIPPED, v)[0] for v in SHIPPED_VOLTS]
    assert runs == refs
    values = np.array([val for val, _, _ in refs])
    assert np.array_equal(currents, SHIPPED.prefactor * SHIPPED.delta * values)
    assert evals.tolist() == [neval for _, _, neval in refs]
    assert evals.sum() == 177114


def test_port_equals_quad_on_random_cases(monkeypatch):
    runs = _port_runs(monkeypatch)
    forms = set()
    for cfg, v in _random_cases(300, seed=11):
        nis_current(cfg, v)
        ref, small = _quad(cfg, v)
        assert runs[-1] == ref, (cfg, v)
        forms.add(small)
    assert forms == {False, True}


@pytest.mark.parametrize("v_stop", [1e-21, 1e-300])
def test_port_equals_quad_on_tiny_sweeps(monkeypatch, v_stop):
    # old item 6's all-zero iv.csv: t = 4.2, v_start = 0, 3 points
    runs = _port_runs(monkeypatch)
    cfg = JunctionConfig(delta=LEAD.delta, T=4.2, d=0.0, Z=10.0)
    volts = np.linspace(0.0, v_stop, 3)
    nis_current(cfg, volts)
    refs = [_quad(cfg, v) for v in volts]
    assert runs == [ref for ref, _ in refs]
    assert all(small for _, small in refs)


def _qk21(f):
    """dqk21 calling f at each node, as a rule for qagpe: the nodes in
    dqk21's order, centre, Gauss pairs, then the other five."""
    def rule(a, b):
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        resg = 0.0
        fc = f(centr)
        resk = _WGK[10] * fc
        resabs = abs(resk)
        fv1 = [0.0] * 10
        fv2 = [0.0] * 10
        for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
            absc = hlgth * _XGK[j]
            fv1[j] = f(centr - absc)
            fv2[j] = f(centr + absc)
            fsum = fv1[j] + fv2[j]
            if j % 2:
                resg = resg + _WG[j // 2] * fsum
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
        reskh = resk * 0.5
        resasc = _WGK[10] * abs(fc - reskh)
        for j in range(10):
            resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh)
                                         + abs(fv2[j] - reskh))
        resabs = resabs * abs(hlgth)
        resasc = resasc * abs(hlgth)
        abserr = abs((resk - resg) * hlgth)
        if resasc != 0.0 and abserr != 0.0:
            abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
        if resabs > UFLOW / (50.0 * EPMACH):
            abserr = max(EPMACH * 50.0 * resabs, abserr)
        return resk * hlgth, abserr, resabs, resasc
    return rule


# (f, a, b, points, epsrel, limit): a kink, log and power singularities
# at a point and at an end, oscillation, a repeated point, and runs that
# stop on the interval limit or on roundoff. Together they reach the
# branches of qagpe that a boundary flip in its flag and ordering
# checks changes, which the NIS cases leave alone.
GENERIC = [
    (lambda x: math.sqrt(abs(x - 0.3)), 0.0, 1.0, [0.3], 1e-10, 400),
    (lambda x: math.log(abs(x - 0.5)), 0.0, 1.0, [0.5], 1e-10, 400),
    (lambda x: x ** -0.999, 0.0, 1.0, [0.5], 1e-6, 8),
    (lambda x: abs(x - 1 / 3) ** -0.999, 0.0, 1.0, [0.25, 0.5], 1e-10, 30),
    (lambda x: math.sin(10.0 * x), 0.0, 1.0, [0.5], 2e-14, 8),
    (lambda x: math.sin(50.0 * x), 0.0, 1.0, [0.5], 2e-14, 30),
    (lambda x: x * math.sin(10.0 / x), 0.0, 1.0, [0.5], 2e-14, 8),
    (lambda x: x * math.sin(50.0 / x), 0.0, 1.0, [0.5, 0.25], 1e-6, 400),
    (lambda x: x * math.sin(50.0 / x), 0.0, 1.0, [0.25, 0.5], 2e-14, 400),
    (lambda x: math.sin(1.0 / x), 0.0, 1.0, [0.5, 0.5], 1e-12, 60),
]


@pytest.mark.parametrize("case", range(len(GENERIC)))
def test_port_equals_quad_on_generic_integrands(case):
    f, a, b, points, epsrel, limit = GENERIC[case]
    with warnings.catch_warnings():
        # quad warns where QUADPACK flags a result; the port keeps no flag
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err, info = quad(f, a, b, points=points, epsabs=0.0,
                              epsrel=epsrel, limit=limit, full_output=1)[:3]
    assert qagpe(_qk21(f), a, b, points=points, epsabs=0.0, epsrel=epsrel,
                 limit=limit) == (val, err, info["neval"])


def test_evals_follow_voltage_shape():
    volts = SHIPPED_VOLTS[:6].reshape(2, 3)
    currents, evals = nis_current(SHIPPED, volts, full_output=True)
    assert currents.shape == evals.shape == (2, 3)
    current, count = nis_current(SHIPPED, 1e-3, full_output=True)
    assert current == nis_current(SHIPPED, 1e-3)
    assert np.ndim(current) == np.ndim(count) == 0


# bound on |I(V) + I(-V)| / I(V) over the invariant grid below; the
# worst case measured on it was 8.9e-15 (T = 1 K, Z = 10)
ODD_RTOL = 1e-13


@pytest.mark.parametrize("t", [0.1, 1.0, 4.2, 7.0])
@pytest.mark.parametrize("z", [0.0, 1.0, 10.0])
def test_nis_invariants(t, z):
    """I(0) is 0.0, I is odd in V and strictly increasing over -6 to
    6 mV: the integrand is odd under (eps, V) -> (-eps, -V), and it
    grows with V at every eps, since 1 + A - B > 0."""
    cfg = JunctionConfig(delta=LEAD.delta, T=t, d=0.0, Z=z)
    volts = np.linspace(0.0, 6e-3, 13)
    up = nis_current(cfg, volts)
    down = nis_current(cfg, -volts)
    assert up[0] == 0.0 and down[0] == 0.0
    assert np.all(np.abs(up[1:] + down[1:]) <= ODD_RTOL * up[1:])
    assert np.all(np.diff(np.concatenate([down[::-1], up[1:]])) > 0.0)
