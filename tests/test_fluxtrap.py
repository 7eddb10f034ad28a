"""Ring bookkeeping, coil schedules, and the flux-conservation contract."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fluxdsm.constants import CODATA
from fluxdsm.errors import (
    ConfigSyntaxError,
    DomainError,
    FluxLossError,
)
from fluxdsm.fluxtrap import (
    CylinderGeometry,
    EcoilStep,
    FieldStep,
    FluxTrapState,
    Ring,
    default_amplification_schedule,
    doubling_amplification_schedule,
    iterate_sequence,
    load_schedule,
    parse_schedule,
    ring_current,
    run_amplification_sequence,
    set_ecoil,
    settle_time_classical,
    settle_time_device,
    trap_flux,
)

GEOM4 = CylinderGeometry(radius=0.02, n_segments=4, n_eff=4)


def test_geometry_validation():
    with pytest.raises(DomainError, match="radius"):
        CylinderGeometry(radius=0.0, n_segments=4, n_eff=4)
    with pytest.raises(DomainError, match="radius"):
        CylinderGeometry(radius=math.nan, n_segments=8, n_eff=4.0)
    with pytest.raises(DomainError, match="segment"):
        CylinderGeometry(radius=0.02, n_segments=0, n_eff=4)
    with pytest.raises(DomainError, match="n_eff"):
        CylinderGeometry(radius=0.02, n_segments=4, n_eff=0.0)
    with pytest.raises(DomainError, match="n_eff"):
        CylinderGeometry(radius=0.02, n_segments=4, n_eff=math.nan)
    # radius**2 would overflow; a zero area cannot be divided by
    for radius in (1e200, 1e-200):
        with pytest.raises(DomainError, match="float range"):
            CylinderGeometry(radius=radius, n_segments=4, n_eff=4)


def test_segment_count_must_be_an_integer():
    with pytest.raises(DomainError, match="n_segments must be an integer"):
        CylinderGeometry(0.02, 2.5, 4.0)
    with pytest.raises(DomainError, match="n_segments must be an integer"):
        default_amplification_schedule(8.0)


def test_geometry_area_and_segments():
    assert GEOM4.area == pytest.approx(math.pi * 4e-4, rel=1e-15)
    assert list(GEOM4.segments) == [1, 2, 3, 4]


def test_ring_validation():
    with pytest.raises(DomainError, match="non-empty"):
        Ring(span=frozenset(), quanta=0)
    with pytest.raises(DomainError, match="contiguous"):
        Ring(span=frozenset({1, 3}), quanta=0)


def _exact_ratio_case(ratio):
    """A 4-segment geometry and a field b whose flux ratio
    b * area / phi0 is exactly ratio. Some products skip the ratio for
    every b, so the radius is stepped too, one float at a time. (No
    quotient by phi0 rounds to 3.5 or -3.5, so those are not tested.)"""
    radius = 0.02
    for _ in range(64):
        geometry = CylinderGeometry(radius=radius, n_segments=4, n_eff=4)
        b = ratio * CODATA.phi0 / geometry.area
        for _ in range(8):
            got = b * geometry.area / CODATA.phi0
            if got == ratio:
                return geometry, b
            b = math.nextafter(b, math.inf if got < ratio else -math.inf)
        radius = math.nextafter(radius, 1.0)
    raise AssertionError(f"no field gives the flux ratio {ratio} exactly")


@pytest.mark.parametrize("ratio,quanta", [
    (0.5, 0), (1.5, 2), (2.5, 2), (4.5, 4), (5.5, 6), (60.5, 60),
    (61.5, 62), (-0.5, 0), (-1.5, -2), (-2.5, -2), (-5.5, -6),
])
def test_trap_flux_rounds_half_to_even(ratio, quanta):
    geometry, b = _exact_ratio_case(ratio)
    assert b * geometry.area / CODATA.phi0 == ratio
    state = trap_flux(geometry, b)
    assert state.trapped_flux_total == quanta
    assert state.rings[0].quanta == quanta


def test_ring_current_formula():
    i = ring_current(61, GEOM4)
    expected = 61 * CODATA.phi0 / GEOM4.area / (CODATA.mu0 * GEOM4.n_eff)
    assert i == pytest.approx(expected, rel=1e-15)
    assert ring_current(-61, GEOM4) == -i
    assert ring_current(0, GEOM4) == 0.0


def test_trap_flux_full_span():
    state = trap_flux(GEOM4, 1e-10)
    assert len(state.rings) == 1
    ring = state.rings[0]
    assert ring.span == frozenset({1, 2, 3, 4})
    assert ring.quanta == 61
    assert state.trapped_flux_total == 61
    assert state.phases() == "SSSS"


def test_state_rejects_ring_over_normal_segment():
    ring = Ring(span=frozenset({2}), quanta=1)
    with pytest.raises(DomainError, match="overlaps normal"):
        FluxTrapState(geometry=GEOM4, energized=frozenset({2}), rings=(ring,))


def test_state_segment_range_checks():
    state = FluxTrapState(GEOM4, energized=frozenset(GEOM4.segments))
    assert state.phases() == "NNNN"
    with pytest.raises(DomainError, match="outside 1..4"):
        set_ecoil(state, 5, True)
    with pytest.raises(DomainError, match="outside 1..4"):
        FluxTrapState(GEOM4, energized=frozenset({5}))
    with pytest.raises(DomainError, match="outside"):
        set_ecoil(state, 0, True)


def test_set_ecoil_noop_returns_same_state():
    state = FluxTrapState(GEOM4, energized=frozenset(GEOM4.segments))
    assert set_ecoil(state, 2, True) is state
    sc = set_ecoil(state, 2, False)
    assert set_ecoil(sc, 2, False) is sc


def test_set_ecoil_contracts_ring_at_endpoint():
    state = trap_flux(GEOM4, 1e-10)
    after = set_ecoil(state, 4, True)
    assert after.rings[0].span == frozenset({1, 2, 3})
    assert after.rings[0].quanta == state.rings[0].quanta
    assert after.trapped_flux_total == 61


def test_set_ecoil_crush_raises():
    state = trap_flux(CylinderGeometry(0.02, 1, 4), 1e-10)
    with pytest.raises(FluxLossError, match="no superconducting segment"):
        set_ecoil(state, 1, True)


def test_set_ecoil_split_raises():
    state = trap_flux(GEOM4, 1e-10)
    with pytest.raises(FluxLossError, match="split"):
        set_ecoil(state, 2, True)


def test_set_ecoil_spreads_into_neighbour():
    state = trap_flux(GEOM4, 1e-10)
    state = set_ecoil(state, 4, True)   # ring now {1,2,3}
    state = set_ecoil(state, 4, False)  # spreads back
    assert state.rings[0].span == frozenset({1, 2, 3, 4})
    assert state.trapped_flux_total == 61


def test_set_ecoil_merge_raises():
    r1 = Ring(span=frozenset({1}), quanta=1)
    r2 = Ring(span=frozenset({3}), quanta=1)
    state = FluxTrapState(geometry=GEOM4, energized=frozenset({2, 4}),
                          rings=(r1, r2))
    with pytest.raises(FluxLossError, match="merge"):
        set_ecoil(state, 2, False)


def test_set_ecoil_far_segment_leaves_rings_alone():
    r1 = Ring(span=frozenset({1}), quanta=1)
    state = FluxTrapState(geometry=GEOM4, energized=frozenset({2, 3, 4}),
                          rings=(r1,))
    after = set_ecoil(state, 4, False)
    assert after.rings == (r1,)


def test_doubling_schedule_gain_two():
    state, gain = run_amplification_sequence(
        GEOM4, 1e-10, doubling_amplification_schedule())
    assert gain == 2
    spans = sorted(sorted(r.span) for r in state.rings)
    assert spans == [[2], [4]]
    assert state.phases() == "NSNS"
    assert all(r.quanta == 61 for r in state.rings)
    assert state.trapped_flux_total == 122


@pytest.mark.parametrize("n,gain", [
    (1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (6, 3),
    (7, 3), (8, 4), (9, 4), (10, 5), (11, 5), (12, 6),
])
def test_default_schedule_gain_table(n, gain):
    geom = CylinderGeometry(radius=0.02, n_segments=n, n_eff=4)
    _, g = run_amplification_sequence(
        geom, 1e-10, default_amplification_schedule(n))
    assert g == gain


def test_default_schedule_rejects_zero_segments():
    with pytest.raises(DomainError):
        default_amplification_schedule(0)


def test_iterate_sequence_against_flat_oracle():
    # independent re-simulation with plain sets: segments go normal and
    # superconducting, armed segments pin flux at field-off as one ring
    # per contiguous run
    geom = CylinderGeometry(radius=0.02, n_segments=8, n_eff=4)
    b_in = 1e-10
    schedule = default_amplification_schedule(8)
    quanta_each = int(round(b_in * geom.area / CODATA.phi0))

    normal = set()
    field_on = False
    armed = set()
    rings = []
    for step in schedule:
        if isinstance(step, FieldStep):
            if step.on:
                field_on = True
                armed.clear()
            else:
                field_on = False
                live = sorted(s for s in armed if s not in normal)
                run = []
                for seg in live + [None]:
                    if run and (seg is None or seg != run[-1] + 1):
                        rings.append([set(run), quanta_each])
                        run = []
                    if seg is not None:
                        run.append(seg)
                armed.clear()
        else:
            targets = [step.segment] if step.segment else list(geom.segments)
            for seg in targets:
                if step.on:
                    normal.add(seg)
                    armed.discard(seg)
                    for ring in rings:
                        ring[0].discard(seg)
                else:
                    if seg in normal and field_on:
                        armed.add(seg)
                    normal.discard(seg)
                    for ring in rings:
                        if (seg - 1) in ring[0] or (seg + 1) in ring[0]:
                            ring[0].add(seg)

    state, gain = run_amplification_sequence(geom, b_in, schedule)
    assert gain == len(rings) == 4
    got = sorted((tuple(sorted(r.span)), r.quanta) for r in state.rings)
    want = sorted((tuple(sorted(s)), q) for s, q in rings)
    assert got == want


def test_iterate_sequence_reports_step_index():
    # crush the freshly trapped {1} ring: step index 5 in this schedule
    schedule = doubling_amplification_schedule()[:5] + (EcoilStep(1, True),)
    with pytest.raises(FluxLossError, match="step 5"):
        for _ in iterate_sequence(GEOM4, 1e-10, schedule):
            pass


def test_trap_over_an_existing_ring_is_flux_loss():
    # the ring trapped at 2 spreads into 3 while 3 is armed, so the
    # second field-off (step 6) would trap 3 inside it
    schedule = parse_schedule("ecoil * on\nfield on\necoil 2 off\n"
                              "field off\nfield on\necoil 3 off\n"
                              "field off\n")
    with pytest.raises(FluxLossError,
                       match="trap would overlap an existing ring") as err:
        list(iterate_sequence(GEOM4, 1e-10, schedule))
    assert err.value.step == 6


def test_iterate_sequence_rejects_unknown_step():
    with pytest.raises(DomainError, match="unknown schedule step"):
        list(iterate_sequence(GEOM4, 1e-10, ("bogus",)))


def test_screened_segments_trap_nothing():
    # segment 1 is already superconducting when the field arrives, so it
    # screens; only segment 2, which goes SC under field, traps
    schedule = (
        EcoilStep(None, True),
        EcoilStep(1, False),
        FieldStep(True),
        EcoilStep(2, False),
        FieldStep(False),
    )
    state, gain = run_amplification_sequence(GEOM4, 1e-10, schedule)
    assert gain == 1
    assert state.rings[0].span == frozenset({2})


def _legal_moves(state):
    """Every (segment, energized) move that set_ecoil accepts from here."""
    moves = []
    for seg in state.geometry.segments:
        if seg in state.energized:
            adjacent = [r for r in state.rings
                        if (seg - 1) in r.span or (seg + 1) in r.span]
            if len(adjacent) <= 1:
                moves.append((seg, False))
        else:
            ok = True
            for r in state.rings:
                if seg in r.span:
                    endpoint = seg in (min(r.span), max(r.span))
                    ok = endpoint and len(r.span) >= 2
                    break
            if ok:
                moves.append((seg, True))
    return moves


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_legal_moves_conserve_flux(seed):
    geom = CylinderGeometry(radius=0.02, n_segments=8, n_eff=4)
    state, gain = run_amplification_sequence(
        geom, 1e-10, default_amplification_schedule(8))
    total = state.trapped_flux_total
    rng = random.Random(seed)
    for _ in range(30):
        moves = _legal_moves(state)
        assert moves
        seg, on = rng.choice(moves)
        state = set_ecoil(state, seg, on)
        assert state.trapped_flux_total == total
        assert len(state.rings) == gain


# the doubling schedule in the schedule text format
DOUBLING_TEXT = ("ecoil * on\nfield on\necoil 1 off\necoil 4 off\n"
                 "field off\necoil 2 off\necoil 1 on\n")


def test_schedule_text_parses_to_doubling_schedule():
    assert parse_schedule(DOUBLING_TEXT) == doubling_amplification_schedule()


def test_parse_schedule_comments_and_blanks():
    text = "# prep\n\necoil 2 off  # walk\nfield off\n"
    steps = parse_schedule(text)
    assert steps == (EcoilStep(2, False), FieldStep(False))


@pytest.mark.parametrize("text,lineno,msg", [
    ("ecoil q on\n", 1, "bad segment label"),
    ("field on\necoil 0 off\n", 2, "start at 1"),
    ("fie1d on\n", 1, "expected"),
    ("ecoil 2\n", 1, "expected"),
])
def test_parse_schedule_errors(text, lineno, msg):
    with pytest.raises(ConfigSyntaxError, match=msg) as err:
        parse_schedule(text)
    assert err.value.line == lineno


def test_load_schedule(tmp_path):
    p = tmp_path / "walk.sched"
    p.write_text(DOUBLING_TEXT)
    assert load_schedule(p) == doubling_amplification_schedule()


def test_settle_time_classical_frozen():
    assert settle_time_classical(22, 1.0) == pytest.approx(
        15.942385152878742, rel=1e-15)
    assert settle_time_classical(9, 2.0) == pytest.approx(
        2.0 * 10 * math.log(2), rel=1e-15)


def test_settle_time_device_frozen():
    assert settle_time_device(1e-10, 32, 3e-10) == pytest.approx(
        2.0609035488895913e-08, rel=1e-15)


def test_settle_time_validation():
    with pytest.raises(DomainError):
        settle_time_classical(0, 1.0)
    with pytest.raises(DomainError):
        settle_time_classical(9, 0.0)
    with pytest.raises(DomainError):
        settle_time_device(0.0, 32, 3e-10)
    with pytest.raises(DomainError):
        settle_time_device(1e-10, -1, 3e-10)
    with pytest.raises(DomainError, match="tau"):
        settle_time_classical(4, math.nan)
    with pytest.raises(DomainError, match="time constants"):
        settle_time_device(math.nan, 4, 3e-10)
    with pytest.raises(DomainError, match="time constants"):
        settle_time_device(1e-10, 4, math.nan)
