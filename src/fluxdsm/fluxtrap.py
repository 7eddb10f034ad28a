"""Discrete state machine for flux trapping, ring walking and readout.

The device is a segmented superconducting cylinder. Each segment has a
heater coil (an "E-coil"); an energized coil drives its segment normal.
Trapped flux is book-kept as exact integer multiples of the flux
quantum, with rounding to integers happening exactly once, at trap
time, using round-half-even. Circulating supercurrents are carried by
"rings": bands of contiguous superconducting segments. A ring's
current never changes while its span widens into newly superconducting
neighbours or contracts away from newly normal segments; any step that
would destroy that bookkeeping (emptying, splitting or merging a ring)
raises FluxLossError instead of guessing the physics.

Segments are labelled 1..n_segments throughout, matching the usual
schematic numbering.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import groupby

from .constants import CODATA
from .errors import DomainError, FluxLossError
from .sectext import ConfigSyntaxError, content_lines, read_config

LN2 = math.log(2.0)


@dataclass(frozen=True)
class CylinderGeometry:
    """Cylinder bore of given radius (m), sliced into n_segments bands,
    with n_eff effective turns per unit length for the B = mu*n*I
    solenoid bookkeeping."""

    radius: float
    n_segments: int
    n_eff: float

    def __post_init__(self):
        # written as `not v > 0` so that nan fails the checks too
        if not self.radius > 0:
            raise DomainError("radius must be positive")
        if not isinstance(self.n_segments, int) or self.n_segments < 1:
            raise DomainError("n_segments must be an integer >= 1")
        if not self.n_eff > 0:
            raise DomainError("n_eff must be positive")
        # radius**2 raises OverflowError past the float range, and a
        # zero area cannot be divided by
        if not 0.0 < math.pi * self.radius * self.radius < math.inf:
            raise DomainError(
                f"radius {self.radius!r} m puts the bore area outside the "
                "float range")

    @property
    def area(self) -> float:
        """Bore cross-section pi * r^2 (m^2)."""
        return math.pi * self.radius**2

    @property
    def segments(self):
        return range(1, self.n_segments + 1)


@dataclass(frozen=True)
class Ring:
    """One circulating supercurrent band.

    span is the set of contiguous segment labels the current occupies,
    quanta the signed number of flux quanta the ring supports; the
    current that carries them is ring_current(quanta, geometry).
    """

    span: frozenset
    quanta: int

    def __post_init__(self):
        if not self.span:
            raise DomainError("ring span must be non-empty")
        if not _contiguous(self.span):
            raise DomainError("ring span must be contiguous")


def _contiguous(span) -> bool:
    return max(span) - min(span) + 1 == len(span)


@dataclass(frozen=True)
class FluxTrapState:
    """Snapshot of the device: which coils are energized (their
    segments are normal) and what rings are circulating."""

    geometry: CylinderGeometry
    energized: frozenset = field(default_factory=frozenset)
    rings: tuple = ()

    def __post_init__(self):
        for seg in self.energized:
            self._check_segment(seg)
        for ring in self.rings:
            if ring.span & self.energized:
                raise DomainError(
                    "ring span overlaps normal (energized) segments")

    def _check_segment(self, segment):
        if segment not in self.geometry.segments:
            raise DomainError(
                f"segment {segment} outside 1..{self.geometry.n_segments}")

    @property
    def trapped_flux_total(self) -> int:
        """Total trapped flux in exact quanta."""
        return sum(r.quanta for r in self.rings)

    def phases(self) -> str:
        """Segment phases as a string, 'S' superconducting, 'N' normal."""
        return "".join(
            "N" if s in self.energized else "S" for s in self.geometry.segments)


def ring_current(quanta: int, geometry: CylinderGeometry) -> float:
    """Supercurrent supporting `quanta` flux quanta through the bore:
    I = B_trapped / (mu0 * n_eff) with B_trapped = quanta*phi0/area."""
    b_trapped = quanta * CODATA.phi0 / geometry.area
    return b_trapped / (CODATA.mu0 * geometry.n_eff)


def set_ecoil(state: FluxTrapState, segment: int,
              energized: bool) -> FluxTrapState:
    """Energize or de-energize one E-coil, maintaining ring spans.

    Energizing drives the segment normal: the ring spanning it
    contracts to the remainder of its span with its quanta unchanged.
    De-energizing makes the segment superconducting: the one ring
    sitting right next to it spreads into it, again with unchanged
    quanta (the current density drops as the span widens). Steps that
    would empty, split or merge rings raise FluxLossError. Re-applying
    the current coil state returns the same state.
    """
    state._check_segment(segment)
    if energized == (segment in state.energized):
        return state
    rings = list(state.rings)
    if energized:
        for i, ring in enumerate(rings):
            if segment not in ring.span:
                continue
            span = ring.span - {segment}
            if not span:
                raise FluxLossError(
                    f"energizing coil {segment} leaves ring with no "
                    "superconducting segment to carry its current")
            if not _contiguous(span):
                raise FluxLossError(
                    f"energizing coil {segment} would split a ring spanning "
                    f"{sorted(ring.span)}")
            rings[i] = replace(ring, span=frozenset(span))
        return replace(state, energized=frozenset(state.energized | {segment}),
                       rings=tuple(rings))
    adjacent = [i for i, r in enumerate(rings)
                if (segment - 1) in r.span or (segment + 1) in r.span]
    if len(adjacent) > 1:
        raise FluxLossError(
            f"de-energizing coil {segment} would merge rings "
            f"{sorted(rings[adjacent[0]].span)} and "
            f"{sorted(rings[adjacent[1]].span)}")
    for i in adjacent:
        ring = rings[i]
        rings[i] = replace(ring, span=frozenset(ring.span | {segment}))
    return replace(state, energized=frozenset(state.energized - {segment}),
                   rings=tuple(rings))


# --- coil schedules -------------------------------------------------

@dataclass(frozen=True)
class EcoilStep:
    """Turn one E-coil (or all of them, segment None) on or off."""
    segment: int | None
    on: bool


@dataclass(frozen=True)
class FieldStep:
    """Turn the input solenoid field on or off."""
    on: bool


def doubling_amplification_schedule():
    """The textbook 7-step gain-2 sequence for a 4-segment device:
    energize everything in the input field, let segments 1 and 4 trap,
    remove the field, then walk the lower ring from segment 1 to 2."""
    return (
        EcoilStep(None, True),
        FieldStep(True),
        EcoilStep(1, False),
        EcoilStep(4, False),
        FieldStep(False),
        EcoilStep(2, False),
        EcoilStep(1, True),
    )


def default_amplification_schedule(n_segments: int):
    """Pairwise generalization of the gain-2 sequence.

    Traps one ring per even-labelled segment (floor(N/2) rings; a
    single-segment device traps in segment 1 instead), then walks every
    ring one segment down so each sits in an odd-labelled segment. The
    resulting gain is floor(N/2) for N >= 2 and 1 for N = 1.
    """
    if not isinstance(n_segments, int) or n_segments < 1:
        raise DomainError("n_segments must be an integer >= 1")
    traps = list(range(2, n_segments + 1, 2)) or [1]
    steps = [EcoilStep(None, True), FieldStep(True)]
    steps += [EcoilStep(s, False) for s in traps]
    steps.append(FieldStep(False))
    for s in traps:
        if s > 1:
            steps.append(EcoilStep(s - 1, False))
            steps.append(EcoilStep(s, True))
    return tuple(steps)


def iterate_sequence(geometry: CylinderGeometry, b_in: float, schedule):
    """Execute an amplification schedule step by step.

    Starts from the virgin cooldown state (all segments
    superconducting, input field off, no trapped flux) and yields
    (step_index, step, state) after each step.

    Trapping semantics: a segment pins flux only if it went
    superconducting while the input field was on; when the field is
    switched off, every contiguous run of such segments becomes one
    ring holding round(b_in * area / phi0) quanta, ties to even. Segments
    that were already superconducting before the field came up screen
    the field instead and trap nothing.
    """
    quanta = b_in * geometry.area / CODATA.phi0
    if not math.isfinite(quanta):
        raise DomainError(
            f"B_in = {b_in!r} T over the bore is {quanta} flux quanta, "
            "outside the float range")
    state = FluxTrapState(geometry=geometry)
    field_on = False
    armed = set()
    quanta_each = round(quanta)
    for index, step in enumerate(schedule):
        if isinstance(step, FieldStep):
            if step.on and not field_on:
                field_on = True
                armed.clear()
            elif not step.on and field_on:
                field_on = False
                state = _trap_armed(state, armed, quanta_each, step=index)
                armed.clear()
        elif isinstance(step, EcoilStep):
            targets = ([step.segment] if step.segment is not None
                       else list(geometry.segments))
            for seg in targets:
                went_sc = not step.on and seg in state.energized
                try:
                    state = set_ecoil(state, seg, step.on)
                except FluxLossError as exc:
                    raise FluxLossError(str(exc), step=index) from None
                if went_sc and field_on:
                    armed.add(seg)
                elif step.on:
                    armed.discard(seg)
        else:
            raise DomainError(f"unknown schedule step {step!r}")
        yield index, step, state


def _trap_armed(state, armed, quanta_each, step):
    """Turn contiguous runs of armed superconducting segments into rings."""
    covered = set().union(*(r.span for r in state.rings))
    rings = list(state.rings)
    # consecutive labels share label - position, so each run is a group
    for _, run in groupby(enumerate(sorted(armed)), lambda p: p[1] - p[0]):
        span = frozenset(seg for _, seg in run)
        if span & covered:
            raise FluxLossError(
                "trap would overlap an existing ring", step=step)
        rings.append(Ring(span=span, quanta=quanta_each))
    return replace(state, rings=tuple(rings))


def run_amplification_sequence(geometry: CylinderGeometry, b_in: float,
                               schedule):
    """Run a schedule to completion.

    Returns (final_state, gain) where gain is the number of independent
    rings left circulating. The amplified flux available to the readout
    is gain * round(b_in * area / phi0) quanta; with every
    ring trapping the same input field those two bookkeepings agree.
    """
    state = FluxTrapState(geometry=geometry)
    for _, _, state in iterate_sequence(geometry, b_in, schedule):
        pass
    return state, len(state.rings)


# field cooling: the whole cylinder goes through Tc in the field
_FIELD_COOLING = (EcoilStep(None, True), FieldStep(True),
                  EcoilStep(None, False), FieldStep(False))


def trap_flux(geometry: CylinderGeometry, b_ext: float) -> FluxTrapState:
    """Cool the whole cylinder through Tc in a field, then remove it.

    All segments end superconducting and a single ring spanning the
    full stack carries the current that supports the quantized flux:
    quanta = round(b_ext * area / phi0), ties to even. This is the
    schedule _FIELD_COOLING run by run_amplification_sequence.
    """
    return run_amplification_sequence(geometry, b_ext, _FIELD_COOLING)[0]


# --- schedule text format -------------------------------------------

def parse_schedule(text, path=None):
    """Parse the schedule text format: one step per line,
    'ecoil <label|*> on|off' or 'field on|off'; '#' comments allowed."""
    steps = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == "field" and len(parts) == 2 and parts[1] in ("on", "off"):
            steps.append(FieldStep(parts[1] == "on"))
            continue
        if parts[0] == "ecoil" and len(parts) == 3 and parts[2] in ("on", "off"):
            if parts[1] == "*":
                seg = None
            else:
                try:
                    seg = int(parts[1])
                except ValueError:
                    raise ConfigSyntaxError(
                        f"bad segment label '{parts[1]}'",
                        line=lineno, path=path) from None
                if seg < 1:
                    raise ConfigSyntaxError(
                        "segment labels start at 1", line=lineno, path=path)
            steps.append(EcoilStep(seg, parts[2] == "on"))
            continue
        raise ConfigSyntaxError(
            f"expected 'ecoil <label|*> on|off' or 'field on|off', "
            f"got '{line}'", line=lineno, path=path)
    return tuple(steps)


def load_schedule(path):
    return parse_schedule(read_config(path), path=str(path))


# --- settling -------------------------------------------------------

def settle_time_classical(n_bits: int, tau: float) -> float:
    """RC settling to half-LSB accuracy of an N-bit converter:
    t = tau * (N + 1) * ln 2."""
    if not isinstance(n_bits, int) or n_bits < 1:
        raise DomainError("n_bits must be a positive integer")
    if not tau > 0:
        raise DomainError("tau must be positive")
    return tau * (n_bits + 1) * LN2


def settle_time_device(tau_cooper: float, n_amp: int,
                       tau_ecoil: float) -> float:
    """Settling budget of the flux amplifier itself:
    t = 16 * tau_cooper * ln 2 + (2 * n_amp + 1) * tau_ecoil.

    tau_cooper is the Cooper-pair formation time constant, tau_ecoil
    the per-step E-coil switching time; a gain sequence over n_amp
    segments needs 2*n_amp + 1 coil steps.
    """
    if not (tau_cooper > 0 and tau_ecoil > 0):
        raise DomainError("time constants must be positive")
    if not isinstance(n_amp, int) or n_amp < 0:
        raise DomainError("n_amp must be a non-negative integer")
    return 16.0 * tau_cooper * LN2 + (2 * n_amp + 1) * tau_ecoil
