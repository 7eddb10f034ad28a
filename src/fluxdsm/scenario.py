"""Scenario configs and batch runners.

A scenario file is sectioned key=value text describing one run of one
pipeline kind. Loading checks the parameters and builds the kind's
typed objects once (the spec); running computes from the spec and only
then writes CSV artifacts plus a plain-text report into an output
directory. Identical config and seed produce byte identical files:
csvtext spells every value, rows are ordered deterministically, and no
timestamps or absolute paths leak into any artifact.
"""

import math
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

import numpy as np

from . import modulator
from .comparator import (REFERENCE_I_BIAS, REFERENCE_SIDE, make_comparator,
                         quantize)
from .csvtext import spell, write_csv
from .electrodynamics import (SlabConfig, normal_slab_profile,
                              solenoid_field, square_loop_current_for_field,
                              super_slab_profile)
from .errors import ConfigError, DomainError, UsageError
from .fluxtrap import (CylinderGeometry, EcoilStep, FieldStep, FluxTrapState,
                       default_amplification_schedule,
                       doubling_amplification_schedule, iterate_sequence,
                       load_schedule)
from .junctions import (JunctionConfig, check_nis, n_coherence_length,
                        nis_current, sns_current, sns_prefactor)
from .materials import check_superconducting, get_material
from .modulator import (ModulatorConfig, band_sndr, dc_tracking_mean,
                        output_power_spectrum, run_modulator, test_tone)
from .noise import NoiseModel, check_synthesis_limits, dof_variance_factor, \
    flicker_psd, lorentzian_psd, synth_flicker_series, welch_psd
from .sectext import Section, finite_float, parse_sections, read_config

# perfbench's traced runs wrap sndr_db in this namespace too; tone runs
# take band_sndr of the spectrum they write instead
sndr_db = modulator.sndr_db


@dataclass(frozen=True)
class ScenarioConfig:
    """spec holds the typed objects built at load. The seed stays out of
    it and is applied at run time, so replace(cfg, seed=s) reseeds."""

    kind: str
    seed: int
    output_dir: str
    sections: Dict[str, Section]
    spec: Any


def parse_scenario(text: str, path: Optional[str] = None) -> ScenarioConfig:
    """Parse and fully validate a scenario config. Sections and keys
    that the kind's builder did not read are rejected with
    line-anchored messages."""
    sections = {sec.name: sec for sec in parse_sections(text, path=path)}
    if "scenario" not in sections:
        raise ConfigError("missing [scenario] section", path=path)
    top = sections["scenario"]
    kind = top.get_str("kind")
    if kind not in _KINDS:
        raise ConfigError(
            f"unknown scenario kind {kind!r}; expected one of "
            + ", ".join(SCENARIO_KINDS), path=path)
    seed = top.get_int("seed", 0)
    if seed < 0:
        raise top.error("seed must be a non-negative integer")
    output_dir = top.get_str("output_dir", ".")
    needed, build, _ = _KINDS[kind]
    if needed not in sections:
        raise ConfigError(f"scenario kind {kind!r} needs a [{needed}] "
                          f"section", path=path)
    sec = sections[needed]
    config_dir = os.path.dirname(os.path.abspath(path)) if path else "."
    try:
        spec = build(sec, sections, config_dir)
    except (DomainError, ConfigError) as exc:
        # a constructor's check failing on config values names no line;
        # it is a config invariant violation at the kind's section
        if getattr(exc, "line", None) is not None:
            raise
        raise sec.error(str(exc)) from exc
    # a section, and a key, belongs when the builder read it for the
    # choices it made
    for name, section in sections.items():
        if name not in ("scenario", needed) and not any(
                e.read for e in section.entries):
            raise ConfigError(
                f"section [{name}] does not belong to a {kind} scenario",
                path=path, line=section.line)
    for section in sections.values():
        section.reject_unread()
    return ScenarioConfig(kind=kind, seed=seed, output_dir=output_dir,
                          sections=sections, spec=spec)


def load_scenario(path: str) -> ScenarioConfig:
    try:
        text = read_config(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: "
                         f"{exc.strerror}") from exc
    return parse_scenario(text, path=path)


def _write_report(path: str, cfg: ScenarioConfig, metrics) -> None:
    """Config echo plus computed metrics, key = value per line."""
    lines = [f"kind = {cfg.kind}", f"seed = {cfg.seed}"]
    for name in sorted(cfg.sections):
        if name == "scenario":
            continue
        lines += [f"{name}.{e.key} = {e.value}"
                  for e in cfg.sections[name].entries]
    for key, value in metrics:
        lines.append(f"{key} = {spell(value)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- slab

def _build_slab(sec: Section, sections, config_dir: str):
    regime = sec.get_str("regime")
    if regime not in ("normal", "super"):
        raise sec.error("regime must be normal or super")
    material = get_material(sec.get_str("material"))
    npoints = sec.get_int("npoints", 201)
    if npoints < 3:
        raise sec.error("npoints must be at least 3")
    # the normal profile ignores T, the London profile omega
    omega = sec.get_float("omega", 0.0)
    if regime == "super" and omega != 0.0:
        raise sec.error("a super slab takes omega = 0 only")
    slab = SlabConfig(d=sec.get_float("d"), material=material,
                      B0=sec.get_float("b0"), omega=omega,
                      T=sec.get_float("t", 0.0) if regime == "super" else 0.0)
    if regime == "super":
        check_superconducting(material, slab.T, slab.B0, "b0")
    return slab, regime, np.linspace(-slab.d, slab.d, npoints)


def _run_slab(cfg: ScenarioConfig):
    slab, regime, x = cfg.spec
    if regime == "normal":
        profile = normal_slab_profile(slab, x)
    else:
        profile = super_slab_profile(slab, x)
    mid = x.size // 2
    columns = (x, profile.B.real, profile.B.imag, profile.J.real,
               profile.J.imag)
    return [("profile.csv", ("x", "re_b", "im_b", "re_j", "im_j"),
             columns)], [
        ("center_abs_b", abs(profile.B[mid])),
        ("center_screening", abs(profile.B[mid]) / abs(slab.B0)),
        ("max_abs_j", float(np.max(np.abs(profile.J)))),
    ]


# -------------------------------------------------------------- device

def _geometry_and_schedule(sec: Section, config_dir: str):
    """The cylinder of a device section and its coil schedule: a named
    preset or a schedule file relative to the config's directory."""
    geom = CylinderGeometry(radius=sec.get_float("radius"),
                            n_segments=sec.get_int("n_segments"),
                            n_eff=sec.get_float("n_eff", 1.0))
    name = sec.get_str("schedule", "default")
    if name == "doubling":
        schedule = doubling_amplification_schedule()
    elif name == "default":
        schedule = default_amplification_schedule(geom.n_segments)
    else:
        try:
            schedule = load_schedule(os.path.join(config_dir, name))
        except OSError as exc:
            raise sec.error(f"cannot read schedule file {name!r}: "
                            f"{exc.strerror}") from exc
    for index, step in enumerate(schedule):
        if isinstance(step, EcoilStep) and step.segment is not None \
                and step.segment > geom.n_segments:
            raise sec.error(
                f"schedule {name!r} step {index} switches coil "
                f"{step.segment}, outside 1..{geom.n_segments}")
    return geom, schedule


def _build_device(sec: Section, sections, config_dir: str):
    geom, schedule = _geometry_and_schedule(sec, config_dir)
    b_in = sec.get_float("b_in")
    if sec.has("material"):
        # material and t serve only this check
        check_superconducting(get_material(sec.get_str("material")),
                              sec.get_float("t", 0.0), b_in, "b_in")
    return geom, schedule, b_in


def _run_device(cfg: ScenarioConfig):
    geom, schedule, b_in = cfg.spec
    rows = []
    final_state = FluxTrapState(geometry=geom)
    for index, step, state in iterate_sequence(geom, b_in, schedule):
        field = isinstance(step, FieldStep)
        target = "*" if field or step.segment is None else str(step.segment)
        rows.append((index, "field" if field else "ecoil", target,
                     "on" if step.on else "off", state.phases(),
                     len(state.rings), state.trapped_flux_total))
        final_state = state
    header = ("step", "action", "target", "switch", "phases", "n_rings",
              "trapped_quanta")
    return [("sequence.csv", header, zip(*rows))], [
        ("gain", len(final_state.rings)),
        ("trapped_quanta_total", final_state.trapped_flux_total),
        ("final_phases", final_state.phases()),
    ]


# ------------------------------------------------------------ junction

def _junction_material(sec: Section, T: float):
    """The section's material, which must be superconducting at T."""
    material = get_material(sec.get_str("material"))
    check_superconducting(material, T)
    return material


def _build_junction(sec: Section, sections, config_dir: str):
    """Each mode reads its own keys, so a key of the other mode is left
    unread and rejected. nis takes delta, or the gap of its material
    when delta is absent; sns takes the gap of its material, and its
    form picks the rest: area for forms 1 and 2, r_sheet for form 3.
    A material must be superconducting at t (below its Tc), and an nis
    sweep must lie in check_nis's domain at both ends."""
    mode = sec.get_str("mode")
    if mode not in ("nis", "sns"):
        raise sec.error("mode must be nis or sns")
    T = sec.get_float("t")
    if mode == "nis":
        # nis_current needs the gap only, not the material
        delta = sec.get_float("delta") if sec.has("delta") \
            else _junction_material(sec, T).delta
        jc = JunctionConfig(delta=delta, T=T, d=0.0,
                            Z=sec.get_float("z", 0.0),
                            prefactor=sec.get_float("prefactor", 1.0))
        v_start = sec.get_float("v_start")
        v_stop = sec.get_float("v_stop")
        check_nis(jc, (v_start, v_stop))
        if v_start >= v_stop:
            raise sec.error("v_start must be below v_stop")
        points = sec.get_int("points", 101)
        if points < 2:
            raise sec.error("points must be at least 2")
        return jc, mode, np.linspace(v_start, v_stop, points), None
    form = sec.get_int("form", 1)
    sizes = {}
    if form in (1, 2):
        sizes["area"] = sec.get_float("area", 1e-12)
    elif form == 3 and sec.has("r_sheet"):
        sizes["r_sheet"] = sec.get_float("r_sheet")
    # without a material or an r_sheet, or with an unknown form,
    # sns_prefactor below names what is wrong
    material = _junction_material(sec, T) if sec.has("material") else None
    jc = JunctionConfig(
        delta=material.delta if material is not None else 0.0,
        T=T, d=sec.get_float("d"), material=material, **sizes)
    phi_points = sec.get_int("phi_points", 181)
    if phi_points < 2:
        raise sec.error("phi_points must be at least 2")
    phis = np.linspace(0.0, 2.0 * math.pi, phi_points)
    # sns_current's own checks, run at load: material, d, form, r_sheet, T
    sns_prefactor(jc, form)
    n_coherence_length(jc.material.vF, jc.T)
    return jc, mode, phis, form


def _run_junction(cfg: ScenarioConfig):
    jc, mode, grid, form = cfg.spec
    if mode == "nis":
        currents = nis_current(jc, grid)
        return [("iv.csv", ("v", "i"), (grid, currents))], [
            ("i_max", currents.max()), ("mode", "nis")]
    currents = sns_current(jc, grid, form=form)
    return [("iv.csv", ("phi", "i"), (grid, currents))], [
        ("i_critical", currents.max()), ("mode", "sns")]


# --------------------------------------------------------------- noise

def _build_noise(sec: Section, sections, config_dir: str):
    """The section's noise band; _run_noise sets its seed from cfg.seed."""
    model = NoiseModel(R0=sec.get_float("r0", 1.0),
                       tau1=sec.get_float("tau1"),
                       tau2=sec.get_float("tau2"),
                       kprime=sec.get_float("kprime", 1.0),
                       dof_coupled=sec.get_int("dof_coupled", 1))
    # telegraph is the one synthesizer; the key is kept because the
    # shipped noise config sets it and its report echoes it
    if sec.get_str("method", "telegraph") != "telegraph":
        raise sec.error("method must be telegraph")
    n = sec.get_int("n", 65536)
    fs = sec.get_float("fs", 1.0)
    check_synthesis_limits(model, n, fs)
    return model, n, fs


def _run_noise(cfg: ScenarioConfig):
    model, n, fs = cfg.spec
    model = replace(model, seed=cfg.seed)
    series = synth_flicker_series(model, n, fs)
    freqs, measured = welch_psd(series, fs, min(n // 8, 65536))
    omega = 2.0 * math.pi * freqs
    model_col = flicker_psd(model, omega)
    lorentz_col = lorentzian_psd(model, omega)
    return [
        ("series.csv", ("k", "value"), (np.arange(n), series)),
        ("psd.csv", ("freq", "s_measured", "s_flicker", "s_lorentzian"),
         (freqs, measured, model_col, lorentz_col)),
    ], [
        ("series_variance", float(np.var(series))),
        ("dof_variance_factor", dof_variance_factor(model)),
    ]


# ----------------------------------------------------------- modulator

def _float_list(sec: Section, key: str, default: str) -> tuple:
    raw = sec.get_str(key, default)
    try:
        return tuple(finite_float(part) for part in raw.split(","))
    except ValueError:
        raise sec.error(
            f"{key} must be a comma separated float list") from None


def _comparator(sec: Section):
    """The section's comparator, at the reference sizing by default."""
    return make_comparator(side=sec.get_float("side", REFERENCE_SIDE),
                           i_bias=sec.get_float("i_bias", REFERENCE_I_BIAS))


def _build_modulator(sec: Section, sections, config_dir: str):
    """Spec: the loop config, the input trace, and the DC level or the
    tone's cycle count (the other is None). A [device] section makes
    the first integrator the flux device."""
    n = sec.get_int("n", 16384)
    if n < 16 or n & (n - 1):
        raise sec.error("n must be a power of two, at least 16")
    if not (sec.has("dc") or sec.has("tone_cycles")):
        raise sec.error("modulator needs dc or tone_cycles")
    dc = sec.get_float("dc") if sec.has("dc") else None
    if dc is not None and abs(dc) > 1.0:
        raise sec.error("dc level must lie in [-1, 1]")
    comp = _comparator(sec)
    full_scale = None
    if sec.has("full_scale"):
        full_scale = sec.get_float("full_scale")
    elif sec.has("input_coil_n"):
        # map u = +-1 to the field of the input solenoid at max drive
        full_scale = solenoid_field(sec.get_float("input_coil_n"),
                                    sec.get_float("input_coil_imax"))
    geometry = schedule = None
    if "device" in sections:
        geometry, schedule = _geometry_and_schedule(sections["device"],
                                                    config_dir)
    input_noise = None
    noise_sec = sections.get("input-noise")
    if noise_sec is not None:
        # synthesis reads only the band; runners set the seed
        input_noise = NoiseModel(R0=0.0, tau1=noise_sec.get_float("tau1"),
                                 tau2=noise_sec.get_float("tau2"),
                                 kprime=noise_sec.get_float("kprime", 1.0))
    mc = ModulatorConfig(
        osr=sec.get_int("osr", 128),
        a=_float_list(sec, "a", "2,4"),
        c=_float_list(sec, "c", "0.5,0.5"),
        comparator=comp, geometry=geometry,
        schedule=schedule, fs=sec.get_float("fs", 1.0),
        full_scale=full_scale,
        stability_bound=sec.get_float("stability_bound", 8.0),
        input_noise=input_noise)
    if input_noise is not None:
        check_synthesis_limits(input_noise, n, mc.fs)
    if dc is not None:
        return mc, np.full(n, dc), dc, None
    tone_cycles = sec.get_int("tone_cycles")
    if not 0 < tone_cycles <= n // (2 * mc.osr):
        raise sec.error("tone_cycles must lie in the band 1 to n / (2 osr)")
    amplitude_dbfs = sec.get_float("amplitude_dbfs", -1.0)
    if amplitude_dbfs > 0:
        raise sec.error("amplitude_dbfs must be at most 0 (full scale)")
    amp = 10.0 ** (amplitude_dbfs / 20.0)
    return mc, test_tone(n, tone_cycles, amp), None, tone_cycles


def _run_modulator(cfg: ScenarioConfig):
    mc, u, dc, tone_cycles = cfg.spec
    if mc.input_noise is not None:
        mc = replace(mc, input_noise=replace(mc.input_noise, seed=cfg.seed))
    trace = run_modulator(mc, u)
    freqs, power = output_power_spectrum(trace)
    metrics = [("saturation_count", trace.saturation_count),
               ("stable", True)]
    if trace.device_gain is not None:
        metrics.append(("device_gain", trace.device_gain))
    if tone_cycles is not None:
        metrics.append(("sndr_db", band_sndr(power, mc.osr, tone_cycles)))
    else:
        mean = dc_tracking_mean(trace)
        metrics.append(("dc_mean", mean))
        metrics.append(("tracking_error", abs(mean - dc)))
    metrics.append(("band_hz", mc.fs / (2 * mc.osr)))
    if mc.settle_margin is not None:
        metrics.append(("settle_margin", mc.settle_margin))
    # headroom of each integrator against stability_bound
    metrics += [(f"state_peak_{i}", peak)
                for i, peak in enumerate(trace.state_peak, start=1)]
    return [("codes.csv", ("k", "code"),
             (np.arange(trace.codes.size), trace.codes)),
            ("spectrum.csv", ("freq", "power"), (freqs, power))], metrics


# ---------------------------------------------------------- comparator

def _build_comparator(sec: Section, sections, config_dir: str):
    comp = _comparator(sec)
    points = sec.get_int("points", 513)
    if points < 2:
        raise sec.error("points must be at least 2")
    return comp, np.linspace(sec.get_float("b_start", -1.2 * comp.b_max),
                             sec.get_float("b_stop", 1.2 * comp.b_max),
                             points)


def _run_comparator(cfg: ScenarioConfig):
    comp, fields = cfg.spec
    codes, saturated = quantize(comp, fields)
    i_diff_half = square_loop_current_for_field(comp.side, fields)
    return [("curve.csv", ("b", "code", "saturated", "i_diff_half"),
             (fields, codes, saturated, i_diff_half))], [
        ("n_levels", comp.n_levels),
        ("half_range", comp.half_range),
        ("b_lsb", comp.b_lsb),
        ("b_max", comp.b_max),
    ]


# kind -> (section, builder, runner). A builder checks the section and
# returns the spec; a runner computes from cfg.spec and returns its CSV
# tables (file name, header, columns) and its report metrics.
_KINDS = {
    "slab-profile": ("slab", _build_slab, _run_slab),
    "device-sequence": ("device", _build_device, _run_device),
    "junction-iv": ("junction", _build_junction, _run_junction),
    "noise-psd": ("noise", _build_noise, _run_noise),
    "modulator-run": ("modulator", _build_modulator, _run_modulator),
    "comparator-curve": ("comparator", _build_comparator, _run_comparator),
}

SCENARIO_KINDS = tuple(_KINDS)


def run_scenario(cfg: ScenarioConfig, out_dir: str) -> List[str]:
    """Execute a loaded scenario and write its artifacts into out_dir;
    returns the artifact paths written.
    Nothing is written, not even the directory, unless the run
    computes to the end. numpy arithmetic that leaves the float range
    (overflow, an invalid operation, a division by zero) stops the run
    with a DomainError instead of writing inf or nan."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            tables, metrics = _KINDS[cfg.kind][2](cfg)
    except FloatingPointError as exc:
        raise DomainError(
            f"{cfg.kind} run left the float range: {exc}") from None
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, header, columns in tables:
        written.append(os.path.join(out_dir, name))
        write_csv(written[-1], header, columns)
    written.append(os.path.join(out_dir, "report.txt"))
    _write_report(written[-1], cfg, metrics)
    return written
