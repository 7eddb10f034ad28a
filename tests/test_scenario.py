"""Scenario parsing, artifact generation, and the CLI's exit codes."""

import contextlib
import io
import math
import os
import pathlib
import re
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluxdsm import errors, scenario
from fluxdsm.cli import main
from fluxdsm.comparator import (REFERENCE_I_BIAS, REFERENCE_SIDE,
                                make_comparator)
from fluxdsm.constants import CODATA
from fluxdsm.csvtext import CSV_CHUNK_ROWS, CSV_RUN_CELLS, spell, write_csv
from fluxdsm.electrodynamics import (SlabConfig, normal_slab_profile,
                                     square_loop_current_for_field,
                                     super_slab_profile)
from fluxdsm.errors import (ConfigError, DomainError, FluxLossError,
                            InstabilityError, PhaseViolationError,
                            UnknownKeyError)
from fluxdsm.fluxtrap import CylinderGeometry
from fluxdsm.junctions import (BCS_GAP_RATIO, JunctionConfig, check_nis,
                               nis_current)
from fluxdsm.materials import (check_superconducting, critical_flux_density,
                               get_material)
from fluxdsm.modulator import (ModulatorConfig, run_modulator,
                               test_tone as make_tone)
from fluxdsm.noise import (NoiseModel, check_synthesis_limits,
                           synth_flicker_series)
from fluxdsm.scenario import (
    SCENARIO_KINDS,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from test_modulator import GEOM8, ORDER1, _full_scale_at_limit


def _scenario(kind, body, seed=0):
    return f"[scenario]\nkind = {kind}\nseed = {seed}\n\n{body}"


SLAB_BODY = """[slab]
material = lead
regime = normal
d = 2e-4
b0 = 1e-6
omega = 1e5
npoints = 11
"""

SUPER_SLAB_BODY = """[slab]
material = lead
regime = super
d = 2e-7
b0 = 1e-3
omega = 0
t = 4.2
npoints = 11
"""

DEVICE_BODY = """[device]
radius = 0.02
n_segments = 4
n_eff = 4
b_in = 1e-10
schedule = doubling
"""

NIS_BODY = """[junction]
mode = nis
material = lead
t = 0.3128
z = 10
v_start = 1e-4
v_stop = 4e-3
points = 5
"""

SNS_BODY = """[junction]
mode = sns
material = lead
t = 4.2
d = 1e-7
phi_points = 9
"""

# nis with its gap in place of a material
NIS_DELTA_BODY = NIS_BODY.replace("material = lead", "delta = 2.17e-22")

SNS_FORM3_BODY = SNS_BODY + "form = 3\nr_sheet = 1\n"

NOISE_BODY = """[noise]
tau1 = 2
tau2 = 2e4
kprime = 1
n = 8192
fs = 1.0
"""

MOD_DC_BODY = """[modulator]
n = 1024
dc = 0.25
"""

COMP_BODY = """[comparator]
points = 7
"""

INPUT_NOISE_BODY = """
[input-noise]
tau1 = 2
tau2 = 2e4
kprime = 1e-9
"""


# (good body, body rejected at load, message): checks the junction
# functions make at run time, which load makes too
JUNCTION_LOAD_REJECTIONS = [
    (NIS_BODY, NIS_BODY.replace("t = 0.3128", "t = 0"),
     "t = 0 K is not strictly between 0 and the BCS Tc 8.87 K"),
    (NIS_BODY, NIS_BODY.replace("material = lead", "delta = 0"),
     "needs a positive gap"),
    (SNS_BODY, SNS_BODY.replace("t = 4.2", "t = 0"),
     "temperature must be positive"),
    (SNS_BODY, SNS_BODY + "form = 4\n", "unknown prefactor form 4"),
    (SNS_BODY, SNS_BODY + "form = 3\n",
     "missing required key 'r_sheet'"),
    (SNS_BODY, SNS_BODY + "form = 3\nr_sheet = 0\n",
     "form 3 needs a positive"),
    (SNS_BODY, SNS_BODY.replace("material = lead", "delta = 2e-22"),
     "missing required key 'material'"),
    # a material above its Tc (lead: 7.19 K) has no gap
    (NIS_BODY, NIS_BODY.replace("t = 0.3128", "t = 20"),
     "t = 20 K is not below lead's Tc 7.19 K"),
    (SNS_BODY, SNS_BODY.replace("t = 4.2", "t = 20"),
     "t = 20 K is not below lead's Tc 7.19 K"),
    # past |eV| / delta = 1e150 the NIS kernel overflows, and past the
    # gap's BCS Tc the Fermi difference cancels; both once exited 0
    (NIS_BODY, NIS_BODY.replace("v_stop = 4e-3", "v_stop = 1e300"),
     "is past the NIS sweep limit"),
    (NIS_DELTA_BODY, NIS_DELTA_BODY.replace("t = 0.3128", "t = 1e300"),
     "K is not strictly between 0 and the BCS Tc 8.91 K of the gap"),
]

DEVICE_LEAD_BODY = DEVICE_BODY + "material = lead\nt = 4.2\n"

# (kind, good body, body rejected at load, message): a material not
# superconducting at its t and field
PHASE_LOAD_REJECTIONS = [
    ("device-sequence", DEVICE_LEAD_BODY,
     DEVICE_LEAD_BODY.replace("b_in = 1e-10", "b_in = 0.06"),
     "|b_in| = 0.06 T is not below the critical flux density 0.0529 T "
     "of lead at t = 4.2 K"),
    ("device-sequence", DEVICE_LEAD_BODY,
     DEVICE_LEAD_BODY.replace("t = 4.2", "t = 9"),
     "t = 9 K is not below lead's Tc 7.19 K"),
    ("slab-profile", SUPER_SLAB_BODY,
     SUPER_SLAB_BODY.replace("b0 = 1e-3", "b0 = 0.5"),
     "|b0| = 0.5 T is not below the critical flux density 0.0529 T "
     "of lead at t = 4.2 K"),
    ("slab-profile", SUPER_SLAB_BODY,
     SUPER_SLAB_BODY.replace("t = 4.2", "t = 7.19"),
     "t = 7.19 K is not below lead's Tc 7.19 K"),
]

MOD_NO_INPUT_BODY = MOD_DC_BODY.replace("dc = 0.25\n", "")
# a [device] section alone makes the loop's first integrator the device
MOD_DEVICE_DC_BODY = MOD_DC_BODY + """
[device]
radius = 0.02
n_segments = 4
"""
# at osr 16 the band holds noise bins 7 to 32 beside the tone's 0 to 6
MOD_TONE_BODY = MOD_DC_BODY.replace("dc = 0.25", "tone_cycles = 3\nosr = 16")

# (kind, good body, body rejected at load, message): configs that once
# ran to exit 0 with a wrong result. A tone band with no noise bin
# reported sndr_db = 320.0, and an even slab grid reported the profile
# off x = 0 as its center_* results.
WRONG_RESULT_REJECTIONS = [
    ("modulator-run", MOD_TONE_BODY,
     "[modulator]\nn = 64\nosr = 8\ntone_cycles = 4\namplitude_dbfs = -6\n",
     "no noise bin in the band 1 to 4 outside the DC bins 0 to 2 and "
     "signal bins 1 to 7"),
    ("modulator-run", MOD_TONE_BODY,
     "[modulator]\nn = 16\nosr = 8\ntone_cycles = 1\n",
     "no noise bin in the band 1 to 1 outside the DC bins 0 to 2 and "
     "signal bins 0 to 4"),
    ("slab-profile", SUPER_SLAB_BODY,
     SUPER_SLAB_BODY.replace("npoints = 11", "npoints = 4"),
     "npoints must be at least 3 and odd"),
]
LOAD_MESSAGES = {bad: msg for _, bad, msg in JUNCTION_LOAD_REJECTIONS}
LOAD_MESSAGES.update((bad, msg) for _, _, bad, msg in PHASE_LOAD_REJECTIONS
                     + WRONG_RESULT_REJECTIONS)

# (kind, good body, body with a key the builder does not read,
# "line: key" of that key); the bodies start on line 5
UNREAD_KEY_REJECTIONS = [
    # keys of the other junction mode
    ("junction-iv", NIS_BODY,
     NIS_BODY + "form = 4\nphi_points = 0\n", "13: unknown key 'form'"),
    ("junction-iv", SNS_BODY,
     SNS_BODY + "v_start = 9\nv_stop = 1\npoints = -3\n",
     "11: unknown key 'v_start'"),
    # sns takes the material's gap
    ("junction-iv", SNS_BODY, SNS_BODY + "delta = 5\n",
     "11: unknown key 'delta'"),
    # nis takes a material only for its gap, when delta is absent
    ("junction-iv", NIS_DELTA_BODY, NIS_BODY + "delta = 2.17e-22\n",
     "7: unknown key 'material'"),
    # the sns form picks area (forms 1 and 2) or r_sheet (form 3)
    ("junction-iv", SNS_BODY + "form = 1\n",
     SNS_BODY + "form = 1\nr_sheet = 12345\n", "12: unknown key 'r_sheet'"),
    ("junction-iv", SNS_FORM3_BODY, SNS_FORM3_BODY + "area = 1e-12\n",
     "13: unknown key 'area'"),
    # modulator keys that no code reads for the choices the section
    # makes; full_scale alone sets the full scale
    ("modulator-run", MOD_DC_BODY,
     MOD_DC_BODY + "schedule = doubling\n", "8: unknown key 'schedule'"),
    ("modulator-run", MOD_DC_BODY,
     MOD_DC_BODY + "amplitude_dbfs = -40\n",
     "8: unknown key 'amplitude_dbfs'"),
    ("modulator-run", MOD_DC_BODY,
     MOD_DC_BODY + "full_scale = 1e-6\ninput_coil_n = 1e4\n"
     "input_coil_imax = 1e-3\n", "9: unknown key 'input_coil_n'"),
    ("modulator-run", MOD_DC_BODY,
     MOD_DC_BODY + "input_coil_imax = 1e-3\n",
     "8: unknown key 'input_coil_imax'"),
    # a and c set the loop order
    ("modulator-run", MOD_DC_BODY,
     MOD_DC_BODY + "order = 3\n", "8: unknown key 'order'"),
    # dc is read when the section has it, and the tone keys otherwise
    ("modulator-run", MOD_DC_BODY,
     MOD_DC_BODY + "tone_cycles = 5\n", "8: unknown key 'tone_cycles'"),
    # a [device] section picks the backend
    ("modulator-run", MOD_DC_BODY,
     MOD_DC_BODY + "backend = flux-device\n", "8: unknown key 'backend'"),
    # keys that no computation of the section's choices uses
    ("slab-profile", SLAB_BODY, SLAB_BODY + "t = 99\n",
     "12: unknown key 't'"),
    ("device-sequence", DEVICE_BODY, DEVICE_BODY + "t = 1e6\n",
     "11: unknown key 't'"),
    ("modulator-run", MOD_DC_BODY.replace("n = 1024", "n = 4096")
     + INPUT_NOISE_BODY, MOD_DC_BODY.replace("n = 1024", "n = 4096")
     + INPUT_NOISE_BODY + "r0 = 12345\ndof_coupled = 3\n",
     "13: unknown key 'r0'"),
]


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------- parsing

def test_shipped_and_benchmark_configs_load():
    """The benchmark pins its own copies of the shipped configs, so a
    key change has to keep both sets loading."""
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = (sorted(root.glob("scenarios/*.cfg"))
             + sorted(root.glob("perfbench/inputs/*.cfg")))
    assert {p.parent.name for p in paths} == {"scenarios", "inputs"}
    for path in paths:
        assert load_scenario(str(path)).kind in SCENARIO_KINDS


def test_parse_minimal_scenarios():
    for kind, body in [("slab-profile", SLAB_BODY),
                       ("device-sequence", DEVICE_BODY),
                       ("junction-iv", NIS_BODY),
                       ("noise-psd", NOISE_BODY),
                       ("modulator-run", MOD_DC_BODY),
                       ("comparator-curve", COMP_BODY)]:
        cfg = parse_scenario(_scenario(kind, body))
        assert cfg.kind == kind
        assert cfg.seed == 0
        assert cfg.output_dir == "."
        assert body.split("]")[0][1:] in cfg.sections
    assert len(SCENARIO_KINDS) == 6


def test_minimal_configs_build_the_library_defaults():
    """A key a config leaves out takes the library's default: the
    builders' defaults must not drift from the dataclasses'."""
    def spec(kind, body):
        return parse_scenario(_scenario(kind, body)).spec[0]

    lead = get_material("lead")
    assert spec("modulator-run", "[modulator]\ndc = 0.25\n") \
        == ModulatorConfig()
    assert spec("junction-iv", "[junction]\nmode = nis\nmaterial = lead\n"
                "t = 1\nv_start = 0\nv_stop = 1e-3\n") \
        == JunctionConfig(delta=lead.delta, T=1.0, d=0.0)
    assert spec("junction-iv", "[junction]\nmode = sns\nmaterial = lead\n"
                "t = 4.2\nd = 1e-7\n") \
        == JunctionConfig(delta=lead.delta, T=4.2, d=1e-7, material=lead)
    assert spec("noise-psd", "[noise]\ntau1 = 2\ntau2 = 2e4\n") \
        == NoiseModel(R0=1.0, tau1=2.0, tau2=2e4, kprime=1.0)
    assert spec("slab-profile", "[slab]\nmaterial = lead\nregime = super\n"
                "d = 2e-7\nb0 = 1e-3\n") \
        == SlabConfig(d=2e-7, material=lead, B0=1e-3, omega=0.0)


def test_parse_missing_scenario_section():
    with pytest.raises(ConfigError, match="missing \\[scenario\\]") as err:
        parse_scenario(SLAB_BODY)
    assert err.value.exit_code == 4


def test_parse_unknown_kind():
    with pytest.raises(ConfigError, match="unknown scenario kind"):
        parse_scenario("[scenario]\nkind = warp-field\n")


def test_parse_missing_kind_section():
    with pytest.raises(ConfigError, match="needs a \\[slab\\] section"):
        parse_scenario("[scenario]\nkind = slab-profile\n")


def test_parse_foreign_section_rejected():
    text = _scenario("slab-profile", SLAB_BODY) + "\n[noise]\ntau1 = 1\n"
    with pytest.raises(ConfigError, match="does not belong"):
        parse_scenario(text)


def test_parse_unknown_top_level_key():
    text = "[scenario]\nkind = slab-profile\ncolor = red\n\n" + SLAB_BODY
    with pytest.raises(UnknownKeyError, match="unknown key 'color'") as err:
        parse_scenario(text)
    assert err.value.exit_code == 3


def test_bad_value_reported_before_unread_key():
    text = _scenario("comparator-curve",
                     COMP_BODY.replace("points = 7", "points = 1")
                     + "sides = 4\n")
    with pytest.raises(ConfigError, match="points must be at least 2") as err:
        parse_scenario(text)
    assert err.value.exit_code == 4


# ---------------------------------------------------------- validators

@pytest.mark.parametrize("kind,body,msg", [
    ("slab-profile", SLAB_BODY.replace("regime = normal", "regime = plasma"),
     "regime must be normal or super"),
    ("slab-profile", SLAB_BODY.replace("npoints = 11", "npoints = 2"),
     "npoints must be at least 3"),
    ("slab-profile", SLAB_BODY.replace("material = lead", "material = iron"),
     "unknown material"),
    ("slab-profile", SLAB_BODY.replace("d = 2e-4", "d = 0"),
     "half-thickness"),
    ("device-sequence", DEVICE_BODY.replace("radius = 0.02", "radius = 0"),
     "radius must be positive"),
    ("junction-iv", NIS_BODY.replace("mode = nis", "mode = sis"),
     "mode must be nis or sns"),
    ("junction-iv", NIS_BODY.replace("v_stop = 4e-3", "v_stop = 1e-5"),
     "v_start must be below v_stop"),
    ("junction-iv", NIS_BODY.replace("points = 5", "points = 1"),
     "points must be at least 2"),
    ("junction-iv", SNS_BODY.replace("d = 1e-7\n", ""),
     "missing required key 'd'"),
    ("junction-iv", SNS_BODY.replace("phi_points = 9", "phi_points = 0"),
     "phi_points must be at least 2"),
    ("junction-iv", SNS_BODY.replace("phi_points = 9", "phi_points = -1"),
     "phi_points must be at least 2"),
    ("noise-psd", NOISE_BODY.replace("tau2 = 2e4", "tau2 = 1"),
     "tau1 < tau2"),
    ("noise-psd", NOISE_BODY + "method = wavelet\n",
     "method must be telegraph"),
    ("noise-psd", NOISE_BODY + "method = spectral\n",
     "method must be telegraph"),
    ("modulator-run", MOD_DC_BODY.replace("n = 1024", "n = 1000"),
     "power of two"),
    ("modulator-run", MOD_DC_BODY.replace("dc = 0.25", "dc = 1.5"),
     "dc level must lie"),
    ("slab-profile", SLAB_BODY + "\n[device]\nradius = 0.02\n"
     "n_segments = 4\n",
     "section \\[device\\] does not belong to a slab-profile scenario"),
    # the London profile is frequency independent
    ("slab-profile", SLAB_BODY.replace("regime = normal", "regime = super")
     .replace("omega = 1e5", "omega = 1e9"),
     "a super slab takes omega = 0 only"),
    # a schedule that switches a coil the cylinder does not have
    ("device-sequence", DEVICE_BODY.replace("n_segments = 4", "n_segments = 2"),
     "schedule 'doubling' step 3 switches coil 4, outside 1..2"),
    ("modulator-run", MOD_DEVICE_DC_BODY.replace("n_segments = 4",
                                                 "n_segments = 2")
     + "schedule = doubling\n",
     "schedule 'doubling' step 3 switches coil 4, outside 1..2"),
    # the loop order is the length of a and c
    ("modulator-run", MOD_DC_BODY + "a = 1,0.5,0.1\n",
     "a and c must each have one entry per stage"),
    ("modulator-run", MOD_DC_BODY.replace("dc = 0.25", "tone_cycles = 9"),
     "signal bin 9 outside the modulator band 1 to n / \\(2 osr\\) = 4"),
    ("modulator-run", MOD_DC_BODY + "a = two,four\n",
     "comma separated float list"),
    ("modulator-run", MOD_NO_INPUT_BODY, "needs dc or tone_cycles"),
    ("modulator-run", MOD_TONE_BODY + "amplitude_dbfs = 3\n",
     "amplitude_dbfs must be at most 0"),
    ("modulator-run", MOD_DC_BODY + "a = 2,nan\n",
     "comma separated float list"),
    # non-finite numbers, in any spelling float() takes
    ("slab-profile", SLAB_BODY.replace("d = 2e-4", "d = nan"),
     "'d' expects a number, got 'nan'"),
    ("modulator-run", MOD_DEVICE_DC_BODY.replace("dc = 0.25", "dc = nan"),
     "'dc' expects a number, got 'nan'"),
    ("junction-iv", NIS_BODY.replace("t = 0.3128", "t = inf"),
     "'t' expects a number, got 'inf'"),
    ("modulator-run", MOD_TONE_BODY + "amplitude_dbfs = -Infinity\n",
     "'amplitude_dbfs' expects a number"),
    ("comparator-curve", COMP_BODY.replace("points = 7", "points = 1"),
     "points must be at least 2"),
    ("comparator-curve", COMP_BODY + "i_bias = -1\n",
     "bias current must be positive"),
] + [("junction-iv", bad, msg) for _, bad, msg in JUNCTION_LOAD_REJECTIONS])
def test_validator_rejections(kind, body, msg):
    with pytest.raises(ConfigError, match=msg) as err:
        parse_scenario(_scenario(kind, body))
    assert err.value.exit_code in (3, 4)


def test_validator_errors_carry_line_numbers(tmp_path):
    path = _write(tmp_path, "bad.cfg", _scenario(
        "slab-profile",
        SLAB_BODY.replace("regime = normal", "regime = plasma")))
    with pytest.raises(ConfigError, match="bad.cfg:") as err:
        load_scenario(path)
    assert err.value.line is not None


def test_modulator_config_errors_carry_location(tmp_path):
    path = _write(tmp_path, "mod.cfg", _scenario(
        "modulator-run", MOD_DC_BODY + "osr = 4\n"))
    with pytest.raises(ConfigError, match=r"mod\.cfg:5: osr must be") as err:
        load_scenario(path)
    assert err.value.exit_code == 4


# --------------------------------------------------------------- runs

def test_run_slab_profile(tmp_path):
    cfg = parse_scenario(_scenario("slab-profile", SLAB_BODY))
    written = run_scenario(cfg, str(tmp_path))
    assert sorted(os.path.basename(p) for p in written) == [
        "profile.csv", "report.txt"]
    lines = (tmp_path / "profile.csv").read_text().splitlines()
    assert lines[0] == "x,re_b,im_b,re_j,im_j"
    assert len(lines) == 12
    report = (tmp_path / "report.txt").read_text()
    assert "kind = slab-profile" in report
    assert "center_screening = " in report
    assert "slab.material = lead" in report


def test_run_scenario_writes_only_into_its_out_dir(tmp_path, monkeypatch):
    # output_dir is the CLI's default directory; run_scenario never reads it
    monkeypatch.chdir(tmp_path)
    cfg = parse_scenario(_scenario("comparator-curve", COMP_BODY).replace(
        "seed = 0\n", "seed = 0\noutput_dir = elsewhere\n"))
    assert run_scenario(cfg, "here") == [os.path.join("here", "curve.csv"),
                                         os.path.join("here", "report.txt")]
    assert [p.name for p in tmp_path.iterdir()] == ["here"]
    with pytest.raises(TypeError):
        run_scenario(cfg)


def test_reports_do_not_leak_paths(tmp_path):
    cfg = parse_scenario(_scenario("slab-profile", SLAB_BODY))
    run_scenario(cfg, str(tmp_path))
    report = (tmp_path / "report.txt").read_text()
    assert str(tmp_path) not in report


def test_run_device_sequence(tmp_path):
    cfg = parse_scenario(_scenario("device-sequence", DEVICE_BODY))
    run_scenario(cfg, str(tmp_path))
    lines = (tmp_path / "sequence.csv").read_text().splitlines()
    assert lines[0] == "step,action,target,switch,phases,n_rings,trapped_quanta"
    assert len(lines) == 8  # header + the 7 schedule steps
    report = (tmp_path / "report.txt").read_text()
    assert "gain = 2" in report
    assert "trapped_quanta_total = 122" in report
    assert "final_phases = NSNS" in report


def test_run_device_empty_schedule(tmp_path):
    # a schedule of comments only runs no step and traps nothing
    (tmp_path / "none.sched").write_text("# nothing to switch\n")
    cfg = parse_scenario(_scenario("device-sequence", DEVICE_BODY.replace(
        "schedule = doubling", "schedule = none.sched")),
        str(tmp_path / "empty.cfg"))
    run_scenario(cfg, str(tmp_path))
    lines = (tmp_path / "sequence.csv").read_text().splitlines()
    assert lines == ["step,action,target,switch,phases,n_rings,"
                     "trapped_quanta"]
    report = (tmp_path / "report.txt").read_text()
    assert "gain = 0" in report
    assert "trapped_quanta_total = 0" in report
    assert "final_phases = SSSS" in report


def test_run_junction_nis(tmp_path):
    cfg = parse_scenario(_scenario("junction-iv", NIS_BODY))
    run_scenario(cfg, str(tmp_path))
    lines = (tmp_path / "iv.csv").read_text().splitlines()
    assert lines[0] == "v,i"
    v = [float(l.split(",")[0]) for l in lines[1:]]
    assert v == sorted(v) and len(v) == 5
    assert "i_max = " in (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize("v_stop", ["1e-21", "1e-300"])
def test_run_junction_nis_at_tiny_voltages(tmp_path, v_stop):
    # the Fermi difference f(s - eV) - f(s) cancels to 0.0 here, which
    # wrote an all-zero iv.csv; linear response makes I/V constant
    body = (NIS_BODY.replace("t = 0.3128", "t = 4.2")
            .replace("z = 10", "z = 0").replace("v_start = 1e-4", "v_start = 0")
            .replace("v_stop = 4e-3", f"v_stop = {v_stop}")
            .replace("points = 5", "points = 3"))
    cfg = parse_scenario(_scenario("junction-iv", body))
    run_scenario(cfg, str(tmp_path))
    rows = [[float(cell) for cell in line.split(",")] for line in
            (tmp_path / "iv.csv").read_text().splitlines()[1:]]
    assert rows[0] == [0.0, 0.0] and len(rows) == 3
    conductance = nis_current(cfg.spec[0], 1e-15) / 1e-15
    for v, i in rows[1:]:
        if i < sys.float_info.min:
            # a subnormal current keeps too few bits for a ratio
            assert i > 0.0
        else:
            assert i / v == pytest.approx(conductance, rel=1e-5)


@pytest.mark.parametrize("body,name,points", [
    (NIS_BODY, "nis_current", 5),
    (SNS_BODY, "sns_current", 9),
], ids=["nis", "sns"])
def test_junction_runner_makes_one_call_per_curve(tmp_path, monkeypatch,
                                                  body, name, points):
    grids = []
    real = getattr(scenario, name)

    def counted(jc, grid, **kwargs):
        grids.append(grid)
        return real(jc, grid, **kwargs)

    monkeypatch.setattr(scenario, name, counted)
    run_scenario(parse_scenario(_scenario("junction-iv", body)),
                 str(tmp_path))
    assert len(grids) == 1 and np.shape(grids[0]) == (points,)


def test_run_junction_sns(tmp_path):
    cfg = parse_scenario(_scenario("junction-iv", SNS_BODY))
    run_scenario(cfg, str(tmp_path))
    lines = (tmp_path / "iv.csv").read_text().splitlines()
    assert lines[0] == "phi,i"
    assert len(lines) == 10
    assert "i_critical = " in (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize("phi_points", [2, 3, 4])
def test_sns_i_critical_is_the_closed_form(tmp_path, phi_points):
    # the largest sample of a coarse grid misses the peak at phi = pi/2:
    # 0.0 at 2 points, 1.5e-14 at 3 and 106.35 at 4
    body = SNS_BODY.replace("phi_points = 9", f"phi_points = {phi_points}")
    run_scenario(parse_scenario(_scenario("junction-iv", body)),
                 str(tmp_path))
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert "i_critical = 122.80449997332772" in report


def test_run_noise_psd(tmp_path):
    cfg = parse_scenario(_scenario("noise-psd", NOISE_BODY))
    written = run_scenario(cfg, str(tmp_path))
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["psd.csv", "report.txt", "series.csv"]
    psd_lines = (tmp_path / "psd.csv").read_text().splitlines()
    assert psd_lines[0] == "freq,s_measured,s_flicker,s_lorentzian"
    assert "series_variance = " in (tmp_path / "report.txt").read_text()


def test_run_modulator_dc(tmp_path):
    cfg = parse_scenario(_scenario("modulator-run", MOD_DC_BODY))
    run_scenario(cfg, str(tmp_path))
    report = (tmp_path / "report.txt").read_text()
    assert "dc_mean = " in report
    assert "tracking_error = " in report
    assert "stable = 1" in report
    # per-integrator peak |x_i|, the last lines of the report
    tail = report.splitlines()[-2:]
    assert [line.split(" = ")[0] for line in tail] == ["state_peak_1",
                                                       "state_peak_2"]
    assert all(0.0 < float(line.split(" = ")[1]) <= 8.0 for line in tail)
    codes = (tmp_path / "codes.csv").read_text().splitlines()
    assert codes[0] == "k,code" and len(codes) == 1025
    spec = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert spec[0] == "freq,power" and len(spec) == 513


def test_run_modulator_tone(tmp_path):
    # bins 3 to 32 of the band hold noise bins beside the tone's 2 to 8
    body = "[modulator]\nn = 4096\ntone_cycles = 5\nosr = 64\n"
    cfg = parse_scenario(_scenario("modulator-run", body))
    run_scenario(cfg, str(tmp_path))
    assert "sndr_db = " in (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize("body,backend", [
    (MOD_DC_BODY, "ideal"), (MOD_DEVICE_DC_BODY, "flux-device")],
    ids=["ideal", "flux-device"])
def test_modulator_backend_label_follows_the_device_section(body, backend):
    # the label that a traced run is counted under, ideal or device
    mc = parse_scenario(_scenario("modulator-run", body)).spec[0]
    assert mc.backend == backend


def test_noisy_device_loop_runs_its_schedule_once(tmp_path, monkeypatch):
    # the runner rebuilds the config to seed [input-noise]; the rebuilt
    # config finds its gain without running the schedule again
    from fluxdsm import modulator
    calls = []
    real = modulator.run_amplification_sequence
    monkeypatch.setattr(modulator, "run_amplification_sequence",
                        lambda *args: calls.append(args) or real(*args))
    modulator._schedule_gain.cache_clear()
    body = MOD_DEVICE_DC_BODY.replace("n = 1024", "n = 4096")
    cfg = parse_scenario(_scenario("modulator-run", body + INPUT_NOISE_BODY,
                                   seed=5))
    run_scenario(cfg, str(tmp_path))
    assert "device_gain = 2" in (tmp_path / "report.txt").read_text()
    assert len(calls) == 1


def test_run_modulator_device_backend(tmp_path):
    body = (MOD_DC_BODY + "\n[device]\n"
            "radius = 0.02\nn_segments = 4\nn_eff = 4\nschedule = doubling\n")
    cfg = parse_scenario(_scenario("modulator-run", body))
    run_scenario(cfg, str(tmp_path))
    assert "device_gain = 2" in (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize("body,osr,fs,segments", [
    (MOD_DC_BODY, 128, 1.0, None),
    (MOD_TONE_BODY.replace("n = 1024", "n = 1024\nfs = 2e6"),
     16, 2e6, None),
    (MOD_DEVICE_DC_BODY.replace("n = 1024", "n = 1024\nfs = 3.7e7"),
     128, 3.7e7, 4),
    (MOD_DEVICE_DC_BODY.replace("n_segments = 4", "n_segments = 16")
     .replace("n = 1024", "n = 1024\nosr = 8\nfs = 4.5e7"), 8, 4.5e7, 16),
], ids=["ideal-dc", "ideal-tone", "device-4", "device-16"])
def test_modulator_report_states_band_and_settle_margin(tmp_path, body, osr,
                                                        fs, segments):
    run_scenario(parse_scenario(_scenario("modulator-run", body)),
                 str(tmp_path))
    lines = (tmp_path / "report.txt").read_text().splitlines()
    report = dict(line.split(" = ") for line in lines)
    assert float(report["band_hz"]) == fs / (2 * osr)
    if segments is None:
        assert "settle_margin" not in report
    else:
        # half a clock period over 16 tau_cooper ln 2 + (2n + 1) tau_ecoil
        t_settle = 16.0 * 1e-10 * math.log(2.0) + (2 * segments + 1) * 3e-10
        margin = float(report["settle_margin"])
        assert margin == 0.5 / fs / t_settle
        assert margin >= 1.0
    # both come before the state peaks, which stay the last lines
    keys = [line.split(" = ")[0] for line in lines]
    last = keys.index("settle_margin" if segments else "band_hz")
    assert keys[last + 1:] == ["state_peak_1", "state_peak_2"]


# gains that leave the bound at sample 1 and overflow after it: the
# run under run_scenario's errstate must still name the first integrator
# and sample past the bound, not turn the overflow into a DomainError
@pytest.mark.parametrize("gains,stage", [
    ("c = 1e308,1e308\n", 1),
    ("a = 1,1,1\nc = 0.5,0.5,1e308\n", 3),
], ids=["order-2", "order-3"])
def test_unstable_modulator_run_raises_instability(tmp_path, gains, stage):
    cfg = parse_scenario(_scenario("modulator-run", MOD_DC_BODY + gains))
    with pytest.raises(InstabilityError) as err:
        run_scenario(cfg, str(tmp_path / "out"))
    assert str(err.value) == (f"integrator {stage} left [-8.0, 8.0] at "
                              "sample 1")
    assert err.value.sample == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", ["", INPUT_NOISE_BODY])
def test_fast_clock_device_config_rejected_at_load(extra):
    # input noise synthesis needs at least 4096 samples
    body = (MOD_DC_BODY.replace("n = 1024", "n = 4096")
            + "fs = 1e9\n\n[device]\n"
            "radius = 0.02\nn_segments = 4\nn_eff = 4\nschedule = doubling\n"
            + extra)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="settle time") as err:
            parse_scenario(_scenario("modulator-run", body))
    # anchored at the [modulator] header
    assert err.value.line == 5
    assert caught == []


def test_run_comparator_curve(tmp_path):
    cfg = parse_scenario(_scenario("comparator-curve", COMP_BODY))
    run_scenario(cfg, str(tmp_path))
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "b,code,saturated,i_diff_half"
    codes = [int(l.split(",")[1]) for l in lines[1:]]
    assert codes == sorted(codes) and len(codes) == 7
    report = (tmp_path / "report.txt").read_text()
    assert "n_levels = 513" in report
    assert "half_range = 256" in report


def test_comparator_curve_matches_scalar_writer(tmp_path):
    # +-300.5 LSB over 602 points: saturates at both ends, and 253 of
    # the points are exact half-LSB ties
    comp = make_comparator(200e-6, 9.371e-3)
    b_stop = 1.5534601786570246e-05
    b_start, points = -b_stop, 602
    body = (f"[comparator]\nb_start = {b_start!r}\nb_stop = {b_stop!r}\n"
            f"points = {points}\n")
    run_scenario(parse_scenario(_scenario("comparator-curve", body)),
                 str(tmp_path))
    hr = comp.half_range
    lines = ["b,code,saturated,i_diff_half"]
    ties = saturated = 0
    for b in np.linspace(b_start, b_stop, points).tolist():
        ratio = b / comp.b_lsb
        raw = int(round(ratio))
        code = min(max(raw, -hr), hr)
        ties += abs(ratio - math.floor(ratio)) == 0.5
        saturated += code != raw
        i_diff_half = square_loop_current_for_field(comp.side, b)
        lines.append(f"{b!r},{code},{1 if code != raw else 0},"
                     f"{i_diff_half!r}")
    assert ties == 253 and saturated > 0
    assert (tmp_path / "curve.csv").read_bytes() == \
        ("\n".join(lines) + "\n").encode()


def test_csv_bytes_are_lf_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b"), [(1, True), (2.5, -0.0)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw == b"a,b\n1,2.5\n1,-0.0\n"


def _row_writer_bytes(header, rows):
    """The oracle: one spell per value, one line per row."""
    lines = [",".join(header)] + [",".join(spell(v) for v in row)
                                  for row in rows]
    return ("\n".join(lines) + "\n").encode()


_ODD_FLOATS = [0.1, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]
_MIXED_ROWS = [
    # int, numpy int (one bool among them), text, float, float64
    (k, True if k == 4 else np.int64(-k), f"s{k}", x, np.float64(x))
    for k, x in enumerate(_ODD_FLOATS)
]


def _numeric_columns(n):
    """numpy columns of each dtype the column-wise encoder takes, with
    the odd floats, both int64 ends and a bool among them."""
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    floats[:len(_ODD_FLOATS)] = _ODD_FLOATS
    ints = rng.integers(-2**63, 2**63, n, dtype=np.int64)
    ints[:2] = (-2**63, 2**63 - 1)
    return [np.arange(n), floats, ints, floats > 0, np.linspace(0.0, 0.5, n)]


@pytest.mark.parametrize("columns", [
    list(zip(*_MIXED_ROWS)),
    [(True, False, 1), (0.5, -1, math.nan)],  # bool-led int column
    [[1, 2.5]],  # int-led float column
    [],
    [range(CSV_CHUNK_ROWS + 3), [k * 0.1 for k in range(CSV_CHUNK_ROWS + 3)]],
    # five numpy columns, column-wise at any size, in chunks of
    # CSV_CHUNK_ROWS; the two float columns of a chunk share one Ryu run
    # up to CSV_RUN_CELLS cells
    _numeric_columns(len(_ODD_FLOATS)),
    _numeric_columns(103),
    _numeric_columns(CSV_RUN_CELLS // 2),
    _numeric_columns(CSV_RUN_CELLS // 2 + 1),
    _numeric_columns(CSV_CHUNK_ROWS + 3),
    # a telegraph series holds few distinct values, each many times
    [np.arange(4096), synth_flicker_series(NoiseModel(
        R0=1.0, tau1=2.0, tau2=2e4, kprime=1.0, seed=42), 4096, 1.0)],
], ids=["mixed", "bools", "int-led-float", "empty", "chunk-boundary",
        "numeric-few-rows", "numeric-by-column", "numeric-one-run",
        "numeric-run-per-column", "numeric-by-column-chunks",
        "flicker-series"])
def test_write_csv_matches_row_writer(tmp_path, columns):
    header = tuple(f"c{i}" for i in range(len(columns) or 2))
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                      for c in columns)))
    path = tmp_path / "t.csv"
    write_csv(str(path), header, columns)
    assert path.read_bytes() == _row_writer_bytes(header, rows)
    # a one-shot generator, as an instrumented caller passes, gives the same
    write_csv(str(path), header, (column for column in columns))
    assert path.read_bytes() == _row_writer_bytes(header, rows)


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(str(tmp_path / "t.csv"), ("a", "b"), [(1, 2), (3,)])


_INT64 = st.integers(-2**63, 2**63 - 1)
# every value type the spelling rule names; text holds no comma, line
# break or NUL (numpy drops a str's trailing NULs)
_SPELLED = st.one_of(
    st.booleans(), st.booleans().map(np.bool_), _INT64, _INT64.map(np.int64),
    st.floats(), st.floats().map(np.float64),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters=",\r\n\0")))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(value=_SPELLED)
def test_csv_cell_is_spelled_value(value):
    """A value's cell is spell(value) in a one-row table, a sequence
    column of its own or beside a float, a one-row and a 512-row array
    column, and a 256-row array column beside a float column (one Ryu
    run for both where the value is a float)."""
    cell = spell(value)
    tables = [
        ([[value]], f"{cell}\n"),
        ([(value,) * 3, (0.5,) * 3], f"{cell},0.5\n" * 3),
        ([(value, 0.5)], f"{cell}\n0.5\n"),
        ([np.full(1, value)], f"{cell}\n"),
        ([np.full(512, value)], f"{cell}\n" * 512),
        ([np.full(256, value), np.full(256, 0.5)], f"{cell},0.5\n" * 256),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        for columns, body in tables:
            write_csv(path, ("c",) * len(columns), columns)
            with open(path, encoding="utf-8", newline="") as f:
                assert f.read().split("\n", 1)[1] == body


def test_runs_are_byte_identical(tmp_path):
    cfg = parse_scenario(_scenario("noise-psd", NOISE_BODY, seed=9))
    run_scenario(cfg, str(tmp_path / "a"))
    run_scenario(cfg, str(tmp_path / "b"))
    for name in ("series.csv", "psd.csv", "report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# ----------------------------------------------------------------- cli

def test_cli_runs_comparator(tmp_path, capsys):
    cfg_path = _write(tmp_path, "curve.cfg",
                      _scenario("comparator-curve", COMP_BODY))
    out = tmp_path / "out"
    code = main(["--config", cfg_path, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "curve.csv") in printed
    assert (out / "report.txt").exists()


def test_cli_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_syntax_error_exit_2(tmp_path, capsys):
    cfg_path = _write(tmp_path, "broken.cfg", "not a config\n")
    assert main(["--config", cfg_path]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unknown_key_exit_3(tmp_path, capsys):
    cfg_path = _write(tmp_path, "extra.cfg", _scenario(
        "comparator-curve", COMP_BODY + "sides = 4\n"))
    assert main(["--config", cfg_path]) == 3
    assert "unknown key 'sides'" in capsys.readouterr().err


def test_cli_invariant_violation_exit_4(tmp_path, capsys):
    cfg_path = _write(tmp_path, "bad.cfg", _scenario(
        "slab-profile",
        SLAB_BODY.replace("regime = normal", "regime = plasma")))
    assert main(["--config", cfg_path]) == 4
    assert "regime" in capsys.readouterr().err


def test_cli_runtime_flux_loss_exit_5(tmp_path, capsys):
    sched = _write(tmp_path, "crush.sched",
                   "ecoil * on\nfield on\necoil 2 off\nfield off\n"
                   "ecoil 2 on\n")
    cfg_path = _write(tmp_path, "crush.cfg", _scenario(
        "device-sequence",
        DEVICE_BODY.replace("schedule = doubling",
                            f"schedule = {os.path.basename(sched)}")))
    code = main(["--config", cfg_path, "--out",
                 str(tmp_path / "out")])
    assert code == FluxLossError.exit_code == 5
    err = capsys.readouterr().err
    assert "step 4" in err
    # every error class keeps the code of its row in the README's table
    assert {name: cls.exit_code for name, cls in vars(errors).items()
            if isinstance(cls, type)
            and issubclass(cls, errors.FluxDsmError)} == {
        "FluxDsmError": 5, "UsageError": 2, "ConfigError": 4,
        "ConfigSyntaxError": 2, "UnknownKeyError": 3, "DomainError": 5,
        "PhaseViolationError": 5, "FluxLossError": 5, "InstabilityError": 5,
        "QuadratureError": 5}


def test_cli_ring_overlap_exit_5(tmp_path, capsys):
    _write(tmp_path, "overlap.sched",
           "ecoil * on\nfield on\necoil 2 off\nfield off\nfield on\n"
           "ecoil 3 off\nfield off\n")
    cfg_path = _write(tmp_path, "overlap.cfg", _scenario(
        "device-sequence",
        DEVICE_BODY.replace("schedule = doubling", "schedule = overlap.sched")))
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 5
    assert not out.exists()
    err = capsys.readouterr().err
    assert "step 6: trap would overlap an existing ring" in err
    assert "Traceback" not in err


def test_cli_unwritable_artifact_exit_5(tmp_path, capsys):
    # --out names a regular file, so the output directory cannot be made
    out = tmp_path / "taken"
    out.write_text("")
    shipped = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    assert main(["--config", str(shipped / "comparator_curve.cfg"),
                 "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert out.read_text() == ""


def test_cli_rerun_writes_new_files(tmp_path, capsys):
    """A rerun into a directory that holds longer, stale artifacts leaves
    exactly the new bytes. An artifact hard-linked or symlinked elsewhere
    is replaced by a new file, not written through, and an artifact path
    that is a directory exits 5."""
    config = str(pathlib.Path(__file__).resolve().parent.parent
                 / "scenarios" / "comparator_curve.cfg")
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main(["--config", config, "--out", str(fresh)]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert names == ["curve.csv", "report.txt"]
    stale = b"stale,9.999999999999999e-300\n" * 2000
    assert all(len(stale) > (fresh / name).stat().st_size for name in names)
    out.mkdir()
    (out / "curve.csv").write_bytes(stale)
    os.link(out / "curve.csv", tmp_path / "linked.csv")
    (tmp_path / "target.txt").write_bytes(stale)
    (out / "report.txt").symlink_to(tmp_path / "target.txt")
    assert main(["--config", config, "--out", str(out)]) == 0
    for name in names:
        assert not (out / name).is_symlink()
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    assert (tmp_path / "linked.csv").read_bytes() == stale
    assert (tmp_path / "target.txt").read_bytes() == stale
    capsys.readouterr()
    (out / "report.txt").unlink()
    (out / "report.txt").mkdir()
    assert main(["--config", config, "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert (out / "report.txt").is_dir()


def test_cli_device_loop_without_rings_exit_4(tmp_path, capsys):
    _write(tmp_path, "no_ring.sched", "field on\nfield off\n")
    cfg_path = _write(tmp_path, "no_ring.cfg", _scenario(
        "modulator-run", MOD_DEVICE_DC_BODY + "schedule = no_ring.sched\n"))
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"{cfg_path}:5: the device schedule leaves no ring" in err


def test_cli_device_loop_losing_flux_exits_5_before_the_batch_runs(
        tmp_path, capsys):
    # the schedule runs when the loop's config is built, at load, so
    # the good config ahead of it in the batch writes nothing either
    _write(tmp_path, "overlap.sched",
           "ecoil * on\nfield on\necoil 2 off\nfield off\nfield on\n"
           "ecoil 3 off\nfield off\n")
    good = _write(tmp_path, "good.cfg", _scenario("comparator-curve",
                                                  COMP_BODY))
    bad = _write(tmp_path, "overlap.cfg", _scenario(
        "modulator-run", MOD_DEVICE_DC_BODY + "schedule = overlap.sched\n"))
    out = tmp_path / "out"
    assert main(["--config", good, bad, "--out", str(out)]) == 5
    assert not out.exists()
    err = capsys.readouterr().err
    assert "step 6: trap would overlap an existing ring" in err
    assert "Traceback" not in err


def test_cli_device_loop_past_settle_budget_exit_4(tmp_path, capsys):
    cfg_path = _write(tmp_path, "fast.cfg", _scenario(
        "modulator-run", "[modulator]\nosr = 32\nn = 1024\ndc = 0.25\n"
        "fs = 1e10\n\n[device]\nradius = 0.02\nn_segments = 8\n"
        "n_eff = 4\n"))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", cfg_path, "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}:5: clock period 1.000e-10 s")
    assert "settle time" in err
    assert "Warning" not in err and "Traceback" not in err
    assert caught == []


def test_cli_missing_config_file_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.cfg")
    assert main(["--config", missing]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_cli_config_not_utf8_exit_2(tmp_path, capsys):
    p = tmp_path / "latin1.cfg"
    p.write_bytes(_scenario("comparator-curve", COMP_BODY).encode()
                  + b"# caf\xe9\n")
    assert main(["--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "latin1.cfg:7:" in err and "UTF-8" in err


def test_cli_schedule_not_utf8_exit_2(tmp_path, capsys):
    (tmp_path / "latin1.sched").write_bytes(b"ecoil * on\n\xff\n")
    cfg_path = _write(tmp_path, "dev.cfg", _scenario(
        "device-sequence",
        DEVICE_BODY.replace("schedule = doubling", "schedule = latin1.sched")))
    assert main(["--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "latin1.sched:2:" in err and "UTF-8" in err


@pytest.mark.parametrize("kind,good,bad", [
    ("device-sequence", DEVICE_BODY,
     DEVICE_BODY.replace("schedule = doubling", "schedule = nowhere.sched")),
    ("slab-profile", SLAB_BODY, SLAB_BODY.replace("d = 2e-4", "d = 0")),
    ("noise-psd", NOISE_BODY,
     NOISE_BODY.replace("n = 8192", "n = 1000")),
    ("modulator-run",
     MOD_DC_BODY.replace("n = 1024", "n = 4096") + INPUT_NOISE_BODY,
     MOD_DC_BODY + INPUT_NOISE_BODY),
    ("modulator-run", MOD_DC_BODY, MOD_NO_INPUT_BODY),
    ("modulator-run", MOD_TONE_BODY,
     MOD_TONE_BODY + "amplitude_dbfs = 3\n"),
    ("slab-profile", SLAB_BODY,
     SLAB_BODY.replace("d = 2e-4", "d = nan")),
    ("modulator-run", MOD_DEVICE_DC_BODY,
     MOD_DEVICE_DC_BODY.replace("dc = 0.25", "dc = nan")),
    ("junction-iv", NIS_BODY,
     NIS_BODY.replace("t = 0.3128", "t = inf")),
] + [("junction-iv", good, bad)
     for good, bad, _ in JUNCTION_LOAD_REJECTIONS] + [
    (kind, good, bad) for kind, good, bad, _ in PHASE_LOAD_REJECTIONS
    + WRONG_RESULT_REJECTIONS])
def test_cli_load_rejection_writes_nothing(tmp_path, capsys, kind, good,
                                           bad):
    # the batch loads both configs before it runs the good one
    ok_path = _write(tmp_path, "ok.cfg", _scenario(kind, good))
    bad_path = _write(tmp_path, "bad.cfg", _scenario(kind, bad))
    out = tmp_path / "out"
    assert main(["--config", ok_path, "--config", bad_path,
                 "--out", str(out)]) == 4
    assert not out.exists()
    if bad in LOAD_MESSAGES:
        # the message names what the config sets, at the section's line
        err = capsys.readouterr().err
        assert "bad.cfg:5:" in err and LOAD_MESSAGES[bad] in err


@pytest.mark.parametrize("kind,good,bad,where", UNREAD_KEY_REJECTIONS,
                         ids=["nis-form", "sns-v_start", "sns-delta",
                              "nis-material-with-delta",
                              "sns-form-1-r_sheet", "sns-form-3-area",
                              "schedule",
                              "amplitude_dbfs-with-dc",
                              "input_coil-with-full_scale",
                              "input_coil_imax-alone", "order",
                              "tone_cycles-with-dc", "backend",
                              "normal-slab-t", "device-t-without-material",
                              "input-noise-r0"])
def test_cli_unread_key_exit_3(tmp_path, capsys, kind, good, bad,
                               where):
    ok_path = _write(tmp_path, "ok.cfg", _scenario(kind, good))
    bad_path = _write(tmp_path, "bad.cfg", _scenario(kind, bad))
    out = tmp_path / "out"
    assert main(["--config", ok_path, "--config", bad_path,
                 "--out", str(out)]) == 3
    assert not out.exists()
    assert f"bad.cfg:{where}" in capsys.readouterr().err


@pytest.mark.parametrize("kind,body,where", [
    # a non-finite number is named at its key's line
    ("slab-profile", SLAB_BODY.replace("d = 2e-4", "d = nan"),
     "bad.cfg:8: key 'd' expects a number, got 'nan'"),
    ("modulator-run",
     MOD_DEVICE_DC_BODY.replace("dc = 0.25", "dc = nan"),
     "bad.cfg:7: key 'dc' expects a number, got 'nan'"),
    ("junction-iv", NIS_BODY.replace("t = 0.3128", "t = inf"),
     "bad.cfg:8: key 't' expects a number, got 'inf'"),
    # an input level above full scale is named at its section's line
    ("modulator-run", MOD_TONE_BODY + "amplitude_dbfs = 3\n",
     "bad.cfg:5: amplitude_dbfs must be at most 0"),
    # so is a section the builder did not read
    ("slab-profile",
     SLAB_BODY + "\n[device]\nradius = 0.02\nn_segments = 4\n",
     "bad.cfg:13: section [device] does not belong to a slab-profile "
     "scenario"),
    # a value the cylinder or the input-noise band rejects is named at
    # its own section's line, not at [modulator]'s
    ("modulator-run", MOD_DEVICE_DC_BODY.replace("radius = 0.02",
                                                 "radius = -1"),
     "bad.cfg:9: radius must be positive"),
    ("modulator-run", MOD_DC_BODY.replace("n = 1024", "n = 4096")
     + INPUT_NOISE_BODY.replace("tau1 = 2", "tau1 = 5")
     .replace("tau2 = 2e4", "tau2 = 2"),
     "bad.cfg:9: relaxation times tau1 = 5.0 s, tau2 = 2.0 s"),
])
def test_cli_load_rejection_names_location(tmp_path, capsys, kind, body,
                                           where):
    cfg_path = _write(tmp_path, "bad.cfg", _scenario(kind, body))
    assert main(["--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 4
    assert where in capsys.readouterr().err


NIS_HUGE_BODY = """[junction]
mode = nis
delta = 1e100
t = 1
prefactor = 1e300
v_start = 0
v_stop = 1e90
points = 3
"""

def _loop_limit_rejections():
    """modulator-run cases just past the loop sum's 2**50 LSBs, the
    device accumulator's 2**48 quanta, and a device clock slow enough
    that settle_margin overflows."""
    ideal = ModulatorConfig()
    device = parse_scenario(_scenario("modulator-run",
                                      MOD_DEVICE_DC_BODY)).spec[0]
    # sum(a) stability_bound full_scale / b_lsb = 2**50
    sum_scale = 2.0**50 * ideal.comparator.b_lsb / (6.0 * 8.0)
    # stability_bound quanta_per_unit device_gain / c[0] = 2**48
    acc_scale = (2.0**48 * 0.5 * device.full_scale_field
                 / (8.0 * device.quanta_per_unit * device.device_gain))
    over_sum, over_acc = sum_scale * (1 + 1e-12), acc_scale * (1 + 1e-12)
    return [
        ("modulator-run", MOD_DC_BODY + f"full_scale = {over_sum!r}\n", 4,
         f"bad.cfg:5: full scale {over_sum!r} T and stability bound 8.0 "
         "put the loop sum at 1.13e+15 comparator LSBs, past the 2**50"),
        ("modulator-run", MOD_DEVICE_DC_BODY.replace(
            "dc = 0.25", f"dc = 0.25\nfull_scale = {over_acc!r}"), 4,
         f"bad.cfg:5: full scale {over_acc!r} T is "
         f"{over_acc * device.geometry.area / CODATA.phi0!r} "
         "flux quanta over the bore, which puts up to 2.81e+14 quanta in "
         "the device accumulator: the count must be above 0 and the "
         "accumulator under the 2**48"),
        # half a period of 1e301 s over the settle time overflows
        ("modulator-run",
         MOD_DEVICE_DC_BODY.replace("dc = 0.25", "dc = 0.25\nfs = 1e-301"),
         4, "bad.cfg:5: clock period 1.000e+301 s puts settle_margin, half "
         "a period over the device settle time, at inf, outside [1, inf)"),
    ]


# finite config values whose arithmetic would leave the float range,
# or the range the modulator loop rounds exactly in floats:
# (kind, body, exit code, message). What load builds is
# rejected at its section's line (exit 4), the rest by the run (exit 5).
FLOAT_RANGE_REJECTIONS = [
    ("comparator-curve", COMP_BODY + "side = 1e-300\n", 4,
     "bad.cfg:5: loop side 1e-300 m puts the loop area outside"),
    ("device-sequence",
     DEVICE_BODY.replace("radius = 0.02", "radius = 1e200"), 4,
     "bad.cfg:5: radius 1e+200 m puts the bore area outside"),
    ("device-sequence",
     DEVICE_BODY.replace("b_in = 1e-10", "b_in = 1e300"), 5,
     "B_in = 1e+300 T over the bore is inf flux quanta"),
    ("modulator-run",
     MOD_DEVICE_DC_BODY.replace("dc = 0.25", "dc = 0.25\nfull_scale = 1e300"),
     4, "bad.cfg:5: full scale 1e+300 T"),
    ("modulator-run", MOD_DC_BODY + "full_scale = 1e308\n", 4,
     "bad.cfg:5: full scale 1e+308 T"),
    # values that load, but whose run arithmetic leaves the float range
    ("slab-profile", SLAB_BODY.replace("d = 2e-4", "d = 1e300"), 5,
     "error: slab-profile run left the float range"),
    ("slab-profile", SLAB_BODY.replace("b0 = 1e-6", "b0 = 1e300"), 5,
     "error: slab-profile run left the float range"),
    ("slab-profile",
     SLAB_BODY.replace("omega = 1e5", "omega = 1e300"), 5,
     "error: slab-profile run left the float range"),
    ("slab-profile", SLAB_BODY.replace(
        "regime = normal", "regime = super").replace("d = 2e-4", "d = 1e300")
     .replace("omega = 1e5", "omega = 0"),
     5, "error: slab-profile run left the float range"),
    ("junction-iv", SNS_BODY + "area = 1e300\n", 5,
     "error: junction-iv run left the float range"),
    ("comparator-curve", COMP_BODY + "b_stop = 1e308\n", 5,
     "error: comparator-curve run left the float range"),
    # an NIS current scale past the float range once wrote nan, and an
    # overflowing current inf, both with exit 0
    ("junction-iv", NIS_HUGE_BODY, 4,
     "bad.cfg:5: prefactor 1e+300 times delta 1e+100 J leaves the float "
     "range"),
    ("junction-iv", NIS_HUGE_BODY.replace("delta = 1e100", "delta = 1e5")
     .replace("v_stop = 1e90", "v_stop = 1e34"), 5,
     "error: junction-iv run left the float range"),
] + _loop_limit_rejections()


@pytest.mark.parametrize("kind,body,code,where", FLOAT_RANGE_REJECTIONS,
                         ids=["comparator-side", "device-radius",
                              "device-b_in", "device-full_scale",
                              "ideal-full_scale", "slab-d", "slab-b0",
                              "slab-omega", "super-slab-d", "sns-area",
                              "comparator-b_stop", "nis-scale",
                              "nis-current", "loop-sum",
                              "device-accumulator", "device-settle-margin"])
def test_cli_float_range_rejection(tmp_path, capsys, kind, body, code,
                                   where):
    cfg_path = _write(tmp_path, "bad.cfg", _scenario(kind, body))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", cfg_path, "--out", str(out)]) == code
    assert not out.exists()
    err = capsys.readouterr().err
    assert where in err and "RuntimeWarning" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_full_scale_tone_loads():
    cfg = parse_scenario(_scenario("modulator-run",
                                   MOD_TONE_BODY + "amplitude_dbfs = 0\n"))
    assert np.max(np.abs(cfg.spec[1])) == pytest.approx(1.0)


@pytest.mark.parametrize("kind,body,where", [
    ("device-sequence",
     DEVICE_BODY.replace("n_segments = 4", "n_segments = 8").replace(
         "schedule = doubling", "schedule = far.sched"),
     "bad.cfg:5: schedule 'far.sched' step 1 switches coil 9, "
     "outside 1..8"),
    ("modulator-run",
     MOD_DEVICE_DC_BODY.replace("n_segments = 4", "n_segments = 2")
     + "schedule = doubling\n",
     "bad.cfg:9: schedule 'doubling' step 3 switches coil 4, "
     "outside 1..2"),
])
def test_cli_schedule_outside_cylinder_exit_4(tmp_path, capsys, kind, body,
                                              where):
    _write(tmp_path, "far.sched", "ecoil * on\necoil 9 off\n")
    cfg_path = _write(tmp_path, "bad.cfg", _scenario(kind, body))
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 4
    assert not out.exists()
    assert where in capsys.readouterr().err


def test_trailing_comments_change_nothing(tmp_path):
    plain = _scenario("comparator-curve", COMP_BODY + "side = 200e-6\n")
    plain = plain.replace("seed = 0\n", "seed = 0\noutput_dir = outc\n")
    commented = "".join(line + "  # results go here\n" if line else "\n"
                        for line in plain.splitlines())
    outs = []
    for name, text in (("plain", plain), ("commented", commented)):
        cfg = parse_scenario(text)
        assert cfg.output_dir == "outc"
        assert [(e.key, e.value, e.line)
                for e in cfg.sections["comparator"].entries] == [
            ("points", "7", 7), ("side", "200e-6", 8)]
        outs.append(tmp_path / name)
        run_scenario(cfg, str(outs[-1]))
    for artifact in ("curve.csv", "report.txt"):
        assert (outs[0] / artifact).read_bytes() == \
            (outs[1] / artifact).read_bytes()


def test_cli_missing_schedule_file_exit_4(tmp_path, capsys):
    cfg_path = _write(tmp_path, "lost.cfg", _scenario(
        "device-sequence",
        DEVICE_BODY.replace("schedule = doubling", "schedule = nowhere.sched")))
    assert main(["--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 4
    assert "cannot read schedule" in capsys.readouterr().err


def test_cli_list_materials(capsys):
    assert main(["--list-materials"]) == 0
    out = capsys.readouterr().out
    assert "lead:" in out and "niobium:" in out


def test_cli_print_constants(capsys):
    assert main(["--print-constants"]) == 0
    out = capsys.readouterr().out
    assert "phi0 = 2.0678338484619295e-15" in out


def test_cli_seed_override(tmp_path, capsys):
    cfg_path = _write(tmp_path, "noise.cfg",
                      _scenario("noise-psd", NOISE_BODY))
    for seed, sub in ((1, "s1"), (1, "s1b"), (2, "s2")):
        main(["--config", cfg_path, "--seed", str(seed),
              "--out", str(tmp_path / sub)])
    a = (tmp_path / "s1" / "series.csv").read_bytes()
    assert a == (tmp_path / "s1b" / "series.csv").read_bytes()
    assert a != (tmp_path / "s2" / "series.csv").read_bytes()


def test_cli_seed_zero_is_taken(tmp_path, capsys):
    """--seed 0, the smallest seed, runs the config at seed 0; -1 is
    refused with argparse's exit 2."""
    for seed, sub in ((0, "config0"), (5, "flag0")):
        cfg_path = _write(tmp_path, f"{sub}.cfg",
                          _scenario("noise-psd", NOISE_BODY, seed=seed))
        flag = ["--seed", "0"] if seed else []
        assert main(["--config", cfg_path, "--out", str(tmp_path / sub)]
                    + flag) == 0
    assert ((tmp_path / "flag0" / "series.csv").read_bytes()
            == (tmp_path / "config0" / "series.csv").read_bytes())
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg_path, "--seed", "-1",
              "--out", str(tmp_path / "refused")])
    assert exc.value.code == 2
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("seed,flag,code,where", [
    (0, ["--seed", "-1"], 2, "--seed must be a non-negative integer"),
    (-1, [], 4, "bad.cfg:1: seed must be a non-negative integer"),
], ids=["flag", "config"])
def test_cli_negative_seed_rejected(tmp_path, capsys, seed, flag, code,
                                    where):
    cfg_path = _write(tmp_path, "bad.cfg",
                      _scenario("noise-psd", NOISE_BODY, seed=seed))
    out = tmp_path / "out"
    argv = ["--config", cfg_path, "--out", str(out)] + flag
    if code == 2:
        # argparse reports a bad option value and exits
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == code
    assert not out.exists()
    assert where in capsys.readouterr().err


def test_cli_batch_uses_subdirs(tmp_path, capsys):
    c1 = _write(tmp_path, "one.cfg", _scenario("comparator-curve", COMP_BODY))
    c2 = _write(tmp_path, "two.cfg", _scenario(
        "comparator-curve", COMP_BODY.replace("points = 7", "points = 9")))
    c3 = _write(tmp_path, "dev.cfg", _scenario("device-sequence", DEVICE_BODY))
    out = tmp_path / "batch"
    # several paths after one flag, and kinds mixed in one batch
    code = main(["--config", c1, "--config", c2, c3, "--out", str(out)])
    assert code == 0
    assert (out / "one" / "curve.csv").exists()
    assert (out / "two" / "curve.csv").exists()
    lines_two = (out / "two" / "curve.csv").read_text().splitlines()
    assert len(lines_two) == 10
    assert "gain = 2" in (out / "dev" / "report.txt").read_text()


def test_cli_batch_rejects_shared_file_stem(tmp_path, capsys):
    # both would write into DIR/x, the device's report over the curve's
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    c1 = _write(tmp_path / "a", "x.cfg",
                _scenario("comparator-curve", COMP_BODY))
    c2 = _write(tmp_path / "b", "x.cfg",
                _scenario("device-sequence", DEVICE_BODY))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", c1, c2, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"configs {c1} and {c2} both write to {out / 'x'}" in err
    # one config alone, or a batch without --out, has no subdirectories
    assert main(["--config", c1, "--out", str(out)]) == 0
    assert (out / "curve.csv").exists()


def test_cli_batch_rejects_configs_sharing_one_directory(
        tmp_path, capsys, monkeypatch):
    # without --out each config writes to its output_dir, so the 7-point
    # curve would overwrite the 5-point one's curve.csv and report.txt
    monkeypatch.chdir(tmp_path)

    def curve(name, points, output_dir=None):
        text = _scenario("comparator-curve",
                         COMP_BODY.replace("7", str(points)))
        if output_dir is not None:
            text = text.replace("seed = 0\n",
                                f"seed = 0\noutput_dir = {output_dir}\n")
        return _write(tmp_path, name, text)

    batches = [
        # neither sets output_dir: both write to the working directory
        ((curve("a.cfg", 5), curve("b.cfg", 7)), "."),
        # two spellings of one directory
        ((curve("c.cfg", 5, "shared"), curve("d.cfg", 7, "./x/../shared/")),
         "shared"),
    ]
    for (c1, c2), shared in batches:
        with pytest.raises(SystemExit) as exc:
            main(["--config", c1, c2])
        assert exc.value.code == 2
        target = os.path.normpath(os.path.join(os.getcwd(), shared))
        assert f"configs {c1} and {c2} both write to {target}" in \
            capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))
    # configs with their own directories still run as one batch
    assert main(["--config", curve("e.cfg", 5, "five"),
                 curve("f.cfg", 7, "seven")]) == 0
    assert len((tmp_path / "five" / "curve.csv").read_text().splitlines()) == 6
    assert len((tmp_path / "seven" / "curve.csv").read_text().splitlines()) == 8


def test_cli_runs_third_order_loop(tmp_path, capsys):
    # the lengths of a and c alone set the loop order
    body = ("[modulator]\nn = 1024\ndc = 0.25\na = 1.0,0.5,0.1\n"
            "c = 0.4,0.4,0.3\nstability_bound = 50\n")
    cfg_path = _write(tmp_path, "third.cfg", _scenario("modulator-run", body))
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 0
    trace = run_modulator(ModulatorConfig(a=(1.0, 0.5, 0.1),
                                          c=(0.4, 0.4, 0.3),
                                          stability_bound=50.0),
                          np.full(1024, 0.25))
    assert len(trace.state_peak) == 3
    lines = ["k,code"] + [f"{k},{code}"
                          for k, code in enumerate(trace.codes.tolist())]
    assert (out / "codes.csv").read_text() == "\n".join(lines) + "\n"
    report = (out / "report.txt").read_text()
    assert [line.split(" = ")[0] for line in report.splitlines()[-3:]] == [
        "state_peak_1", "state_peak_2", "state_peak_3"]


# ------------------------------------------------------ generated configs

# (kind, body, section edited, {key the kind reads: an out-of-band
# value}); keys absent from the body are optional ones, added
MUTABLE_CONFIGS = [
    ("slab-profile", SLAB_BODY, "slab", {
        "material": "iron", "regime": "plasma", "d": "-2e-4", "b0": "-1",
        "omega": "-1e5", "npoints": "2"}),
    ("slab-profile", SUPER_SLAB_BODY, "slab", {
        "d": "-2e-7", "b0": "1", "omega": "1e5", "npoints": "2", "t": "8"}),
    ("device-sequence", DEVICE_BODY, "device", {
        "radius": "-0.02", "n_segments": "5", "n_eff": "-4", "b_in": "1",
        "schedule": "nowhere.sched", "material": "iron"}),
    ("device-sequence", DEVICE_LEAD_BODY, "device",
     {"material": "iron", "t": "9", "b_in": "1"}),
    ("junction-iv", NIS_BODY, "junction", {
        "mode": "sis", "material": "iron", "t": "9", "z": "-1",
        "v_start": "5e-3", "v_stop": "-4e-3", "points": "1", "delta": "-1",
        "prefactor": "-1"}),
    ("junction-iv", SNS_BODY, "junction", {
        "mode": "nis", "material": "aluminum", "t": "9", "d": "-1e-7",
        "phi_points": "1", "area": "-1", "form": "4", "r_sheet": "-1"}),
    ("junction-iv", NIS_DELTA_BODY, "junction", {
        "delta": "-1", "material": "lead", "t": "9", "z": "-1",
        "prefactor": "-1", "points": "1"}),
    ("junction-iv", SNS_FORM3_BODY, "junction", {
        "r_sheet": "-1", "form": "1", "d": "-1e-7", "t": "9",
        "material": "aluminum", "area": "-1"}),
    ("noise-psd", NOISE_BODY, "noise", {
        "tau1": "3e4", "tau2": "1", "kprime": "-1", "n": "1000",
        "fs": "-1", "r0": "-1", "dof_coupled": "4", "method": "spectral"}),
    ("modulator-run", MOD_DC_BODY, "modulator", {
        "n": "1000", "dc": "1.5", "osr": "4", "a": "1,2,3,4,5",
        "c": "0.5", "fs": "-1", "full_scale": "-1",
        "stability_bound": "0.1", "side": "-1", "i_bias": "-1",
        "tone_cycles": "3"}),
    ("modulator-run", MOD_TONE_BODY, "modulator", {
        "n": "512", "tone_cycles": "5", "amplitude_dbfs": "3",
        "osr": "4"}),
    ("modulator-run", MOD_DEVICE_DC_BODY, "device", {
        "radius": "1e-9", "n_segments": "1", "n_eff": "-1",
        "schedule": "nowhere.sched"}),
    ("modulator-run", MOD_DC_BODY.replace("n = 1024", "n = 4096")
     + INPUT_NOISE_BODY, "input-noise", {
         "tau1": "3e4", "tau2": "1", "kprime": "-1"}),
    ("comparator-curve", COMP_BODY, "comparator", {
        "points": "1", "side": "-1", "i_bias": "-1", "b_start": "1",
        "b_stop": "-1"}),
]
SIZE_KEYS = {"n", "points", "npoints", "phi_points", "n_segments"}
DRAWS = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "abc"]
# a size key takes only small values, so that no run allocates much
SIZE_DRAWS = ["nan", "abc", "-1", "0", "1", "2", "3", "16"]


@st.composite
def _one_key_edit(draw):
    kind, body, section, keys = draw(st.sampled_from(MUTABLE_CONFIGS))
    key = draw(st.sampled_from(sorted(keys)))
    value = draw(st.sampled_from(
        (SIZE_DRAWS if key in SIZE_KEYS else DRAWS) + [keys[key]]))
    header = f"[{section}]\n"
    head, tail = body.split(header)
    line = re.compile(rf"^{key} = .*$", re.M)
    if line.search(tail):
        tail = line.sub(f"{key} = {value}", tail, count=1)
    else:
        tail = f"{key} = {value}\n" + tail
    return _scenario(kind, head + header + tail)


def _non_finite_fields(path):
    """Fields of a CSV or report.txt that parse as nan or inf."""
    found = []
    for field in re.split(r",|\n| = ", path.read_text()):
        try:
            if not math.isfinite(float(field)):
                found.append(field)
        except ValueError:
            pass
    return found


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(text=_one_key_edit())
def test_finite_config_edit_gives_finite_output_or_typed_exit(text):
    """One key of a small config set to a non-finite, extreme, malformed
    or out-of-band value: the run exits with a documented code, a load
    rejection names its line, a failed run writes nothing, and a
    successful one writes only finite numbers."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "edit.cfg")
        with open(cfg_path, "w") as f:
            f.write(text)
        out = pathlib.Path(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["--config", cfg_path, "--out", str(out)])
        assert code in (0, 2, 3, 4, 5), err.getvalue()
        if code == 4:
            assert re.search(re.escape(cfg_path) + r":\d+:", err.getvalue())
        if code != 0:
            assert not out.exists()
        else:
            for path in out.iterdir():
                assert _non_finite_fields(path) == [], path.name


# ---------------------------------------------------------- load limits

def _settle_fs(margin):
    """The clock (Hz) that puts GEOM8's settle_margin at margin."""
    return ModulatorConfig(geometry=GEOM8).settle_margin / margin


# the BCS Tc of an NIS gap of 2.17e-22 J
NIS_TC = 2.17e-22 / (BCS_GAP_RATIO * CODATA.kB)


# limit -> (build from one value, values just inside its ends, values
# just past them or nan, (kind, body) of a config past it); past the
# limit, build raises DomainError and the CLI exits 4
LOAD_LIMITS = {
    "settle-margin": (
        lambda fs: ModulatorConfig(geometry=GEOM8, fs=fs),
        [_settle_fs(1 + 1e-9), 1e-300], [_settle_fs(1 - 1e-9), 1e-301],
        ("modulator-run",
         MOD_DEVICE_DC_BODY.replace("dc = 0.25", "dc = 0.25\nfs = 1e-301"))),
    "flux-count": (
        lambda kwargs: ModulatorConfig(**kwargs),
        [dict(geometry=GEOM8, full_scale=1e-20),
         dict(geometry=GEOM8, full_scale=_full_scale_at_limit(GEOM8)
              * (1.0 - 1e-12), **ORDER1)],
        [dict(geometry=CylinderGeometry(radius=1e-100, n_segments=4,
                                        n_eff=4), full_scale=1e-300),
         dict(geometry=GEOM8, full_scale=_full_scale_at_limit(GEOM8)
              * (1.0 + 1e-12), **ORDER1)],
        ("modulator-run",
         MOD_DEVICE_DC_BODY.replace("dc = 0.25", "dc = 0.25\nfull_scale = "
                                    "1e-300").replace("radius = 0.02",
                                                      "radius = 1e-100"))),
    "nis-t": (
        lambda t: check_nis(JunctionConfig(delta=2.17e-22, T=t, d=0.0)),
        [NIS_TC * (1.0 - 1e-9)], [0.0, NIS_TC, math.nan],
        ("junction-iv", NIS_BODY.replace("t = 0.3128", "t = 0"))),
    "relaxation-times": (
        lambda taus: NoiseModel(R0=1.0, tau1=taus[0], tau2=taus[1],
                                kprime=1.0),
        [(1.0, 1.0 + 1e-9)], [(0.0, 1.0), (1.0, 1.0), (1.0, -1.0),
                              (math.nan, 1.0)],
        ("noise-psd", NOISE_BODY.replace("tau1 = 2\n", "tau1 = 2e4\n"))),
    # fs * tau2 is the value, exact since tau2 is a power of two
    "fs-tau2": (
        lambda x: check_synthesis_limits(
            NoiseModel(R0=1.0, tau1=1.0, tau2=2.0**14, kprime=1.0), 8192,
            x / 2.0**14),
        [10.0 * (1.0 + 1e-9)], [10.0, 0.0, -1.0, math.nan],
        ("noise-psd", NOISE_BODY.replace("fs = 1.0", "fs = -1"))),
}


@pytest.mark.parametrize("limit", list(LOAD_LIMITS))
def test_load_limit_ends(tmp_path, limit):
    """Each load limit accepts values just inside its ends, and rejects
    values just past them, and nan, with DomainError itself and exit 4
    through the CLI; the messages are not pinned here."""
    build, inside, past, (kind, body) = LOAD_LIMITS[limit]
    for value in inside:
        build(value)
    for value in past:
        with pytest.raises(DomainError) as err:
            build(value)
        assert err.type is DomainError, value
    cfg_path = _write(tmp_path, "bad.cfg", _scenario(kind, body))
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 4
    assert not out.exists()


def _keyed(kind, body, key):
    """A function of one value: (kind, body with key set to it)."""
    return lambda value: (kind, re.sub(rf"^{key} = .*$", f"{key} = {value!r}",
                                       body, flags=re.M))


def _run_body(kind, body):
    """Load and run one scenario through the library."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "end.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(_scenario(kind, body))
        run_scenario(load_scenario(cfg_path), os.path.join(tmp, "out"))


LEAD = get_material("lead")
LEAD_BC = critical_flux_density(LEAD, 4.2)
NORMAL_SLAB = SlabConfig(d=2e-4, material=LEAD, B0=1e-6, omega=1e5)
SUPER_SLAB = SlabConfig(d=2e-7, material=LEAD, B0=1e-3, omega=0.0, T=4.2)
# a first-order loop holds a full-scale DC input, where order 2 leaves
# its stability bound
MOD_ORDER1_DC_BODY = MOD_DC_BODY + "a = 1\nc = 1\n"

# Ends of checks that no other test reaches: the library call (for
# None, a load and run of the config) passes at each inside value and
# raises the error with its message at each past value; with a config,
# the CLI exits 0 at the first inside value and 4 at the first past one.
CHECK_ENDS = {
    "nis-sweep-order": (
        None, [math.nextafter(4e-3, 0.0)], [4e-3, 5e-3], ConfigError,
        "v_start must be below v_stop",
        _keyed("junction-iv", NIS_BODY, "v_start")),
    "nis-points": (
        None, [2], [1, 0], ConfigError, "points must be at least 2",
        _keyed("junction-iv", NIS_BODY, "points")),
    "sns-phi-points": (
        None, [2], [1, 0], ConfigError, "phi_points must be at least 2",
        _keyed("junction-iv", SNS_BODY, "phi_points")),
    "slab-npoints": (
        None, [3], [2, 1], ConfigError, "npoints must be at least 3 and odd",
        _keyed("slab-profile", SLAB_BODY, "npoints")),
    "comparator-points": (
        None, [2], [1, 0], ConfigError, "points must be at least 2",
        _keyed("comparator-curve", COMP_BODY, "points")),
    "modulator-dc": (
        None, [1.0, -1.0], [math.nextafter(1.0, 2.0),
                            -math.nextafter(1.0, 2.0)],
        ConfigError, "dc level must lie in [-1, 1]",
        _keyed("modulator-run", MOD_ORDER1_DC_BODY, "dc")),
    # lead's critical flux density at 4.2 K is the first past value
    "critical-field": (
        lambda b: check_superconducting(LEAD, 4.2, b, "b0"),
        [math.nextafter(LEAD_BC, 0.0), -math.nextafter(LEAD_BC, 0.0)],
        [LEAD_BC, -LEAD_BC, math.nan], PhaseViolationError,
        "is not below the critical flux density",
        _keyed("slab-profile", SUPER_SLAB_BODY, "b0")),
    # tau2 / tau1 = 10 exactly, so the band is log10(10) = 1.0 decade
    "flicker-decade": (
        lambda tau2: check_synthesis_limits(
            NoiseModel(R0=1.0, tau1=2.0, tau2=tau2, kprime=1.0), 8192, 1.0),
        [20.0], [math.nextafter(20.0, 0.0)], DomainError,
        "flicker band must span at least one decade",
        _keyed("noise-psd", NOISE_BODY, "tau2")),
    # no config reaches it: a modulator run has at least 16 samples
    "tone-samples": (
        lambda n: make_tone(n, 1, 0.5), [3], [1, 0], DomainError,
        "need at least two samples", None),
    # a negative side passes the later 0 < side**2 < inf
    "comparator-side": (
        lambda side: make_comparator(side, REFERENCE_I_BIAS),
        [REFERENCE_SIDE], [-REFERENCE_SIDE, math.nan], DomainError,
        "loop side must be positive",
        lambda side: ("comparator-curve", COMP_BODY + f"side = {side!r}\n")),
    # no config reaches it: a slab grid has at least 3 points
    "slab-grid": (
        lambda x: (normal_slab_profile(NORMAL_SLAB, x),
                   super_slab_profile(SUPER_SLAB, x)),
        [[0.0]], [[], np.zeros((1, 1)), np.zeros((2, 3))], DomainError,
        "x must be a non-empty 1-D grid", None),
}


@pytest.mark.parametrize("check", list(CHECK_ENDS))
def test_check_ends(tmp_path, capsys, check):
    call, inside, past, error, message, config = CHECK_ENDS[check]
    if call is None:
        def call(value):
            _run_body(*config(value))
    for value in inside:
        call(value)
    for value in past:
        with pytest.raises(error, match=re.escape(message)):
            call(value)
    if config is None:
        return
    for value, code in ((inside[0], 0), (past[0], 4)):
        cfg_path = _write(tmp_path, "end.cfg", _scenario(*config(value)))
        out = tmp_path / f"out{code}"
        assert main(["--config", cfg_path, "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert message in capsys.readouterr().err
