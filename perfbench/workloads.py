"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload is a list of items. An item is one unit of user work
that the benchmark times from outside the program: one scenario config
from load_scenario to its last artifact, or one modulator run through
its SNDR or DC check. Every item knows how to digest its outputs (for
the byte-identical-between-passes check) and how to check them against
the reference recorded in reference.json.

Calls into fluxdsm go through module attributes (scenario.run_scenario,
modulator.run_modulator, ...) so that the tracer's patches apply.
"""

import dataclasses
import hashlib
import math
import os
import random
from pathlib import Path

import numpy as np

from fluxdsm import modulator, scenario
from fluxdsm.constants import CODATA
from fluxdsm.fluxtrap import CylinderGeometry
from fluxdsm.noise import NoiseModel

INPUTS = Path(__file__).resolve().parent / "inputs"

# Relative tolerance for floats compared with the reference. ROADMAP
# item 2 may move NIS currents by up to 1e-12 of I_max; this leaves
# room for that and for reordered sums, and still catches a wrong
# formula or a dropped term.
FLOAT_RTOL = 1e-9
# A seeded flicker series' sample variance over its expected
# kprime * ln(tau2 / tau1) / 4 must fall in this range.
NOISE_VARIANCE_RANGE = (0.5, 1.5)
# The reference holds, per tone, the range of SNDR minus the level
# offset over a grid of offsets (and of noise seeds for input-noise
# runs). With 2^14 samples and few in-band bins, SNDR above 100 dB
# swings by several dB with the offset, so only a loss of SNDR is
# checked: a run may fall below that range by at most this many dB.
SNDR_MARGIN_DB = 3.0
# DC tracking error bound, as in the acceptance check c06.
DC_TRACKING_TOL = 1e-3
# Leading samples of every noiseless modulator run compared code by
# code with the loop written out in this file.
ORACLE_SAMPLES = 512


def sha256(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# ------------------------------------------------------------ summaries

def _typed(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _column(values):
    try:
        [int(v) for v in values]
        return {"kind": "int", "sha256": sha256("\n".join(values).encode())}
    except ValueError:
        pass
    try:
        floats = [float(v) for v in values]
    except ValueError:
        return {"kind": "text", "sha256": sha256("\n".join(values).encode())}
    return {"kind": "float", "sum": math.fsum(floats),
            "abs": math.fsum(abs(f) for f in floats)}


def summarize(paths, skip=()):
    """Reduce artifacts to what the reference keeps: report values, and
    per CSV its row count and per column an exact digest (integer and
    text columns) or a sum and absolute sum (float columns). Entries
    named in skip ('report:<key>' or '<file>:<column>') are left out."""
    out = {"report": {}, "files": {}}
    for path in paths:
        base = os.path.basename(path)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if base == "report.txt":
            for line in lines:
                key, _, value = line.partition(" = ")
                if f"report:{key}" not in skip:
                    out["report"][key] = _typed(value)
            continue
        header = lines[0].split(",")
        columns = list(zip(*(line.split(",") for line in lines[1:])))
        out["files"][base] = {
            "rows": len(lines) - 1,
            "columns": {name: _column(values)
                        for name, values in zip(header, columns)
                        if f"{base}:{name}" not in skip}}
    return out


def _close(value, ref, scale):
    return abs(value - ref) <= FLOAT_RTOL * scale


def compare(summary, ref):
    """Problems found comparing a summary with its reference. Keys the
    reference lacks are allowed, so a later report line is no failure."""
    problems = []
    for key, want in ref["report"].items():
        got = summary["report"].get(key)
        if isinstance(want, float) and isinstance(got, (int, float)):
            ok = _close(got, want, abs(want))
        else:
            ok = got == want and type(got) is type(want)
        if not ok:
            problems.append(f"report {key} = {got!r}, reference {want!r}")
    for base, want in ref["files"].items():
        got = summary["files"].get(base)
        if got is None:
            problems.append(f"{base} missing")
            continue
        if got["rows"] != want["rows"]:
            problems.append(f"{base}: {got['rows']} rows, "
                            f"reference {want['rows']}")
        for name, col in want["columns"].items():
            have = got["columns"].get(name)
            if have is None or have["kind"] != col["kind"]:
                ok = False
            elif col["kind"] == "float":
                ok = (_close(have["sum"], col["sum"], col["abs"])
                      and _close(have["abs"], col["abs"], col["abs"]))
            else:
                ok = have == col
            if not ok:
                problems.append(f"{base} column {name} differs from the "
                                f"reference")
    return problems


# ---------------------------------------------------------------- items

class ScenarioItem:
    """One config file through load_scenario -> run_scenario."""

    def __init__(self, name, path, out_dir, ref_key, seed=None, skip=(),
                 expect=None):
        self.name = name
        self.path = path
        self.out_dir = out_dir
        self.ref_key = ref_key
        self.seed = seed
        self.skip = ("report:seed",) + tuple(skip)
        self.expect = expect or {}

    def run(self):
        cfg = scenario.load_scenario(self.path)
        if self.seed is not None:
            # what the CLI's --seed does
            cfg = dataclasses.replace(cfg, seed=self.seed)
        return scenario.run_scenario(cfg, self.out_dir)

    def digest(self, paths):
        h = hashlib.sha256()
        for path in paths:
            h.update(os.path.basename(path).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def check(self, paths, reference):
        section, key = self.ref_key
        ref = reference[section].get(key)
        if ref is None:
            return [f"no reference for {key}"]
        problems = compare(summarize(paths, self.skip), ref)
        report = summarize([p for p in paths
                            if os.path.basename(p) == "report.txt"])["report"]
        if self.seed is not None and report.get("seed") != self.seed:
            problems.append(f"report seed {report.get('seed')!r}, "
                            f"run seed {self.seed}")
        if "variance" in self.expect:
            ratio = report["series_variance"] / self.expect["variance"]
            lo, hi = NOISE_VARIANCE_RANGE
            if not lo <= ratio <= hi:
                problems.append(f"series variance {ratio:.3f} x expected")
        return problems


def reference_codes(cfg, u, count):
    """The order-2 loop of modulator.run_modulator written out for the
    first count samples, without input noise, as an oracle: returns the
    codes and the number of saturated samples."""
    comp = cfg.comparator
    hr = comp.n_levels // 2
    fsf = cfg.full_scale if cfg.full_scale else hr * comp.b_lsb
    lsb = comp.b_lsb / fsf
    (a1, a2), (c1, c2) = cfg.a, cfg.c
    device = cfg.backend == "flux-device"
    if device:
        gain = cfg.geometry.n_segments // 2
        qpu = fsf * math.pi * cfg.geometry.radius ** 2 / CODATA.phi0
    x1 = x2 = err = 0.0
    acc = saturations = 0
    codes = []
    for k in range(count):
        if device:
            acc += gain * round(err * qpu)
            x1 = acc * (c1 / gain) / qpu
        else:
            x1 = x1 + c1 * err
        x2 = x2 + c2 * x1
        raw = round((a1 * x1 + a2 * x2) / lsb)
        code = max(-hr, min(hr, raw))
        saturations += code != raw
        codes.append(code)
        err = float(u[k]) - code * lsb
    return codes, saturations


class LoopItem:
    """One modulator run through its SNDR (tone) or DC check."""

    def __init__(self, name, cfg, u, cycles=None, dc=None, ref_key=None,
                 offset_db=0.0):
        self.name = name
        self.cfg = cfg
        self.u = u
        self.cycles = cycles
        self.dc = dc
        self.ref_key = ref_key
        self.offset_db = offset_db

    def run(self):
        trace = modulator.run_modulator(self.cfg, self.u)
        if self.cycles is not None:
            return trace, modulator.sndr_db(trace, self.cycles)
        return trace, modulator.dc_tracking_mean(trace)

    def digest(self, out):
        trace, value = out
        return sha256(trace.codes.tobytes(), repr(value).encode())

    def check(self, out, reference):
        trace, value = out
        problems = []
        if self.cfg.backend == "flux-device":
            gain = self.cfg.geometry.n_segments // 2
            if trace.device_gain != gain:
                problems.append(f"device gain {trace.device_gain}, "
                                f"expected {gain}")
        if self.dc is not None:
            if not abs(value - self.dc) < DC_TRACKING_TOL:
                problems.append(f"DC tracking error {abs(value - self.dc)}")
        else:
            ref = reference["loop_sweep"].get(self.ref_key)
            if ref is None:
                problems.append(f"no reference for {self.ref_key}")
            else:
                lo = ref[0] + self.offset_db
                if not value >= lo - SNDR_MARGIN_DB:
                    problems.append(f"SNDR {value:.2f} dB, below the "
                                    f"recorded {lo:.2f} dB")
        saturations = 0
        if self.cfg.input_noise is None:
            # a DC step saturates only while the loop settles
            codes, saturations = reference_codes(self.cfg, self.u,
                                                 ORACLE_SAMPLES)
            if trace.codes[:ORACLE_SAMPLES].tolist() != codes:
                problems.append("codes differ from the oracle loop")
        if trace.saturation_count != saturations:
            problems.append(f"{trace.saturation_count} saturations, "
                            f"expected {saturations}")
        return problems


# ------------------------------------------------------------ scenarios

def build_scenarios(seed, tmp, quick=False):
    """The shipped configs pinned in inputs/, with the seed as the
    --seed override. Only noise_flicker's series depends on the seed."""
    items = []
    for path in sorted(INPUTS.glob("*.cfg")):
        skip, expect = (), None
        if path.stem == "noise_flicker":
            skip = ("series.csv:value", "psd.csv:s_measured",
                    "report:series_variance")
            expect = {"variance": math.log(2e4 / 2.0) / 4.0}
        items.append(ScenarioItem(path.stem, str(path),
                                  os.path.join(tmp, path.stem),
                                  ("scenarios", path.stem), seed=seed,
                                  skip=skip, expect=expect))
    warmup = next(i for i in items if i.name == "comparator_curve")
    return items, warmup


# ----------------------------------------------------------- loop_sweep

LOOP_N = 2 ** 14
LOOP_OSRS = (32, 64, 128, 256)
LOOP_LEVELS_DB = (-60, -40, -20, -6, -1)
LOOP_BACKENDS = ("ideal", "flux-device")
NOISE_KPRIME = 1e-9
NOISE_OSR = 64
NOISE_LEVEL_DB = -20


def tone_cycles(osr):
    return LOOP_N // (4 * osr) + 1


def tone(cycles, level_db):
    k = np.arange(LOOP_N)
    return 10.0 ** (level_db / 20.0) * np.sin(2.0 * math.pi * cycles * k
                                              / LOOP_N)


def modulator_config(osr, backend, n_segments=8, input_noise=None):
    geometry = (CylinderGeometry(radius=0.02, n_segments=n_segments,
                                 n_eff=4.0)
                if backend == "flux-device" else None)
    return modulator.ModulatorConfig(osr=osr, backend=backend,
                                     geometry=geometry,
                                     input_noise=input_noise)


def loop_key(osr, level_db, backend, noise=False):
    return f"{'noise-' if noise else ''}osr{osr}-{level_db}dB-{backend}"


def build_loop_sweep(seed, tmp=None, quick=False):
    """A dynamic-range sweep, OSR x tone level x backend, plus DC
    tracking and input-noise runs, all LOOP_N samples long. The seed
    sets each tone's level offset (0 to -1 dB), each flux device's
    segment count, the DC levels, the noise seeds and the order."""
    rng = random.Random(seed)
    osrs = (64,) if quick else LOOP_OSRS
    levels = (-20, -1) if quick else LOOP_LEVELS_DB
    items = []
    for osr in osrs:
        for level in levels:
            for backend in LOOP_BACKENDS:
                offset = rng.uniform(-1.0, 0.0)
                cfg = modulator_config(osr, backend,
                                       rng.choice((4, 8, 16)))
                items.append(LoopItem(
                    f"tone-{loop_key(osr, level, backend)}", cfg,
                    tone(tone_cycles(osr), level + offset),
                    cycles=tone_cycles(osr),
                    ref_key=loop_key(osr, level, backend),
                    offset_db=offset))
    for backend in LOOP_BACKENDS:
        for i in range(1 if quick else 2):
            dc = rng.uniform(-0.7, 0.7)
            items.append(LoopItem(f"dc{i}-{backend}",
                                  modulator_config(128, backend),
                                  np.full(LOOP_N, dc), dc=dc))
            noise = NoiseModel(R0=1.0, tau1=2.0, tau2=2e4,
                               kprime=NOISE_KPRIME,
                               seed=rng.randrange(2 ** 31))
            key = loop_key(NOISE_OSR, NOISE_LEVEL_DB, backend, noise=True)
            items.append(LoopItem(
                f"{key}-{i}",
                modulator_config(NOISE_OSR, backend, input_noise=noise),
                tone(tone_cycles(NOISE_OSR), NOISE_LEVEL_DB),
                cycles=tone_cycles(NOISE_OSR), ref_key=key))
    rng.shuffle(items)
    warmup = LoopItem("warmup", modulator_config(64, "ideal"),
                      tone(tone_cycles(64), -6.0), cycles=tone_cycles(64),
                      ref_key=loop_key(64, -6, "ideal"))
    return items, warmup


WORKLOADS = {
    "scenarios": build_scenarios,
    "loop_sweep": build_loop_sweep,
}
