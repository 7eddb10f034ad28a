#!/usr/bin/env python3
"""Record perfbench/reference.json from the code in this checkout.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py

Run it only when outputs are meant to change; the benchmark compares
every later commit's outputs with this file. It records every scenario
config and, per loop_sweep tone, the range of its SNDR over the level
offsets and device sizes the seed can pick. It takes a few minutes.
"""

import json
import sys
import tempfile

import run

run.import_program()
import workloads as w  # noqa: E402

# the grids over which loop_sweep's SNDR ranges are recorded
OFFSETS_DB = [-i / 20.0 for i in range(21)]
SEGMENTS = {"ideal": (8,), "flux-device": (4, 8, 16)}
NOISE_SEEDS = range(25)


def record(item):
    return w.summarize(item.run(), item.skip)


def main():
    ref = {"scenarios": {}, "loop_sweep": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT,
                                     prefix=".perfbench-") as tmp:
        items, _ = w.build_scenarios(0, tmp)
        for item in items:
            ref["scenarios"][item.name] = record(item)
    for osr in w.LOOP_OSRS:
        cycles = w.tone_cycles(osr)
        for level in w.LOOP_LEVELS_DB:
            for backend in w.LOOP_BACKENDS:
                values = []
                for offset in OFFSETS_DB:
                    for segments in SEGMENTS[backend]:
                        item = w.LoopItem("", w.modulator_config(
                            osr, backend, segments),
                            w.tone(cycles, level + offset), cycles=cycles)
                        values.append(item.run()[1] - offset)
                ref["loop_sweep"][w.loop_key(osr, level, backend)] = [
                    min(values), max(values)]
    cycles = w.tone_cycles(w.NOISE_OSR)
    for backend in w.LOOP_BACKENDS:
        values = []
        for seed in NOISE_SEEDS:
            noise = w.NoiseModel(R0=1.0, tau1=2.0, tau2=2e4,
                                 kprime=w.NOISE_KPRIME, seed=seed)
            item = w.LoopItem("", w.modulator_config(
                w.NOISE_OSR, backend, input_noise=noise),
                w.tone(cycles, w.NOISE_LEVEL_DB), cycles=cycles)
            values.append(item.run()[1])
        key = w.loop_key(w.NOISE_OSR, w.NOISE_LEVEL_DB, backend, noise=True)
        ref["loop_sweep"][key] = [min(values), max(values)]
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
