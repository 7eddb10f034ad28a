#!/usr/bin/env python3
"""SNDR vs oversampling ratio and vs input level for the default
order-2 loop.

Each doubling of OSR should buy about (2L+1)*3.01 = 15 dB; the first
table prints simulated SNDR next to the ideal-loop formula so the gap
is visible, with a -1 dBFS coherent tone throughout. The second table
is the dynamic-range sweep at OSR 128: SNDR against the tone level
from -80 to 0 dBFS, then the peak SNDR and the level it occurs at.
"""

from fluxdsm.modulator import (ModulatorConfig, run_modulator, sndr_db,
                               test_tone, theoretical_sqnr)

N = 2 ** 16
BITS = 9.0
DR_OSR = 128


def _tone_sndr(cfg: ModulatorConfig, level_dbfs: float) -> float:
    cycles = max(1, N // (4 * cfg.osr) + 1)
    # run_modulator input is normalized: 1.0 is full scale
    amp = 10 ** (level_dbfs / 20)
    trace = run_modulator(cfg, test_tone(N, cycles, amp))
    return sndr_db(trace, cycles)


def main() -> None:
    print(f"{'osr':>5} {'sim SNDR dB':>12} {'theory dB':>10} {'gap':>7}")
    for osr in (8, 16, 32, 64, 128, 256):
        sim = _tone_sndr(ModulatorConfig(osr=osr), -1.0)
        theory = theoretical_sqnr(2, osr, BITS)
        print(f"{osr:>5} {sim:>12.2f} {theory:>10.2f} {sim - theory:>7.2f}")

    print()
    print(f"dynamic range at osr {DR_OSR}, {N} samples")
    print(f"{'dBFS':>5} {'sim SNDR dB':>12}")
    cfg = ModulatorConfig(osr=DR_OSR)
    sweep = [(level, _tone_sndr(cfg, level)) for level in range(-80, 1, 5)]
    for level, sim in sweep:
        print(f"{level:>5} {sim:>12.2f}")
    level, peak = max(sweep, key=lambda row: row[1])
    print(f"peak SNDR {peak:.2f} dB at {level} dBFS")


if __name__ == "__main__":
    main()
