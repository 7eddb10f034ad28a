#!/usr/bin/env python3
"""Run every shipped scenario config into results/.

Usage: python scripts/run_all_scenarios.py [--out DIR]
"""

import argparse
import pathlib
import sys
import time

from fluxdsm.scenario import load_scenario, run_scenario


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="results")
    args = parser.parse_args()
    root = pathlib.Path(__file__).resolve().parent.parent
    configs = sorted((root / "scenarios").glob("*.cfg"))
    if not configs:
        print("no scenario configs found", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    for path in configs:
        start = time.perf_counter()
        cfg = load_scenario(str(path))
        out_dir = pathlib.Path(args.out) / path.stem
        written = run_scenario(cfg, str(out_dir))
        print(f"{path.name}: {len(written)} artifacts in "
              f"{time.perf_counter() - start:.2f} s -> {out_dir}", flush=True)
    print(f"total {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
