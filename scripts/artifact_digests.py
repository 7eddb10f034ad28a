#!/usr/bin/env python3
"""SHA-256 of every artifact that the shipped configs write.

Runs every config of scenarios/ and perfbench/inputs/ in process,
through load_scenario and run_scenario, at the config's own seed and at
seed 7, each into its own directory under a temporary one, and prints
one "sha256  path" line per artifact, sorted by path, the path relative
to that directory. perfbench/inputs/ is only read. The package is
imported from this checkout's src/, so each checkout digests its own
code, and two write the same bytes where their lists are equal:

    python3 scripts/artifact_digests.py > a.txt    # in one checkout
    python3 scripts/artifact_digests.py > b.txt    # in the other
    diff a.txt b.txt
"""

import dataclasses
import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fluxdsm.scenario import load_scenario, run_scenario  # noqa: E402

CONFIG_DIRS = ("scenarios", "perfbench/inputs")
# None runs a config at its own seed
SEEDS = (None, 7)


def artifact_digests(out_dir: pathlib.Path) -> list:
    """(path, sha256) of every artifact, its path relative to out_dir,
    where the runs write under out_dir/seed-<config|n>/<dir>/<stem>."""
    found = []
    for seed in SEEDS:
        for folder in CONFIG_DIRS:
            for path in sorted((ROOT / folder).glob("*.cfg")):
                cfg = load_scenario(str(path))
                if seed is not None:
                    cfg = dataclasses.replace(cfg, seed=seed)
                label = "config" if seed is None else seed
                run_dir = out_dir / f"seed-{label}" / folder / path.stem
                for artifact in run_scenario(cfg, str(run_dir)):
                    artifact = pathlib.Path(artifact)
                    found.append((artifact.relative_to(out_dir).as_posix(),
                                  hashlib.sha256(
                                      artifact.read_bytes()).hexdigest()))
    return sorted(found)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for path, digest in artifact_digests(pathlib.Path(tmp)):
            print(f"{digest}  {path}")


if __name__ == "__main__":
    main()
