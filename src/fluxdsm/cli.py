"""Command line front end.

Runs the scenario configs that --config names, in one batch whose
configs may differ in kind: each config's `kind` picks its runner.
Exit codes separate the failure classes so batch drivers can triage
without parsing stderr:

    0  success
    2  usage or config syntax error (argparse errors, no --config, a
       batch whose configs resolve to one output directory, a config
       file that cannot be read, malformed config text)
    3  unknown config key
    4  config invariant violation
    5  runtime domain or device error
"""

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .constants import CODATA
from .errors import FluxDsmError
from .materials import BUILTIN_MATERIALS
from .scenario import load_scenario, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxdsm",
        description="flux-trapping delta-sigma simulator batch runner")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--list-materials", action="store_true",
                        help="print the built-in material table and exit")
    parser.add_argument("--print-constants", action="store_true",
                        help="print the physical constants in use and exit")
    parser.add_argument("--config", action="extend", nargs="+",
                        metavar="PATH", help="scenario config files; "
                        "their kinds may differ (repeatable)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory of a single config; a "
                        "batch writes each config to DIR/<file stem> "
                        "(default: each config's output_dir, relative to "
                        "the working directory)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    return parser


def _list_materials() -> None:
    for name in sorted(BUILTIN_MATERIALS):
        m = BUILTIN_MATERIALS[name]
        print(f"{name}: kind={m.kind} Tc={m.Tc!r} K "
              f"lambda_l={m.lambda_l!r} m delta={m.delta!r} J")


def _print_constants() -> None:
    for key in ("h", "e", "mu0", "kB", "hbar", "phi0"):
        print(f"{key} = {getattr(CODATA, key)!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.list_materials:
        _list_materials()
        return 0
    if args.print_constants:
        _print_constants()
        return 0
    if not args.config:
        parser.print_usage(sys.stderr)
        return 2
    try:
        # every config of a batch is checked before any of them runs
        cfgs = [load_scenario(path) for path in args.config]
        # and no two of them write into one directory: --out for one
        # config, --out/<file stem> for each of a batch, else output_dir
        out_dirs, writers = [], {}
        for path, cfg in zip(args.config, cfgs):
            if args.out is None:
                out_dirs.append(cfg.output_dir)
            elif len(cfgs) == 1:
                out_dirs.append(args.out)
            else:
                stem = os.path.splitext(os.path.basename(path))[0]
                out_dirs.append(os.path.join(args.out, stem))
            target = os.path.normpath(os.path.abspath(out_dirs[-1]))
            if target in writers:
                parser.error(f"configs {writers[target]} and {path} both "
                             f"write to {target}, so the second would "
                             "overwrite the first's artifacts")
            writers[target] = path
        for cfg, out_dir in zip(cfgs, out_dirs):
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed)
            for artifact in run_scenario(cfg, out_dir):
                print(artifact)
    except FluxDsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
