"""Command line front end.

One subcommand per scenario kind, named after the kind's config
section; each takes one or more --config files, an output directory,
and an optional seed override. Exit codes separate the failure classes
so batch drivers can triage without parsing stderr:

    0  success
    2  usage or config syntax error (wrong subcommand for the
       config's kind, argparse errors, a config file that cannot be
       read, malformed config text)
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
from .errors import FluxDsmError, UsageError
from .materials import BUILTIN_MATERIALS
from .scenario import KIND_SECTIONS, load_scenario, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxdsm",
        description="flux-trapping delta-sigma simulator batch runner")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--list-materials", action="store_true",
                        help="print the built-in material table and exit")
    parser.add_argument("--print-constants", action="store_true",
                        help="print the physical constants in use and exit")
    sub = parser.add_subparsers(dest="command")
    for kind, name in KIND_SECTIONS.items():
        p = sub.add_parser(name, help=f"run {kind} scenarios")
        p.set_defaults(kind=kind)
        p.add_argument("--config", action="append", required=True,
                       metavar="PATH", help="scenario config file "
                       "(repeat to batch several)")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: config's "
                       "output_dir, relative to the working directory)")
        p.add_argument("--seed", type=int, default=None,
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


def _load(path, kind, seed):
    cfg = load_scenario(path)
    if cfg.kind != kind:
        raise UsageError(f"{path}: config declares kind '{cfg.kind}', "
                         f"not '{kind}'")
    return cfg if seed is None else replace(cfg, seed=seed)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_materials:
        _list_materials()
        return 0
    if args.print_constants:
        _print_constants()
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        # every config of a batch is checked before any of them runs
        cfgs = [_load(path, args.kind, args.seed) for path in args.config]
        for path, cfg in zip(args.config, cfgs):
            out_dir = args.out
            if out_dir is not None and len(cfgs) > 1:
                # keep batched configs from clobbering each other's artifacts
                stem = os.path.splitext(os.path.basename(path))[0]
                out_dir = os.path.join(out_dir, stem)
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
