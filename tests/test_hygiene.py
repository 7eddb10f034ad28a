"""Source hygiene: every name a module imports is used in it, the
physics reads the fixed constants instead of taking them as arguments,
numpy alone decides what a scalar input returns, every dataclass
field is read somewhere, README's command lines parse, and scipy loads
only where NIS quadrature and the CN oracle run."""

import ast
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import fluxdsm
from fluxdsm.cli import _build_parser

MODULES = sorted(pathlib.Path(fluxdsm.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def _constant_overrides(tree):
    """Functions with a `constants` parameter or a default reading CODATA."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        defaults = args.defaults + [d for d in args.kw_defaults if d]
        if any(a.arg == "constants" for a in params) or any(
                isinstance(n, ast.Name) and n.id == "CODATA"
                for d in defaults for n in ast.walk(d)):
            found.append((node.lineno, node.name))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_constants_override(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _constant_overrides(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_made_scalar_unwrapping(path):
    """numpy decides what a scalar input returns: functions take
    np.asarray(x) and return out[()], never np.isscalar or
    np.atleast_1d with an unwrap of their own."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert names & {"isscalar", "atleast_1d"} == set()


README = ROOT / "README.md"


def _readme_names():
    """Identifiers that appear inside backticks in README.md."""
    text = README.read_text(encoding="utf-8")
    return {name for span in re.findall(r"`([^`\n]+)`", text)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def _referenced_names():
    """Names read by some module of the package, apart from the
    re-exports of __init__.py."""
    names = set()
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_public_names_used_or_documented():
    referenced = _referenced_names()
    documented = _readme_names()
    orphans = [f"{path.stem}.{name}" for path in MODULES
               for name in _public_definitions(path)
               if name not in referenced and name not in documented]
    assert orphans == []


def _readme_commands():
    """The arguments of every `fluxdsm ...` line in README's sh blocks."""
    text = README.read_text(encoding="utf-8")
    return [shlex.split(line)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
            for line in block.splitlines() if line.startswith("fluxdsm ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert commands
    parser = _build_parser()
    for argv in commands:
        # argparse exits on an option the command line no longer takes
        args = parser.parse_args(argv)
        for pattern in args.config or ():
            assert sorted(ROOT.glob(pattern)), f"{pattern} names no file"


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def _dataclass_fields(path):
    """(qualified name, field) for each field of the module's dataclasses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(f"{path.stem}.{node.name}.{stmt.target.id}", stmt.target.id)
            for node in tree.body if isinstance(node, ast.ClassDef)
            and any(_is_dataclass(d) for d in node.decorator_list)
            for stmt in node.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


def _attributes_read():
    """Attribute names loaded anywhere in the package, tests, scripts
    or benchmark."""
    names = set()
    for folder in ("src/fluxdsm", "tests", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            names |= {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load)}
    return names


def test_dataclass_fields_are_read():
    read = _attributes_read()
    unread = [qualified for path in MODULES
              for qualified, name in _dataclass_fields(path)
              if name not in read]
    assert unread == []


def _scipy_imports(tree):
    """(line, module) of each scipy import at module level, and of
    each scipy.signal import anywhere."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            top = module.split(".")[0] == "scipy"
            if top and (node in tree.body or module.startswith("scipy.signal")):
                found.append((node.lineno, module))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_imported_only_inside_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _scipy_imports(tree) == []


# every shipped config of a kind that runs without scipy: all but the
# NIS junction, whose quadrature is scipy's
COLD_CONFIGS = sorted(str(p) for p in (ROOT / "scenarios").glob("*.cfg")
                      if p.name != "junction_nis_lead.cfg")

COLD_RUN = """
import sys
from fluxdsm import cli
code = cli.main(sys.argv[1:])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"exit code {code}, {len(scipy)} scipy modules: {scipy[:3]}"
         if code or scipy else 0)
"""


def test_cli_runs_without_loading_scipy(tmp_path):
    """A fresh interpreter runs the comparator, device, slab, sns
    junction, noise and modulator configs and never imports scipy."""
    assert {pathlib.Path(p).stem.split("_")[0] for p in COLD_CONFIGS} == {
        "comparator", "device", "junction", "modulator", "noise", "slab"}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_RUN, "--config", *COLD_CONFIGS,
         "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
