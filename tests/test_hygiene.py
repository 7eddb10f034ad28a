"""Source hygiene: every name a module imports is used in it, the
physics reads the fixed constants instead of taking them as arguments,
numpy alone decides what a scalar input returns, every dataclass
field is read somewhere, every public function and class is read by
the package, a script, the benchmark or an acceptance check (a pinned
few excepted, each read by a unit test and listed in README), every
name README's Library API list gives exists, every public method is
read by the package or named in
README, so is every config key a builder reads, README's
command lines parse and its Python blocks run, scipy loads only where
the CN oracle runs, the runtime dependencies are the packages imported
at module level, no module warns: a failure leaves as a typed
FluxDsmError, and each generated modulator loop calls no round(),
compiles no chained comparison, compares nothing in a sample but the
clipping loop's clamp, divides a sample only by a constant other than
1.0, which leaves the default ideal loop no multiply and no divide,
and stores a block's codes with one packed store, and README tables
every report key of every kind."""

import ast
import dis
import importlib
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import numpy as np

import fluxdsm
from fluxdsm import modulator
from fluxdsm.cli import _build_parser
from fluxdsm.fluxtrap import CylinderGeometry
from fluxdsm.modulator import ModulatorConfig, _compiled_loop, run_modulator

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


def _warnings_imports(tree):
    """(line, module) of each import of the warnings module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m == "warnings"]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_warnings_channel(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _warnings_imports(tree) == []


def _constant_names(order, device):
    """The constants that the (order, device) loop takes, each of which
    it leaves out where it is exactly 1.0: its parameters after u,
    codes and state."""
    code = _compiled_loop(order, device, (), False).__code__
    return code.co_varnames[3:code.co_argcount]


def _unit_sets(order, device):
    """Sets of constants to leave out: none and all, so that each
    constant's multiply or divide is in one loop and left out of the
    other, and at order 2, the default's, all but each one in turn."""
    names = _constant_names(order, device)
    sets = [(), names]
    if order == 2:
        sets += [tuple(n for n in names if n != kept) for kept in names]
    return sets


# loops that _compiled_loop builds, as (order, device, units, clip),
# units the constants it leaves out and clip whether it clamps
LOOP_VARIANTS = [(order, device, units, clip)
                 for order in (1, 2, 3, 4) for device in (False, True)
                 for units in _unit_sets(order, device)
                 for clip in (False, True)]


def _variant_id(variant):
    order, device, units, clip = variant
    kept = [n for n in _constant_names(order, device) if n not in units]
    unit = ("no-unit" if not units else "all-unit" if not kept
            else f"all-unit-but-{kept[0]}")
    return (f"order{order}-{'flux-device' if device else 'ideal'}-{unit}"
            f"{'-clipping' if clip else ''}")


def _code_objects(code):
    """code and every code object nested in it; the loop defines no
    function of its own, so this is the loop alone until one does."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_consts"):
            yield from _code_objects(const)


@pytest.mark.parametrize("variant", LOOP_VARIANTS, ids=_variant_id)
def test_modulator_loop_calls_no_round(variant):
    """The loop rounds by adding and subtracting a float constant;
    round() would cost a builtin call and an int per sample. Every
    name the compiled loop loads is in its co_names, so a call to
    round() in the generated source would show there."""
    for code in _code_objects(_compiled_loop(*variant).__code__):
        assert "round" not in code.co_names


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="SWAP is a CPython 3.11 opcode")
@pytest.mark.parametrize("variant", LOOP_VARIANTS, ids=_variant_id)
def test_modulator_loop_chains_no_comparison(variant):
    """A chained a <= b <= c compiles to a SWAP and a COPY that the
    loop would pay per sample; the clipping loop's clamp is two
    comparisons, not a chain, and nothing else in the generated source
    needs a SWAP."""
    ops = [ins.opname
           for code in _code_objects(_compiled_loop(*variant).__code__)
           for ins in dis.get_instructions(code)]
    assert "SWAP" not in ops


def _loop_body(ins, for_iter):
    """The instructions of the loop that for_iter starts, after the
    stores of its target."""
    body = [x for x in ins if for_iter.offset < x.offset < for_iter.argval]
    assert body[0].opname == "UNPACK_SEQUENCE"
    return body[1 + body[0].arg:]


def _samples(body):
    """body cut after each store of err, the end of a sample."""
    cuts = [i + 1 for i, x in enumerate(body)
            if x.opname == "STORE_FAST" and x.argval == "err"]
    return [body[i:j] for i, j in zip([0] + cuts, cuts)], body[cuts[-1]:]


_JUMPS = set(dis.hasjrel) | set(dis.hasjabs)


def _normalized(sample, j):
    """A sample's instructions as (opname, argument), with the names of
    its own input u_j and code r_j made alike, and without the offsets
    its jumps name."""
    out = []
    for x in sample:
        arg = None if x.opcode in _JUMPS else x.argval
        if arg in (f"u{j}", f"r{j}"):
            arg = arg[0]
        out.append((x.opname, arg))
    return out


def _block_and_tail(loop):
    """The block body's samples, its packed store, the tail loop's
    sample and its store, each as instructions. The block body must
    hold _BLOCK copies of one sample, each reading its own input u_j
    and writing its own code r_j, and the tail loop one more sample."""
    ins = list(dis.get_instructions(loop))
    block_for, tail_for = [x for x in ins if x.opname == "FOR_ITER"]
    block, store = _samples(_loop_body(ins, block_for))
    (tail,), tail_store = _samples(_loop_body(ins, tail_for))
    assert len(block) == modulator._BLOCK
    assert all(_normalized(sample, j) == _normalized(block[0], 0)
               for j, sample in enumerate(block))
    return block, store, tail, tail_store


def _sample_operands(loop, op):
    """The right operand of each binary op `op` in one sample of the
    loop, as the name loaded just before it (None where the operand is
    not a name), with the code r_j and input u_j named raw and uk as the
    tail loop names them; the block body's sample and the tail loop's
    must have the same."""
    def operands(sample):
        names = {"r0": "raw", "u0": "uk"}
        found = []
        for prev, x in zip(sample, sample[1:]):
            if x.opname == "BINARY_OP" and x.argrepr == op:
                name = (prev.argval if prev.opname.startswith("LOAD")
                        else None)
                name = name[-1] if isinstance(name, tuple) else name
                found.append(names.get(name, name))
        return found

    block, _, tail, _ = _block_and_tail(loop)
    assert operands(block[0]) == operands(tail)
    return operands(tail)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="the loop's jumps are read as CPython 3.11 "
                           "compiles them")
@pytest.mark.parametrize("variant", LOOP_VARIANTS, ids=_variant_id)
def test_modulator_block_stores_its_codes_with_one_pack(variant):
    """The block body writes its _BLOCK codes with one call of the
    packer after its last sample, and none by index; the tail loop
    stores its one code by index."""
    loop = _compiled_loop(*variant)
    block, store, _, tail_store = _block_and_tail(loop)
    assert "STORE_SUBSCR" not in [x.opname for sample in block
                                  for x in sample + store]
    assert [x.argval for x in dis.get_instructions(loop)].count(
        "_pack_block") == 1
    assert [x.argval for x in store if x.opname == "LOAD_GLOBAL"] == [
        "_pack_block"]
    assert [x.opname for x in store].count("CALL") == 1
    assert [x.opname for x in tail_store].count("STORE_SUBSCR") == 1


def _sample_divisors(loop):
    return sorted(_sample_operands(loop, "/"))


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="the loop's jumps are read as CPython 3.11 "
                           "compiles them")
@pytest.mark.parametrize("variant", LOOP_VARIANTS, ids=_variant_id)
def test_modulator_loop_sample_compares_only_to_clamp(variant):
    """A sample tests no state, no peak and no bound: the loop's sample
    holds no comparison, and the clipping loop's only the quantizer's
    two, of its code against +-hr."""
    block, _, tail, _ = _block_and_tail(_compiled_loop(*variant))
    for sample in (block[0], tail):
        assert [x.argrepr for x in sample if x.opname == "COMPARE_OP"] == (
            [">", ">="] if variant[3] else [])


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="BINARY_OP is a CPython 3.11 opcode")
@pytest.mark.parametrize("variant", LOOP_VARIANTS, ids=_variant_id)
def test_modulator_loop_divides_only_where_unfolded(variant):
    """A sample divides by lsb_n, and the device's x0 by q_scale, only
    where run_modulator found that constant other than 1.0; the scaled
    loop's lsb_n S_E is 1."""
    _, device, units, _ = variant
    expected = [name for name in ("lsb_n", "q_scale")
                if name not in units and (device or name == "lsb_n")]
    assert _sample_divisors(_compiled_loop(*variant)) == expected


_DEFAULT = ModulatorConfig()
_GEOM8 = CylinderGeometry(radius=0.02, n_segments=8, n_eff=4)


def _variant_run(monkeypatch, cfg, u=np.zeros(4)):
    """The (order, device, units, clip) loop that run_modulator last
    built for cfg and u."""
    built = []
    monkeypatch.setattr(modulator, "_compiled_loop",
                        lambda *v: built.append(v) or _compiled_loop(*v))
    run_modulator(cfg, u)
    return built[-1]


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="BINARY_OP is a CPython 3.11 opcode")
@pytest.mark.parametrize("device", [False, True],
                         ids=["ideal", "flux-device"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_default_comparator_loop_divides_by_no_lsb(order, device,
                                                   monkeypatch):
    """At the default comparator's full scale lsb_n is 2**-8, which the
    scaled loop takes into its error's scale, so no loop divides by
    it; a device loop divides once, by q_scale, and takes a power-of-two
    c0_gain into it. A full scale 1.1 times as large makes lsb_n no
    power of two, and the loop keeps / lsb_n."""
    for c0 in (0.5, 0.3):
        for full_scale in (None, 1.1 * _DEFAULT.full_scale_field):
            _, _, units, _ = _variant_run(monkeypatch, ModulatorConfig(
                a=(1.0,) * order, c=(c0,) + (0.5,) * (order - 1),
                full_scale=full_scale,
                geometry=_GEOM8 if device else None))
            assert ("lsb_n" in units) == (full_scale is None)
            if device:
                assert ("c0_gain" in units) == (c0 == 0.5)
            expected = [] if full_scale is None else ["lsb_n"]
            if device:
                expected.append("q_scale")
            assert _sample_divisors(_compiled_loop(
                order, device, units, False)) == sorted(expected)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="BINARY_OP is a CPython 3.11 opcode")
def test_default_loops_multiply_only_to_round_the_device_quanta(
        monkeypatch):
    """At the default gains the order-2 ideal loop's sample has no
    multiply and no divide. The device loop keeps the multiply that
    rounds err to quanta and the divide by q_scale; its gain, a power
    of two at 8 segments, goes into the accumulator's scale, and
    c0_gain into q_scale. A gain of 3, at 6 segments, keeps both
    multiplies."""
    ideal = _compiled_loop(*_variant_run(monkeypatch, _DEFAULT))
    assert _sample_operands(ideal, "*") == []
    assert _sample_operands(ideal, "/") == []
    device = _compiled_loop(*_variant_run(
        monkeypatch, ModulatorConfig(geometry=_GEOM8)))
    assert _sample_operands(device, "*") == ["quanta"]
    assert _sample_operands(device, "/") == ["q_scale"]
    gain3 = _compiled_loop(*_variant_run(monkeypatch, ModulatorConfig(
        geometry=CylinderGeometry(radius=0.02, n_segments=6, n_eff=4))))
    # gain * ((err * quanta + R) - R), whose gain multiplies no name,
    # then acc * c0_gain / q_scale, as c[0] / 3 is no power of two
    assert _sample_operands(gain3, "*") == ["quanta", None, "c0_gain"]


# the scaled loop takes any power-of-two lsb_n whose scaled constants
# stay normal floats, 2**-600 and 2 among them, and leaves out
# / lsb_n; a gain a_0 = 2**1020 scales x_1 past the condition's
# ceiling, and a DC input of 1e-310 lies under its floor, so both keep
# / lsb_n (each bound keeps the loop sum under 2**50)
@pytest.mark.parametrize("kwargs,u,scaled", [
    (dict(full_scale=_DEFAULT.comparator.b_lsb * 2.0**600,
          stability_bound=2.0**-560), np.zeros(4), True),
    (dict(full_scale=_DEFAULT.comparator.b_lsb / 2), np.zeros(4), True),
    (dict(a=(2.0**1020,), c=(2.0**-1010,), stability_bound=2.0**-1000),
     np.zeros(4), False),
    (dict(), np.full(4, 1e-310), False),
], ids=["lsb-2**-600", "lsb-2", "a-over-lsb-overflows", "dc-under-floor"])
def test_loop_keeps_lsb_division_outside_the_fold(kwargs, u, scaled,
                                                  monkeypatch):
    _, _, units, _ = _variant_run(monkeypatch, ModulatorConfig(**kwargs), u)
    assert ("lsb_n" in units) == scaled


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


def _file_opens():
    """(module, function, call, mode) of each call in the package that
    opens a file by name: open, os.open, os.fdopen, io.open and the
    pathlib shortcuts. The mode is the second argument as written."""
    calls = {"open", "fdopen", "read_bytes", "read_text", "write_bytes",
             "write_text"}
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in calls:
                continue
            scope = node
            while scope in parent and not isinstance(scope, ast.FunctionDef):
                scope = parent[scope]
            mode = (node.args[1].value if len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant) else None)
            found.add((path.name, getattr(scope, "name", None), name, mode))
    return found


def test_one_place_opens_a_file_for_writing():
    """Every artifact is written by csvtext.write_artifact, as a new
    file; the one other file the package opens is the config that
    sectext.read_config reads."""
    assert _file_opens() == {("csvtext.py", "write_artifact", "open", "xb"),
                             ("sectext.py", "read_config", "open", "rb")}


README = ROOT / "README.md"


def _readme_names():
    """Identifiers that appear inside backticks in README.md."""
    text = README.read_text(encoding="utf-8")
    return {name for span in re.findall(r"`([^`\n]+)`", text)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def _referenced_names(paths):
    """Names read by the given Python files."""
    names = set()
    for path in paths:
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


# the public definitions that only unit tests call, each with its reason
TEST_ONLY = {
    "comparator.dac_feedback":
        "the feedback DAC's levels, for a report of what the exact gain "
        "buys the loop",
    "fluxtrap.trap_flux":
        "the input quanta of field cooling, for the gain envelope report",
    "fluxtrap.ring_current":
        "the ring supercurrent, the one reader of n_eff, for the same "
        "report",
    "electrodynamics.square_loop_center_field":
        "the oracle of square_loop_current_for_field",
    "electrodynamics.circular_loop_center_field":
        "the oracle of circular_loop_current_for_field",
}


def test_public_names_are_read():
    """Naming a function in README does not keep it: every public
    function and class is read by a module of the package (not its
    re-exports), a script, the benchmark or an acceptance check,
    except the pinned TEST_ONLY set."""
    paths = [path for path in MODULES if path.name != "__init__.py"]
    for folder in ("scripts", "perfbench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    referenced = _referenced_names(paths)
    unread = {f"{path.stem}.{name}" for path in MODULES
              for name in _public_definitions(path)
              if name not in referenced}
    assert unread == set(TEST_ONLY)


def _library_api():
    """README's Library API list: each module's bullet and the
    identifiers that open its backticked spans."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    api = {}
    for module, body in re.findall(r"^- `fluxdsm\.(\w+)`:(.*?)(?=^- |\Z)",
                                   section, flags=re.M | re.S):
        api[module] = [match.group(1)
                       for span in re.findall(r"`([^`]+)`", body)
                       if (match := re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?",
                                                 span, flags=re.S))]
    return api


def test_readme_library_api_names_exist():
    """Every name README's Library API list gives under a module is an
    attribute of that module, so a deleted function leaves no mention."""
    api = _library_api()
    assert "fluxtrap" in api and "junctions" in api
    missing = [f"{module}.{name}" for module, names in api.items()
               for name in names
               if not hasattr(importlib.import_module(f"fluxdsm.{module}"),
                              name)]
    assert missing == []


@pytest.mark.parametrize("qualname", sorted(TEST_ONLY))
def test_test_only_names_are_tested_and_listed(qualname):
    """A pinned test-only function keeps its place only while a unit
    test reads it and README's Library API list names it under its
    module."""
    module, name = qualname.split(".")
    tests = [path for path in sorted((ROOT / "tests").glob("test_*.py"))
             if path.name != "test_hygiene.py"]
    assert name in _referenced_names(tests)
    assert name in _library_api()[module]


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


def test_readme_python_blocks_run():
    # each block runs alone, against the package as it is
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


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


def _attributes_read(folders=("src/fluxdsm", "tests", "scripts",
                              "perfbench")):
    """Attribute names loaded anywhere in the given folders: by default
    the package, tests, scripts and benchmark."""
    names = set()
    for folder in folders:
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


def _public_methods(path):
    """(qualified name, name) of each public method or property of the
    module's classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(f"{path.stem}.{node.name}.{item.name}", item.name)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")]


def test_public_methods_read_or_documented():
    """A method or property that only tests call is kept only if the
    README names it."""
    read = _attributes_read(("src/fluxdsm",))
    documented = _readme_names()
    orphans = [qualified for path in MODULES
               for qualified, name in _public_methods(path)
               if name not in read and name not in documented]
    assert orphans == []


def _config_keys():
    """The key of every get_str, get_float, get_int and has call, and
    of every _float_list call, in scenario.py: each key a builder
    reads. _float_list's own get_str, of a key it is passed, is left
    to its callers."""
    path = pathlib.Path(fluxdsm.__file__).parent / "scenario.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    keys = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
                "get_str", "get_float", "get_int", "has"):
            arg = node.args[0]
        elif isinstance(func, ast.Name) and func.id == "_float_list":
            arg = node.args[1]
        else:
            continue
        if isinstance(arg, ast.Constant):
            keys.add(arg.value)
    return keys


def test_readme_names_every_config_key():
    keys = _config_keys()
    assert {"kind", "full_scale", "r_sheet", "a"} <= keys
    assert sorted(keys - _readme_names()) == []


def _readme_report_keys():
    """README's report-key table of each kind, under its `#### `kind``
    heading, as {kind: set of keys}."""
    tables, kind = {}, None
    for line in README.read_text(encoding="utf-8").splitlines():
        heading = re.fullmatch(r"#### `([\w-]+)`", line)
        if heading:
            kind = heading.group(1)
            tables[kind] = set()
        elif kind and line.startswith("| `"):
            tables[kind].add(line.split("|")[1].strip().strip("`"))
        elif kind and not line.startswith("|") and line.strip():
            kind = None
    return tables


def _report_keys(report):
    """The keys of a report.txt past its config echo, with each
    state_peak_<i> written as that pattern."""
    keys = set()
    for line in report.splitlines():
        key = line.split(" = ")[0]
        if key in ("kind", "seed") or "." in key:
            continue
        keys.add(re.sub(r"^state_peak_\d+$", "state_peak_<i>", key))
    return keys


def test_readme_tables_every_report_key(tmp_path):
    """Each shipped kind's report keys, past the config echo, are its
    README table's, in both directions: the shipped configs, and the
    modulator DC config with a [device] section, which adds the keys
    only a flux-device loop writes."""
    from fluxdsm.scenario import SCENARIO_KINDS, load_scenario, run_scenario
    device = tmp_path / "modulator_device.cfg"
    device.write_text((ROOT / "scenarios" / "modulator_dc.cfg").read_text(
        encoding="utf-8") + "\n[device]\nradius = 0.02\nn_segments = 8\n",
        encoding="utf-8")
    written = {}
    for i, path in enumerate([*sorted((ROOT / "scenarios").glob("*.cfg")),
                              device]):
        cfg = load_scenario(str(path))
        out = tmp_path / str(i)
        run_scenario(cfg, str(out))
        written.setdefault(cfg.kind, set()).update(_report_keys(
            (out / "report.txt").read_text(encoding="utf-8")))
    assert sorted(written) == sorted(SCENARIO_KINDS)
    assert _readme_report_keys() == written


# the one function that may import scipy, per module: the CN oracle,
# which no scenario runs
SCIPY_ALLOWED = {"electrodynamics.py": "crank_nicolson_diffusion"}


def _scipy_imports(tree, allowed=None):
    """(line, module) of each scipy import outside the function named
    allowed."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            if module.split(".")[0] == "scipy" and id(node) not in inside:
                found.append((node.lineno, module))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_imported_only_inside_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _scipy_imports(tree, SCIPY_ALLOWED.get(path.name)) == []


def _module_level_imports(tree):
    """Top-level names of the absolute imports outside every function."""
    names, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def test_runtime_dependencies_are_the_module_level_imports():
    """pyproject's dependencies name exactly the third-party packages
    that the package imports at module level; scipy, imported inside
    the CN oracle alone, is a test extra."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep).group() for dep in
                project["dependencies"]}
    imported = set().union(*(
        _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in MODULES)) - set(sys.stdlib_module_names) - {"fluxdsm"}
    assert declared == imported
    assert any(dep.startswith("scipy")
               for dep in project["optional-dependencies"]["test"])


COLD_CONFIGS = sorted(str(p) for p in (ROOT / "scenarios").glob("*.cfg"))

# importing the scenario layer compiles no quadrature and no modulator
# loop, and no shipped config loads scipy
COLD_RUN = """
import sys
import fluxdsm.scenario
if "fluxdsm._quadpack" in sys.modules:
    sys.exit("import fluxdsm.scenario loaded fluxdsm._quadpack")
from fluxdsm.modulator import _compiled_loop
if _compiled_loop.cache_info().currsize:
    sys.exit("import fluxdsm.scenario compiled a modulator loop")
from fluxdsm import cli
code = cli.main(sys.argv[1:])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"exit code {code}, {len(scipy)} scipy modules: {scipy[:3]}"
         if code or scipy else 0)
"""


def test_cli_runs_without_loading_scipy(tmp_path):
    """A fresh interpreter imports the scenario layer without compiling
    a quadrature or a modulator loop, runs every shipped config and
    never imports scipy."""
    assert {pathlib.Path(p).stem.split("_")[0] for p in COLD_CONFIGS} == {
        "comparator", "device", "junction", "modulator", "noise", "slab"}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_RUN, "--config", *COLD_CONFIGS,
         "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
