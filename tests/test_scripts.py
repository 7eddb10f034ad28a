"""The scripts under scripts/ run against the package and print their
tables."""

import importlib.util
import pathlib
import re

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_osr_sweep_prints_both_tables(capsys):
    osr_sweep = _load("osr_sweep")
    # the least N whose band at osr 256, bins 3 to 16, holds noise bins
    # beside the tone's 6 to 12
    osr_sweep.N = 2 ** 13
    osr_sweep.main()
    lines = capsys.readouterr().out.splitlines()
    osr_rows = [line.split() for line in lines[1:lines.index("")]]
    assert [int(row[0]) for row in osr_rows] == [8, 16, 32, 64, 128, 256]
    assert all(len(row) == 4 for row in osr_rows)
    assert re.fullmatch(r"peak SNDR -?\d+\.\d\d dB at -?\d+ dBFS", lines[-1])


def test_gain_sweep_gain_is_half_the_segments(capsys):
    _load("gain_sweep").main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 13))
    assert [int(row[1]) for row in rows] == [max(n // 2, 1)
                                             for n in range(1, 13)]



def test_artifact_digests_lists_each_artifact_at_both_seeds(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    # one shipped config, copied into a stand-in checkout
    digests = _load("artifact_digests")
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "comparator_curve.cfg").write_bytes(
        (SCRIPTS.parent / "scenarios" / "comparator_curve.cfg").read_bytes())
    monkeypatch.setattr(digests, "ROOT", tmp_path)
    monkeypatch.setattr(digests, "CONFIG_DIRS", ("scenarios", "missing"))
    digests.main()
    first = capsys.readouterr().out
    rows = [line.split("  ") for line in first.splitlines()]
    assert [path for _, path in rows] == [
        f"seed-{seed}/scenarios/comparator_curve/{name}"
        for seed in (7, "config") for name in ("curve.csv", "report.txt")]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest, _ in rows)
    # the report names the seed; the curve does not depend on it
    assert rows[0][0] == rows[2][0] and rows[1][0] != rows[3][0]
    digests.main()
    assert capsys.readouterr().out == first
