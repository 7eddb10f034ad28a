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

