"""The column-wise CSV encoder against Python's own spelling: repr for
float64 values, str for int64 values, byte for byte."""

import math

import numpy as np
import pytest

from fluxdsm import csvtext
from fluxdsm.csvtext import (CSV_CHUNK_ROWS as CHUNK, CSV_RUN_CELLS,
                             _encode_chunk, _encoder, spell, write_csv)


def _encoded(*columns):
    """The per-chunk encoder's lines of numpy columns, in chunks as
    write_csv hands them over."""
    encoders = [_encoder(c) for c in columns]
    return b"".join(_encode_chunk([c[start:start + CHUNK] for c in columns],
                                  encoders)
                    for start in range(0, columns[0].size, CHUNK))


def _spelled(*columns):
    """The oracle: each cell as repr spells it, a bool as 1 or 0."""
    values = [(c.astype(np.int64) if c.dtype == np.bool_ else c).tolist()
              for c in columns]
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in zip(*values)).encode()


def _floats():
    rng = np.random.default_rng(20180618)
    random_bits = rng.integers(0, 2**64, 400_000, dtype=np.uint64,
                               endpoint=False).view(np.float64)
    # about 0.05 % of them are nan, with every payload and sign
    near_2_53 = np.arange(2**53 - 2000, 2**53 + 2000, dtype=np.int64)
    switches = []
    # the layout turns from positional to d.ddde-XX below 1e-4 and to
    # d.ddde+XX from 1e16 on
    for edge in (1e-4, 1e16):
        below = np.nextafter(edge, 0.0)
        above = np.nextafter(edge, math.inf)
        for value in (below, edge, above):
            switches += [value, np.nextafter(value, 0.0),
                         np.nextafter(value, math.inf)]
    switches += [9.999999999999999e-05, 0.00010000000000000002,
                 9999999999999998.0, 1.0000000000000002e16, 123456789.0,
                 1e15, 1e21, 1e22, 1e23]
    odd = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
           -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 0.2, 0.3]
    return {
        "random bit patterns": random_bits,
        "every 7th power of two": np.ldexp(1.0, np.arange(-1074, 1024, 7)),
        "powers of ten": np.array([float(f"1e{k}") for k in range(-300, 301)]
                                  + [10.0**k for k in range(-300, 301)]),
        "integers near 2^53": near_2_53.astype(np.float64),
        "k/65536": np.arange(-70_000, 70_000) / 65536.0,
        "linspace": np.linspace(-1.0, 1.0, 100_001),
        "layout switches": np.array(switches),
        "odd values": np.array(odd),
    }


@pytest.mark.parametrize("name,values", list(_floats().items()))
def test_floats_encode_as_repr(name, values):
    assert values.dtype == np.float64
    expected = "".join(repr(v) + "\n" for v in values.tolist()).encode()
    assert _encoded(values) == expected


def _pool():
    """Few distinct values whose spellings the float-equal ones would
    confuse: both zeros, nans of several payloads and both signs, both
    infinities, the least subnormal, and neighbours of the 1e-4 and
    1e16 layout switches."""
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                     0x7FF0000000000001, 0xFFF8000000000000,
                     0xFFF0000000000123], dtype=np.uint64).view(np.float64)
    edges = [np.nextafter(edge, toward) for edge in (1e-4, 1e16)
             for toward in (0.0, math.inf)] + [1e-4, 1e16]
    edges += [-v for v in edges]
    return np.concatenate([[0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                            0.1, -2.5], nans, edges])


def test_repeated_floats_encode_as_repr():
    """A pool column shuffled across more than two chunks: each chunk
    encodes its distinct bit patterns once and gathers them back."""
    pool = _pool()
    column = np.tile(pool, (2 * CHUNK + 1000) // pool.size + 1)
    np.random.default_rng(25).shuffle(column)
    assert column.size > 2 * CHUNK
    # the shuffle moves bit patterns, nan payloads and signs included
    assert set(column.view(np.uint64).tolist()) == \
        set(pool.view(np.uint64).tolist())
    expected = "".join(repr(v) + "\n" for v in column.tolist()).encode()
    assert _encoded(column) == expected


def test_strided_column_matches_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    z = rng.standard_normal(519) + 1j * rng.standard_normal(519)
    z.real[::3] = -0.0
    column = z.real
    assert not column.flags.c_contiguous
    write_csv(str(tmp_path / "by_column.csv"), ("x",), [column])
    # a list is written cell by cell
    write_csv(str(tmp_path / "by_row.csv"), ("x",), [column.tolist()])
    assert (tmp_path / "by_column.csv").read_bytes() == \
        (tmp_path / "by_row.csv").read_bytes()


def test_int64_encode_as_str():
    rng = np.random.default_rng(7)
    values = np.concatenate([
        np.array([0, 1, -1, 9, 10, -10, 99999999, 100000000,
                  10**18, -10**18, 2**63 - 1, -2**63], dtype=np.int64),
        rng.integers(-2**63, 2**63 - 1, 100_000, dtype=np.int64),
        rng.integers(-1000, 1000, 1000, dtype=np.int64),
    ])
    expected = "".join(str(v) + "\n" for v in values.tolist()).encode()
    assert _encoded(values) == expected


def test_rows_join_cells_with_commas():
    k = np.arange(3)
    x = np.array([0.5, -1e300, math.nan])
    flag = np.array([True, False, True])
    assert _encoded(x, k, flag, x) == (b"0.5,0,1,0.5\n-1e+300,1,0,-1e+300\n"
                                       b"nan,2,1,nan\n")


def _layouts(n):
    """Float columns of n rows in each layout, one per column: positional
    (one a strided view), exponent, and the zeros, infinities and nans
    of _pool, with int64 and bool columns beside them."""
    rng = np.random.default_rng(n)
    z = rng.uniform(-1e4, 1e4, n) + 1j * rng.uniform(-1.0, 1.0, n)
    exponent = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    odd = np.resize(_pool(), n)
    return [z.real, rng.integers(-2**63, 2**63, n, dtype=np.int64),
            exponent, odd, odd < 0.0, z.imag]


@pytest.mark.parametrize("n", [
    # one Ryu run over the four float columns, then one per column
    CSV_RUN_CELLS // 4, CSV_RUN_CELLS // 4 + 1,
    # a full chunk, then a last chunk whose float columns share one run
    CHUNK + 100,
])
def test_float_columns_of_a_chunk_encode_as_repr(n):
    columns = _layouts(n)
    assert not columns[0].flags.c_contiguous
    assert _encoded(*columns) == _spelled(*columns)


@pytest.mark.parametrize("floats,rows,runs", [
    (4, CSV_RUN_CELLS // 4, 1),
    (4, CSV_RUN_CELLS // 4 + 1, 4),
    # one float column is its own run
    (1, 10, 1),
])
def test_float_columns_share_one_run_while_small(monkeypatch, floats, rows,
                                                 runs):
    calls = []

    def counted(x):
        calls.append(x.size)
        return float_cells(x)

    float_cells = csvtext._float_cells
    monkeypatch.setattr(csvtext, "_float_cells", counted)
    columns = [np.arange(rows) * 0.5 for _ in range(floats)]
    columns.insert(1, np.arange(rows))
    encoders = [counted if c.dtype == np.float64 else csvtext._int_cells
                for c in columns]
    assert _encode_chunk(columns, encoders) == _spelled(*columns)
    assert calls == [rows * floats // runs] * runs


def _encodable(rows):
    """A float, int64, bool, float table of the given rows: its two
    float columns share one Ryu run up to CSV_RUN_CELLS // 2 rows."""
    x = np.linspace(0.0, 1.0, rows)
    return [x, np.arange(rows) - 1, x > 0.5, -x]


@pytest.mark.parametrize("table", [
    _encodable(0), _encodable(1), _encodable(2),
    _encodable(CSV_RUN_CELLS // 2), _encodable(CSV_RUN_CELLS // 2 + 1),
    [np.array([0.5])],
], ids=["0-rows", "1-row", "2-rows", "one-run", "run-per-column",
        "1-cell"])
def test_every_table_of_encodable_columns_goes_column_wise(
        tmp_path, monkeypatch, table):
    chunks = []
    encode_chunk = csvtext._encode_chunk

    def counted(*args):
        chunks.append(args)
        return encode_chunk(*args)

    monkeypatch.setattr(csvtext, "_encode_chunk", counted)
    write_csv(str(tmp_path / "t.csv"), ("c",) * len(table), table)
    assert len(chunks) == (table[0].size > 0)
    assert (tmp_path / "t.csv").read_bytes() == \
        b",".join([b"c"] * len(table)) + b"\n" + _spelled(*table)


def test_mixed_table_is_spelled_cell_by_cell(tmp_path, monkeypatch):
    """A float64 array beside a tuple column: no column-wise encoding,
    and every cell is spell's."""
    monkeypatch.setattr(csvtext, "_encode_chunk", None)
    x = _pool()[:5]
    labels = ("a", 1, True, 2.5, np.int64(-3))
    write_csv(str(tmp_path / "t.csv"), ("x", "label"), [x, labels])
    assert (tmp_path / "t.csv").read_text() == "x,label\n" + "".join(
        f"{spell(a)},{spell(b)}\n" for a, b in zip(x, labels))


@pytest.mark.parametrize("column", [
    np.array(["a", "b"]),
    np.array([1, 2], dtype=np.uint64),
    # no runner writes these: they are written cell by cell
    np.array([1, 2], dtype=np.int32),
    np.array([0.1, 2.0], dtype=np.float32),
    np.zeros((2, 2)),
    [1.0, 2.0],
] + ([np.array([1.0, 2.0], dtype=np.longdouble)]
     if np.dtype(np.longdouble).itemsize > 8 else []))
def test_no_encoder_for_what_it_cannot_spell(column):
    assert _encoder(column) is None
