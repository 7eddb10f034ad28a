"""The column-wise CSV encoder against Python's own spelling: repr for
float64 values, str for int64 values, byte for byte."""

import math

import numpy as np
import pytest

from fluxdsm.csvtext import encode_rows, numeric

CHUNK = 1 << 14


def _encoded(column):
    """encode_rows of a one-column table, in chunks as write_csv calls it."""
    return b"".join(encode_rows([column[start:start + CHUNK]])
                    for start in range(0, column.size, CHUNK))


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
    columns = [numeric(c) for c in (x, k, flag, x)]
    assert encode_rows(columns) == (b"0.5,0,1,0.5\n-1e+300,1,0,-1e+300\n"
                                    b"nan,2,1,nan\n")


@pytest.mark.parametrize("column", [
    np.array(["a", "b"]),
    np.array([1, 2], dtype=np.uint64),
    # no runner writes these: the row writer spells them
    np.array([1, 2], dtype=np.int32),
    np.array([0.1, 2.0], dtype=np.float32),
    np.zeros((2, 2)),
    [1.0, 2.0],
] + ([np.array([1.0, 2.0], dtype=np.longdouble)]
     if np.dtype(np.longdouble).itemsize > 8 else []))
def test_numeric_refuses_what_it_cannot_spell(column):
    assert numeric(column) is None
