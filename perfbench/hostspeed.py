"""Host speed, measured with a fixed piece of work between items.

The benchmark runs on a few cores of a host it shares with other
tenants. Their load changes how fast the same Python and numpy code
runs, by up to 2x for minutes at a time, and whole runs can fall in a
slow stretch. The kernel here is a fixed mix of the kinds of work
fluxdsm does: a per-sample Python loop over numpy arrays (as in the
modulator), numpy ufunc calls on one-element arrays (as in the
quadrature integrands) and number formatting (as in the CSV writer).
It does not call fluxdsm, so no change to the program moves it.

The runner times the kernel before every item and after the last one.
An item run's latency divided by the host's slowness at that moment
(the geometric mean of the kernel's times on either side of it, over
REFERENCE_S) is its latency at the reference speed: what it would
take on this host in a quiet stretch.
"""

import math
from time import perf_counter

import numpy as np

# The kernel's time on the host where the benchmark was built (a shared
# 2-core x86-64 Linux VM, Python 3.11.7, numpy 2.4.6) in a quiet
# stretch. It only fixes the scale; the metrics are ratios to it.
REFERENCE_S = 0.0042

_LOOP_N = 1200
_UFUNC_CALLS = 120
_FORMAT_ROWS = 600
_U = 0.5 * np.sin(0.013 * np.arange(_LOOP_N))
_LSB = 1.0 / 64.0


def kernel():
    """The fixed work; returns a checksum so that none of it is idle."""
    codes = np.empty(_LOOP_N, dtype=np.int64)
    x = 0.0
    for k in range(_LOOP_N):
        raw = round(x / _LSB)
        codes[k] = raw
        x = x + _U[k] - raw * _LSB
    total = 0.0
    for k in range(_UFUNC_CALLS):
        e = np.atleast_1d(np.asarray(1.0 + k * 1e-3))
        r = np.where(e > 1.0, np.sqrt(e ** 2 - 1.0) / np.where(
            e > 0.0, e, 1.0), 0.0)
        total += float(np.sum(r * r))
    text = "\n".join(f"{k},{k * 0.37:.17g},{math.sin(k):.17g}"
                     for k in range(_FORMAT_ROWS))
    return int(codes.sum()) + total + len(text)


def slowness():
    """Seconds the kernel takes now, over REFERENCE_S."""
    t0 = perf_counter()
    kernel()
    return (perf_counter() - t0) / REFERENCE_S
