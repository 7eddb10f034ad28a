"""Flux-quantized comparator / DAC pair.

The comparator senses the low-frequency field B_LF through a square
pickup loop of side L biased with current I. Resolution is set by one
flux quantum over the loop area (B_LSB = phi0 / L^2), range by the
bias current (B_max = sqrt(2) mu0 I / (pi L)), and the level count by
their ratio. Codes are mid-tread integers, rounded half-to-even, and
clamp with an explicit saturation flag rather than wrapping.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA
from .errors import DomainError

# the reference sizing: a 200 um loop at 9.371 mA resolves 513 levels
REFERENCE_SIDE = 200e-6
REFERENCE_I_BIAS = 9.371e-3


@dataclass(frozen=True)
class ComparatorConfig:
    """Derived comparator parameters; build via make_comparator."""

    side: float
    b_lsb: float
    b_max: float
    n_levels: int

    @property
    def half_range(self) -> int:
        """Largest representable code magnitude."""
        return self.n_levels // 2


def make_comparator(side: float, i_bias: float) -> ComparatorConfig:
    """Size the comparator for a square loop of given side and bias.

        B_LSB = phi0 / L^2          (one quantum over the loop)
        B_max = sqrt(2) mu0 I / (pi L)
        N_lev = round(2 sqrt(2) mu0 e L I / (pi h))

    N_lev equals round(B_max / B_LSB) by construction. The reference
    sizing L = REFERENCE_SIDE, I = REFERENCE_I_BIAS lands at 513 levels
    (the raw ratio is 512.7, i.e. the quoted 512 within one count).
    """
    # written as `not v > 0` so that nan fails the checks too
    if not side > 0:
        raise DomainError("loop side must be positive")
    if not i_bias > 0:
        raise DomainError("bias current must be positive")
    # side**2 raises OverflowError past the float range, and a zero
    # area cannot be divided by
    if not 0.0 < side * side < math.inf:
        raise DomainError(
            f"loop side {side!r} m puts the loop area outside the float range")
    b_lsb = CODATA.phi0 / side**2
    b_max = math.sqrt(2.0) * CODATA.mu0 * i_bias / (math.pi * side)
    levels = (2.0 * math.sqrt(2.0) * CODATA.mu0 * CODATA.e
              * side * i_bias / (math.pi * CODATA.h))
    # codes are int64 and each level must be an exact float integer
    if not (b_lsb < math.inf and b_max < math.inf and levels < 2.0**53):
        raise DomainError(
            f"side {side!r} m at i_bias {i_bias!r} A gives {levels:.3g} "
            f"levels of {b_lsb:.3g} T; the fields must be finite and the "
            "levels under 2**53")
    n_levels = int(round(levels))
    if n_levels < 1:
        raise DomainError(
            "bias current too small: comparator resolves no levels")
    return ComparatorConfig(side=side, b_lsb=b_lsb, b_max=b_max,
                            n_levels=n_levels)


def quantize(cfg: ComparatorConfig, b_lf):
    """Quantize field samples (T), a scalar or an array, to mid-tread
    codes:

        code = clamp(round_half_even(B_LF / B_LSB), -half_range, +half_range)

    Returns (codes, saturated): int64 codes and a bool mask, with the
    shape of b_lf. Saturation is flagged, never wrapped. A nan sample,
    which has no code, is a domain error.
    """
    raw = np.round(np.asarray(b_lf, dtype=float) / cfg.b_lsb)
    if np.isnan(raw).any():
        raise DomainError("field samples must not be nan")
    hr = cfg.half_range
    return np.clip(raw, -hr, hr).astype(np.int64), np.abs(raw) > hr


def dac_feedback(cfg: ComparatorConfig, code: int) -> float:
    """Field the feedback DAC reproduces for a code: code * B_LSB.
    Codes beyond the comparator range are a domain error."""
    if not isinstance(code, (int, np.integer)) or isinstance(code, bool):
        raise DomainError("code must be an integer")
    if abs(int(code)) > cfg.half_range:
        raise DomainError(
            f"code {code} outside comparator range +-{cfg.half_range}")
    return int(code) * cfg.b_lsb
