"""Comparator sizing law, mid-tread quantization, and DAC feedback."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fluxdsm.comparator import dac_feedback, make_comparator, quantize
from fluxdsm.constants import CODATA
from fluxdsm.errors import DomainError

CANON = make_comparator(200e-6, 9.371e-3)


def test_canonical_sizing():
    assert CANON.n_levels == 513
    assert CANON.half_range == 256
    assert CANON.b_lsb == pytest.approx(5.169584621154824e-08, rel=1e-12)
    assert CANON.b_max == pytest.approx(2.6505190600425333e-05, rel=1e-12)


def test_raw_ratio_near_quoted_level_count():
    # the unrounded level count b_max/b_lsb sits at 512.71
    raw = CANON.b_max / CANON.b_lsb
    assert raw == pytest.approx(512.7141258499099, rel=1e-12)
    assert abs(raw - 512.0) <= 1.0


def test_b_lsb_is_one_quantum_over_loop_area():
    assert CANON.b_lsb == pytest.approx(CODATA.phi0 / (200e-6) ** 2,
                                        rel=1e-12)


def test_level_count_scales_with_bias():
    doubled = make_comparator(200e-6, 2 * 9.371e-3)
    assert abs(doubled.n_levels - 2 * CANON.n_levels) <= 1


@pytest.mark.parametrize("side,i_bias,msg", [
    (0.0, 9.371e-3, "side"),
    (math.nan, 9.371e-3, "side"),
    (200e-6, -1.0, "bias"),
    (200e-6, math.nan, "bias"),
    (200e-6, 1e-9, "no levels"),
    # side**2 underflows to 0 or overflows
    (1e-300, 9.371e-3, "float range"),
    (1e200, 9.371e-3, "float range"),
    # more levels than exact float integers (or int64 codes) hold
    (200e-6, 1e300, "2\\*\\*53"),
    (200e-6, 1e308, "2\\*\\*53"),
])
def test_make_comparator_validation(side, i_bias, msg):
    with pytest.raises(DomainError, match=msg):
        make_comparator(side, i_bias)


def test_quantize_zero_field():
    code, saturated = quantize(CANON, 0.0)
    assert code == 0 and isinstance(code, np.int64)
    assert not saturated and isinstance(saturated, np.bool_)


def test_quantize_rounds_half_even():
    assert quantize(CANON, 1.5 * CANON.b_lsb)[0] == 2
    assert quantize(CANON, 2.5 * CANON.b_lsb)[0] == 2
    assert quantize(CANON, 0.5 * CANON.b_lsb)[0] == 0
    assert quantize(CANON, -1.5 * CANON.b_lsb)[0] == -2


def test_quantize_saturates_with_flag():
    assert quantize(CANON, 2.0 * CANON.b_max) == (256, True)
    assert quantize(CANON, -2.0 * CANON.b_max) == (-256, True)
    assert quantize(CANON, 256 * CANON.b_lsb) == (256, False)
    assert quantize(CANON, -math.inf) == (-256, True)


def _scalar_quantize(cfg, b):
    """The quantizer law per sample, in plain Python."""
    raw = int(round(b / cfg.b_lsb))
    hr = cfg.half_range
    return min(max(raw, -hr), hr), not -hr <= raw <= hr


def test_quantize_array_matches_scalar_law():
    rng = np.random.default_rng(11)
    random_fields = rng.uniform(-1.5, 1.5, 20000) * CANON.b_max
    # every half-LSB tie over +-600 LSB, beyond both ends of the range
    ties = (np.arange(-600, 600) + 0.5) * CANON.b_lsb
    b = np.concatenate([random_fields, ties, [0.0, -0.0]])
    codes, saturated = quantize(CANON, b)
    assert codes.dtype == np.int64 and codes.shape == b.shape
    assert saturated.dtype == np.bool_ and saturated.shape == b.shape
    expected = [_scalar_quantize(CANON, x) for x in b.tolist()]
    assert codes.tolist() == [code for code, _ in expected]
    assert saturated.tolist() == [sat for _, sat in expected]
    assert saturated.any() and not saturated.all()


@pytest.mark.parametrize("b", [math.nan, [0.0, math.nan]])
def test_quantize_rejects_nan(b):
    with pytest.raises(DomainError, match="nan"):
        quantize(CANON, b)


def test_no_missing_codes_over_sweep():
    b = np.linspace(-CANON.b_max, CANON.b_max, 20001)
    codes, _ = quantize(CANON, b)
    assert set(np.unique(codes)) == set(range(-256, 257))


@given(b1=st.floats(min_value=-3e-5, max_value=3e-5),
       b2=st.floats(min_value=-3e-5, max_value=3e-5))
def test_quantize_monotone(b1, b2):
    lo, hi = min(b1, b2), max(b1, b2)
    assert quantize(CANON, lo)[0] <= quantize(CANON, hi)[0]


@given(b=st.floats(min_value=-1.3e-5, max_value=1.3e-5))
def test_quantize_error_bound_unsaturated(b):
    code, saturated = quantize(CANON, b)
    if not saturated:
        assert abs(code * CANON.b_lsb - b) <= CANON.b_lsb / 2 * (1 + 1e-12)


def test_dac_feedback_full_scale():
    assert dac_feedback(CANON, 256) == pytest.approx(
        1.3234136630156349e-05, rel=1e-12)
    assert dac_feedback(CANON, 0) == 0.0
    assert dac_feedback(CANON, -5) == -5 * CANON.b_lsb


def test_dac_feedback_roundtrip_on_lattice():
    for code in (-256, -100, -1, 0, 1, 37, 256):
        assert quantize(CANON, dac_feedback(CANON, code))[0] == code


def test_dac_feedback_accepts_numpy_integers():
    assert dac_feedback(CANON, np.int64(7)) == 7 * CANON.b_lsb


@pytest.mark.parametrize("bad", [257, -257, 1000])
def test_dac_feedback_out_of_range(bad):
    with pytest.raises(DomainError, match="outside comparator range"):
        dac_feedback(CANON, bad)


@pytest.mark.parametrize("bad", [True, 1.0, "3"])
def test_dac_feedback_rejects_non_integers(bad):
    with pytest.raises(DomainError, match="integer"):
        dac_feedback(CANON, bad)


def test_config_is_frozen():
    with pytest.raises(Exception):
        CANON.n_levels = 5
