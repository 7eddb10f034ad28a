"""The physics layer's scalar/array contract, which is numpy's own: an
array input gives arrays of its shape, a scalar input gives numpy
scalars, and a grid call equals its per-element scalar calls bit for
bit."""

import pathlib
import re

import numpy as np
import pytest

from fluxdsm.comparator import (REFERENCE_I_BIAS, REFERENCE_SIDE,
                                make_comparator, quantize)
from fluxdsm.constants import CODATA
from fluxdsm.junctions import (JunctionConfig, btk_probabilities,
                               coherence_factors, nis_current,
                               nis_current_lowT, sns_current)
from fluxdsm.materials import get_material
from fluxdsm.noise import NoiseModel, flicker_psd, lorentzian_psd

LEAD = get_material("lead")
NIS = JunctionConfig(delta=LEAD.delta, T=0.3128, d=0.0, Z=10.0)
SNS = JunctionConfig(delta=LEAD.delta, T=4.2, d=1e-7, material=LEAD)
FLICKER = NoiseModel(R0=1.0, tau1=2.0, tau2=2e4, kprime=1.0)
COMPARATOR = make_comparator(REFERENCE_SIDE, REFERENCE_I_BIAS)
# energies in gap units, below, at and above the gap
ENERGIES = np.array([[0.25, 0.5, 1.0], [1.5, 2.0, 4.0]])
OMEGAS = np.array([[0.0, 1e-5, 1e-3], [0.1, 1.0, 10.0]])
# fields in LSB units: saturated, rounding ties and in range
FIELDS = np.array([[-300.0, -256.5, -2.5], [0.5, 1.5, 300.0]])

# name -> (function of the grid, 2-D grid)
CASES = {
    "coherence_factors": (lambda e: coherence_factors(e, 1.0), ENERGIES),
    "btk_probabilities": (lambda e: btk_probabilities(e, 1.0, 0.5),
                          ENERGIES),
    "nis_current": (lambda v: nis_current(NIS, v),
                    ENERGIES * LEAD.delta / CODATA.e),
    "nis_current_lowT": (lambda v: nis_current_lowT(NIS, v),
                         ENERGIES * LEAD.delta / CODATA.e),
    "sns_current": (lambda phi: sns_current(SNS, phi), ENERGIES * 1.5),
    "flicker_psd": (lambda w: flicker_psd(FLICKER, w), OMEGAS),
    "lorentzian_psd": (lambda w: lorentzian_psd(FLICKER, w), OMEGAS),
    "quantize": (lambda b: quantize(COMPARATOR, b),
                 FIELDS * COMPARATOR.b_lsb),
}


def _outputs(result):
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_call_equals_scalar_calls(name):
    fn, grid = CASES[name]
    outs = _outputs(fn(grid))
    for out in outs:
        assert isinstance(out, np.ndarray) and out.shape == grid.shape
    for idx in np.ndindex(grid.shape):
        scalars = _outputs(fn(float(grid[idx])))
        assert len(scalars) == len(outs)
        for out, scalar in zip(outs, scalars):
            assert isinstance(scalar, np.generic) and scalar.ndim == 0
            assert out[idx].tobytes() == scalar.tobytes()


def test_readme_names_exactly_the_grid_functions():
    """README's list of grid functions is the set this module tests."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    sentence = re.search(r"The grid functions (.*?) follow numpy's", text,
                         flags=re.S)
    assert sentence, "README lost its grid-function sentence"
    assert sorted(re.findall(r"`(\w+)`", sentence.group(1))) == sorted(CASES)
