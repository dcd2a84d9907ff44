"""Traced memory peaks of the high-rate kernels, in float64 arrays of the drive's length.

Each kernel allocates little more than the arrays it returns: every fresh
multi-MB temporary on a long drive costs page faults. The bounds are the
measured peaks plus about half an array. The earlier forms of these kernels
(repeat/tile `upsample`, np.diff/concatenate features, the % triangle wave
and a `run_activation` with the logistic at every step and a
maximum.accumulate override latch) peaked at 8, 4, 4 and 7.4 arrays.
"""

import tracemalloc

import numpy as np
import pytest

from probsense.activation import ActivationConfig, run_activation
from probsense.afe import AfeConfig, extract_features
from probsense.harness import DEFAULT_SURVEY_HOLD_STEPS, SynthSurveySpec, _synth_one, _triangle_wave
from probsense.pbit import PNeuronConfig
from probsense.traces import upsample

FACTOR = 50


def _peak_arrays(fn, n: int) -> float:
    """Traced peak of fn(), result included, in float64 arrays of length n."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return peak / (8 * n)


@pytest.fixture(scope="module")
def event():
    """A 5 s survey event at 2 kHz: 500 k steps once upsampled."""
    return _synth_one(SynthSurveySpec(duration_s=5.0), onset_s=2.5, seed=7)


@pytest.fixture(scope="module")
def drive(event):
    return upsample(event, FACTOR)


def test_upsample(event):
    n = (len(event) - 1) * FACTOR + 1
    assert _peak_arrays(lambda: upsample(event, FACTOR), n) < 2.5  # the output and Trace's copy


def test_extract_features(drive):
    assert _peak_arrays(lambda: extract_features(drive, AfeConfig()), len(drive)) < 2.5


def test_triangle_wave():
    n = 500_000
    assert _peak_arrays(lambda: _triangle_wave(n, 1e5, 250.0, 0.25), n) < 1.5


@pytest.mark.parametrize("source, bound", [("smtj_telegraph", 4.0), ("digital_iid", 3.5)])
def test_run_activation(drive, source, bound):
    cfg = ActivationConfig(hold_steps=DEFAULT_SURVEY_HOLD_STEPS,
                           pneuron=PNeuronConfig(source=source, seed=3))
    act = run_activation(drive, cfg, FACTOR)
    assert act.det_override.any()  # the latch is exercised
    assert _peak_arrays(lambda: run_activation(drive, cfg, FACTOR), len(drive)) < bound
