"""Traced memory peaks of the high-rate kernels, in float64 arrays of the drive's length.

Each kernel allocates little more than the arrays it returns: every fresh
multi-MB temporary on a long drive costs page faults. The bounds are the
measured peaks plus about half an array. The earlier forms of these kernels
(repeat/tile `upsample`, np.diff/concatenate features, the % triangle wave
and a `run_activation` with the logistic at every step and a
maximum.accumulate override latch) peaked at 8, 4, 4 and 7.4 arrays. Since
`Trace` keeps the package's fresh outputs without a copy and the digital
source computes its drive only at the ticks, `upsample` peaks at 1.2 arrays
(2.0 before), the digital `run_activation` at 2.1 (3.0) and one digital
`sweep_slope` point at 3.1 (4.0). Since the smtj source turns the slope
array `extract_features` returns into its drive and p in place, and
`telegraph_run` computes its uniforms and flip probabilities in blocks,
`telegraph_run` peaks at 0.86 arrays (2.25 before; its flip flags and
non-identity step indices, not the blocks), the smtj `run_activation` at
2.1 (3.3) and one smtj `sweep_slope` point at 3.1 (4.3). Since the slope
is computed in closed form from the ADC-rate trace and no amplitude array
is kept, `extract_features` peaks at 1.0 arrays on a drive (2.0 before) and
1.1 on the event itself, and `run_activation` runs on the event: smtj 1.9,
digital 1.1 (2.1 each on the upsampled drive before); one `sweep_slope`
point peaks at 2.7 (smtj) and 2.1 (digital), from 3.1. Since
`telegraph_run` drops the repeated constant steps of saturated blocks and
`run_activation` lets go of the sweep's wave before the telegraph runs,
`telegraph_run` peaks at 0.53 arrays on a constant drive saturated ON
(p = 0.995) or OFF (p = 0.005), 2.8 before, when its step lists grew with
the drive, and at 0.86 on the survey drive, as before; one `sweep_slope`
point peaks at 2.03 at 0, 250 and 500 V/s with either source (smtj 2.9,
2.7 and 4.8 before, digital 2.1). Since the AFE has no moving average and
its slope is one value per sample of the trace, `extract_features` peaks at
1.0 arrays of the trace's own length (of the high-rate steps before), the
digital `run_activation` at 0.65 (1.08 before) and the smtj one at 1.83, as
before; one `sweep_slope` point peaks at 2.00 with either source. Since
`telegraph_run` takes p per ADC segment with its factor, and the override
is evaluated at the ticks alone, the smtj `run_activation` builds no
step-length drive or latch and peaks at 0.78 arrays (1.83 before); the
digital one peaks at 0.66. Since `sweep_slope` feeds each point a ramp on
the ADC grid, run at the survey's factor, in place of a triangle wave built
at every high-rate step, one point peaks at 0.52-1.10 arrays (smtj) and
0.46-0.66 (digital), from 2.00-2.11 and 2.00.
"""

import tracemalloc

import numpy as np
import pytest

from probsense.activation import ActivationConfig, run_activation
from probsense.afe import AfeConfig, extract_features
from probsense.harness import ExperimentConfig, sweep_slope
from probsense.pbit import PNeuronConfig, activation_probability, telegraph_run
from probsense.traces import synth_event, upsample

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
    return synth_event(5.0, 2000.0, 50.0, 2.5, 1.0, 0.004, seed=7)


@pytest.fixture(scope="module")
def drive(event):
    return upsample(event, FACTOR)


def test_upsample(event):
    n = (len(event) - 1) * FACTOR + 1
    assert _peak_arrays(lambda: upsample(event, FACTOR), n) < 1.5  # the output, kept by Trace


def test_extract_features(event, drive):
    """In arrays of the trace's own length: the slope is one value per sample."""
    for x in (event, drive):
        assert _peak_arrays(lambda: extract_features(x), len(x)) < 1.5


def test_telegraph_run(drive):
    """The survey drive, and constant drives of its length saturated ON and OFF."""
    afe, cfg = AfeConfig(), PNeuronConfig()
    survey = activation_probability(afe.slope_gain * extract_features(drive), cfg)
    dt = 1.0 / drive.rate_hz
    for p in (survey, np.full(survey.size, 0.995), np.full(survey.size, 0.005)):
        peak = _peak_arrays(lambda: telegraph_run(p, dt, cfg, np.random.default_rng(3)), p.size)
        assert peak < 1.0, f"p[0] = {p[0]}: {peak:.2f} arrays"


@pytest.mark.parametrize("source, bound", [("smtj_telegraph", 1.3), ("digital_iid", 1.0)])
def test_run_activation(event, source, bound):
    """The survey's event path: the event itself, on its upsampled grid."""
    cfg = ActivationConfig(pneuron=PNeuronConfig(source=source))
    act = run_activation(event, cfg, FACTOR, seed=3, factor=FACTOR)
    assert act.det_override.any()  # the override is exercised
    n = len(act)
    assert _peak_arrays(lambda: run_activation(event, cfg, FACTOR, seed=3, factor=FACTOR),
                        n) < bound


@pytest.mark.parametrize("source, bound", [("smtj_telegraph", 1.6), ("digital_iid", 1.2)])
def test_sweep_slope_point(source, bound):
    """One 500 k-step point: the ramp on the ADC grid and `run_activation`.

    At 0 V/s p is the minimum rate; at 500 V/s the smtj p-neuron saturates.
    """
    cfg = ExperimentConfig(activation=ActivationConfig(pneuron=PNeuronConfig(source=source)))
    ticks = 10_000
    for slope in (0.0, 250.0, 500.0):
        peak = _peak_arrays(lambda: sweep_slope(cfg, [slope], ticks), ticks * FACTOR)
        assert peak < bound, f"{slope} V/s: {peak:.2f} arrays"
