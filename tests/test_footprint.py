"""Traced memory peaks of the high-rate kernels, in float64 arrays of the drive's length.

Each kernel allocates little more than the arrays it returns: every fresh
multi-MB temporary on a long drive costs page faults. Each bound sits above
the measured peak, given in parentheses, and says why the peak is that low:

- `upsample` < 1.5 (1.18): its output, which `Trace` keeps without a copy.
- `extract_features` < 1.5 (1.00), in arrays of the trace's own length: the
  slope is computed in closed form, one value per sample.
- `telegraph_run` < 1.0 on a 500 k-step survey drive (0.31) and on constant
  drives of its length saturated ON or OFF (0.36): the uint8 states are the
  only array as long as the run; beyond them it holds one
  `TELEGRAPH_BLOCK`'s uniforms, flags and constant steps, and the flip
  positions.
- `telegraph_run` < 0.8 on a default survey event with p per ADC segment at
  the survey's factor (0.60), and < 2 MiB beyond its states on a 2 M-step
  drive (1.18 MiB): its scratch is one block long, whatever the drive.
- The uint16 LFSR cycle tables build in < 600 KiB (453).
- `run_activation` on a survey event < 1.3 (smtj, 0.44) and < 1.0
  (digital, 0.47): p is one value per ADC sample and the override is read
  at the ticks only, so no step-length drive or latch is built.
- One `sweep_slope` point < 1.6 (smtj, 0.44-0.61) and < 1.2 (digital,
  0.46-0.53): a ramp on the ADC grid, run at the survey's factor.
- A 4-point `sweep_slope` peaks within 0.05 arrays of a 1-point one (0.44
  smtj, 0.46 digital): each point's `ActivationTrace` is dropped before the
  next point runs, so a sweep holds one point's trace whatever its number
  of points (0.83 and 0.86 while the previous point's trace stayed bound).
"""

import tracemalloc

import numpy as np
import pytest

from probsense.activation import ActivationConfig, run_activation
from probsense.afe import AfeConfig, extract_features
from probsense.harness import (
    ExperimentConfig, SweepGrid, _survey_onsets, _synth_one, sweep_slope,
)
from probsense.pbit import (
    TELEGRAPH_BLOCK, PNeuronConfig, _lfsr_cycle, activation_probability, telegraph_run,
)
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


def test_telegraph_run_survey_event():
    """One default survey event, p per ADC segment at the survey's factor:
    a few blocks, whose scratch is one block long."""
    cfg = ExperimentConfig()
    event = _synth_one(cfg.snr_db, _survey_onsets(1, cfg.base_seed)[0], cfg.base_seed)
    pn = PNeuronConfig()
    p = activation_probability(AfeConfig().slope_gain * extract_features(event), pn)
    n = (p.size - 1) * FACTOR + 1
    assert n > 3 * TELEGRAPH_BLOCK
    dt = 1.0 / (event.rate_hz * FACTOR)
    peak = _peak_arrays(lambda: telegraph_run(p, dt, pn, np.random.default_rng(3),
                                              factor=FACTOR), n)
    assert peak < 0.8, f"{peak:.2f} arrays"


def test_lfsr_cycle_build():
    """A fresh build of the uint16 cycle tables, in KiB (128 float64 per KiB)."""
    peak = _peak_arrays(_lfsr_cycle.__wrapped__, 1024 // 8)
    assert peak < 600, f"{peak:.0f} KiB"


def test_telegraph_run_working_memory():
    """A 2 M-step survey-like drive, p per ADC segment at the survey's factor:
    beyond its uint8 states the run holds one block's arrays and the flip
    positions, not arrays as long as the drive."""
    event = synth_event(20.0, 2000.0, 50.0, 10.0, 1.0, 0.004, seed=7)
    cfg = PNeuronConfig()
    p = activation_probability(AfeConfig().slope_gain * extract_features(event), cfg)
    n = (p.size - 1) * FACTOR + 1
    assert n > 60 * TELEGRAPH_BLOCK
    surplus = _peak_arrays(lambda: telegraph_run(p, 1e-5, cfg, np.random.default_rng(3),
                                                 factor=FACTOR), n) * 8 * n - n
    assert surplus < 2 * 2**20, f"{surplus / 2**20:.2f} MiB"


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
    ticks = 10_000
    for slope in (0.0, 250.0, 500.0):
        cfg = ExperimentConfig(activation=ActivationConfig(pneuron=PNeuronConfig(source=source)),
                               sweep=SweepGrid(slope, slope, 1, ticks))
        peak = _peak_arrays(lambda: sweep_slope(cfg), ticks * FACTOR)
        assert peak < bound, f"{slope} V/s: {peak:.2f} arrays"


@pytest.mark.parametrize("source", ["smtj_telegraph", "digital_iid"])
def test_sweep_slope_holds_one_point(source):
    """A 4-point sweep peaks as one point does: the loop keeps each point's
    rate, not its trace. A warm-up sweep first makes the process's one-time
    allocations (the digital source's LFSR tables among them)."""
    ticks = 10_000

    def sweep(slope, points):
        pn = PNeuronConfig(source=source)
        cfg = ExperimentConfig(activation=ActivationConfig(pneuron=pn),
                               sweep=SweepGrid(slope, slope, points, ticks))
        return _peak_arrays(lambda: sweep_slope(cfg), ticks * FACTOR)

    sweep(250.0, 1)
    for slope in (250.0, 500.0):
        one, four = sweep(slope, 1), sweep(slope, 4)
        assert four < one + 0.05, f"{slope} V/s: {four:.2f} arrays against {one:.2f}"
