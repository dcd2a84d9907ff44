"""Activation unit: p-neuron output ANDed with the ADC clock, plus override.

The AFE's slope feature drives the p-neuron. The slope is one value per
sample of the trace, so the drive and the activation probability are too:
every high-rate step of a segment sees its segment's p, and the p-neuron
responds within steps of a change in slope, not after a smoothing window.
Its output is masked by the regular ADC's clock (every steps_per_tick-th
step of the high-rate grid) so samples only ever fall on the regular ADC
grid. A deterministic amplitude override, latched for a configurable hold,
forces acquisition whenever the signal is unambiguously large. The hold,
hold_s, is a time: a run turns it into steps at its own high rate, so the
upsampling factor does not change it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .afe import AfeConfig, drive_voltages, extract_features
from .pbit import (
    PNeuronConfig,
    _activation_inplace,
    iid_decisions,
    lfsr_from_seed,
    telegraph_run,
)
from .traces import Trace, _step_count, upsample


@dataclass(frozen=True)
class ActivationConfig:
    # Override hold: long enough to ride out the decaying tail of an event
    # after its last threshold crossing.
    hold_s: float = 10e-3
    pneuron: PNeuronConfig = field(default_factory=PNeuronConfig)
    afe: AfeConfig = field(default_factory=AfeConfig)

    def __post_init__(self):
        if not (self.hold_s >= 0 and np.isfinite(self.hold_s)):
            raise ValueError(f"hold_s must be finite and >= 0, got {self.hold_s}")


def _hold_steps(cfg: ActivationConfig, rate_hz: float, n: int) -> int:
    """The override hold in steps of an n-step run at rate_hz, at most n, which
    latches to the run's end as any longer hold would."""
    return round(min(cfg.hold_s * rate_hz, n))


@dataclass(frozen=True, eq=False)
class ActivationTrace:
    """Per-step activation outputs on the high-rate grid.

    gate is nonzero only at sync ticks: gate[i] = (pneuron_out[i] OR
    det_override[i]) AND (i in sync_ticks). With the digital source
    pneuron_out is nonzero only at sync ticks, the only steps it decides,
    each with the p of the trace sample that ends its segment, so its
    logistic runs on the trace's samples, and only those the ticks read;
    the telegraph's pneuron_out is its state after every step.
    det_override is nonzero only at sync ticks too: det_override[i] is 1
    at a sync tick i when a trigger (a step whose interpolated signal
    magnitude is >= amp_threshold_v) fell on a step t with t <= i <= t +
    hold. Between ticks it is 0, as nothing reads it there.

    No caller reads pneuron_out. It is kept because it holds the p-neuron
    output until the trace is dropped: freeing it mid-event measured 21.5 k
    minor page faults per `smtj` survey against at most 7.6 k, a heap-layout
    cost, not work.
    """

    gate: np.ndarray
    sync_ticks: np.ndarray
    pneuron_out: np.ndarray
    det_override: np.ndarray
    rate_hz: float
    steps_per_tick: int
    factor: int = 1  # high-rate steps per sample of the trace it was run on

    def __len__(self) -> int:
        return self.gate.size


def _trigger_steps(x: Trace, thr: float, factor: int) -> np.ndarray:
    """The steps of `upsample(x, factor)` whose magnitude is at least thr.

    `upsample` clips each segment to the hull of its two samples, so only a
    segment with an endpoint of magnitude >= thr can reach thr: the steps
    are those of the upsampled sub-trace from one sample before the first
    such sample to one after the last. A trace that stays inside (-thr, thr)
    has none, and nothing is upsampled. For finite values and thr > 0,
    v >= thr or v <= -thr is |v| >= thr, without a float array for |v|.
    """
    s = x.samples
    if s.max() < thr and s.min() > -thr:
        return np.zeros(0, dtype=np.int64)
    hits = np.flatnonzero((s >= thr) | (s <= -thr))
    lo, hi = max(int(hits[0]) - 1, 0), min(int(hits[-1]) + 2, s.size)
    sub = upsample(Trace(s[lo:hi], x.rate_hz, x.t0_s), factor).samples
    steps = np.flatnonzero((sub >= thr) | (sub <= -thr))
    steps += lo * factor
    return steps


def run_activation(
    x: Trace, cfg: ActivationConfig, steps_per_tick: int, seed: int, factor: int = 1
) -> ActivationTrace:
    """Sweep the activation unit over the high-rate steps of a trace.

    The high-rate grid is `x` linearly interpolated onto a grid `factor`
    times finer, `upsample(x, factor)`, which is never built. Sync ticks
    fall on every steps_per_tick-th step from step 0. The survey passes its
    ADC-rate trace with both numbers set to the upsampling factor, so the
    ticks are the trace's own samples: the regular ADC's clock is the
    trace's grid.

    The AFE's slope, and so the drive and the activation probability p,
    are one value per sample of `x` (see `extract_features`), computed in
    place in the slope array. High-rate step s >= 1 lies in segment
    (s - 1) // factor and sees p[(s - 1) // factor + 1]; floor division maps
    step 0 to p[0]. The digital source draws one fresh Bernoulli decision
    per sync tick from the p its tick sees, so its drive and logistic are
    evaluated at the ticks only. The telegraph source evolves on every
    high-rate step and is read at ticks; it takes p and factor as they are,
    so no array of p held over the steps is built. The override's triggers
    come from the few segments that can reach the threshold (see
    `_trigger_steps`). The override is evaluated at the ticks alone: each
    tick finds the last trigger at or before it by `searchsorted` and is
    overridden when that trigger lies within the hold, so no per-step latch
    is built.
    The function drops its reference to `x` once the triggers and features
    are taken: a trace the caller holds nowhere else is freed before the
    p-neuron runs. The entropy source is seeded with `seed`, so the result
    is deterministic per seed.
    """
    spt = _step_count("steps_per_tick", steps_per_tick)
    factor = _step_count("factor", factor)
    rate_hz = x.rate_hz * factor
    n = (len(x) - 1) * factor + 1
    trigger_steps = _trigger_steps(x, cfg.afe.amp_threshold_v, factor)
    slope = extract_features(x)
    del x
    ticks = np.arange(0, n, spt, dtype=np.int64)

    if cfg.pneuron.source == "digital_iid":
        seg = ticks - 1  # tick s >= 1 sees p[(s - 1) // factor + 1], tick 0 p[0]
        seg //= factor
        seg += 1
        p = _activation_inplace(drive_voltages(slope[seg], cfg.afe), cfg.pneuron)
        del slope
        decisions, _ = iid_decisions(p, lfsr_from_seed(seed))
        pneuron_out = np.zeros(n, dtype=np.uint8)
        pneuron_out[ticks] = decisions
    else:
        p = _activation_inplace(drive_voltages(slope, cfg.afe), cfg.pneuron)
        del slope
        rng = np.random.default_rng(seed)
        pneuron_out = telegraph_run(p, 1.0 / rate_hz, cfg.pneuron, rng, factor=factor)

    # A tick is overridden when the last trigger at or before it lies within
    # the hold; index -1 (no such trigger) reads the last trigger, which is
    # after the tick.
    overridden = ticks[:0]
    if trigger_steps.size:
        last = trigger_steps[np.searchsorted(trigger_steps, ticks, "right") - 1]
        overridden = ticks[(last <= ticks) & (ticks - last <= _hold_steps(cfg, rate_hz, n))]
    det_override = np.zeros(n, dtype=np.uint8)
    det_override[overridden] = 1
    gate = np.zeros(n, dtype=np.uint8)
    gate[ticks] = pneuron_out[ticks]
    gate[overridden] = 1
    return ActivationTrace(
        gate=gate,
        sync_ticks=ticks,
        pneuron_out=pneuron_out,
        det_override=det_override,
        rate_hz=rate_hz,
        steps_per_tick=spt,
        factor=factor,
    )


def detection_latency(a: ActivationTrace, onset_step: int) -> float:
    """Seconds from onset_step to the first gated sync tick at or after it."""
    if not 0 <= onset_step < len(a):
        raise ValueError(f"onset_step {onset_step} out of range [0, {len(a)})")
    gated = a.sync_ticks[a.gate[a.sync_ticks] > 0]
    after = gated[gated >= onset_step]
    if after.size == 0:
        raise ValueError("no activation after onset")
    return float(after[0] - onset_step) / a.rate_hz
