"""Activation unit: p-neuron output ANDed with the ADC clock, plus override.

The AFE's slope feature drives the p-neuron. The slope is one value per
sample of the trace, so the drive and the activation probability are too:
every high-rate step of a segment sees its segment's p, and the p-neuron
responds within steps of a change in slope, not after a smoothing window.
Its output is read once per tick of the regular ADC's clock (every
factor-th step of the high-rate grid, the trace's own samples), so samples
only ever fall on the regular ADC grid. A deterministic amplitude
override, latched for a configurable hold, forces acquisition whenever the
signal is unambiguously large. The hold, hold_s, is a time: a run turns it
into steps at its own high rate, so the upsampling factor does not change
it.
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
    """The activation unit's outputs, one per ADC tick: tick k is sample k of
    the trace it was run on and high-rate step k * factor.

    gate = pneuron_out | det_override. pneuron_out is the p-neuron's
    decision at each tick: a fresh digital decision, or the telegraph's
    state at the tick's step. det_override[k] is 1 when a trigger (a step
    whose interpolated signal magnitude is >= amp_threshold_v) fell on a
    step t with t <= k * factor <= t + hold.
    """

    gate: np.ndarray
    pneuron_out: np.ndarray
    det_override: np.ndarray
    rate_hz: float  # high-rate steps per second
    factor: int = 1  # high-rate steps per tick

    @property
    def sync_ticks(self) -> np.ndarray:
        """The tick numbers, 0 to len(self) - 1."""
        return np.arange(self.gate.size)

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
    x: Trace, cfg: ActivationConfig, seed: int, factor: int = 1
) -> ActivationTrace:
    """Run the activation unit over `x`, one decision per sample: the ADC's
    clock is the trace's grid, and tick k is sample k of `x`.

    The high-rate grid is `x` linearly interpolated onto a grid `factor`
    times finer, `upsample(x, factor)`, which is never built; tick k is
    its step k * factor.

    The AFE's slope, and so the drive and the activation probability p,
    are one value per sample of `x` (see `extract_features`), computed in
    place in the slope array. High-rate step s >= 1 lies in segment
    (s - 1) // factor and sees p[(s - 1) // factor + 1], so tick k sees
    p[k]. The digital source draws one fresh Bernoulli decision per tick
    from its p. The telegraph source evolves on every high-rate step and
    is read at the ticks; it takes p and factor as they are, so no array of
    p held over the steps is built. The override's triggers come from the
    few segments that can reach the threshold (see `_trigger_steps`). Each
    tick finds the last trigger at or before its step by `searchsorted` and
    is overridden when that trigger lies within the hold, so no per-step
    latch is built.
    The function drops its reference to `x` once the triggers and features
    are taken: a trace the caller holds nowhere else is freed before the
    p-neuron runs. The entropy source is seeded with `seed`, so the result
    is deterministic per seed.
    """
    factor = _step_count("factor", factor)
    rate_hz = x.rate_hz * factor
    n = (len(x) - 1) * factor + 1
    trigger_steps = _trigger_steps(x, cfg.afe.amp_threshold_v, factor)
    p = _activation_inplace(drive_voltages(extract_features(x), cfg.afe), cfg.pneuron)
    del x

    if cfg.pneuron.source == "digital_iid":
        pneuron_out, _ = iid_decisions(p, lfsr_from_seed(seed))
    else:
        rng = np.random.default_rng(seed)
        pneuron_out = telegraph_run(p, 1.0 / rate_hz, cfg.pneuron, rng,
                                    factor=factor)[::factor].copy()

    # A tick is overridden when the last trigger at or before its step lies
    # within the hold; index -1 (no such trigger) reads the last trigger,
    # which is after the tick.
    det_override = np.zeros(p.size, dtype=np.uint8)
    if trigger_steps.size:
        steps = np.arange(0, n, factor, dtype=np.int64)
        last = trigger_steps[np.searchsorted(trigger_steps, steps, "right") - 1]
        hold = _hold_steps(cfg, rate_hz, n)
        det_override = ((last <= steps) & (steps - last <= hold)).view(np.uint8)
    return ActivationTrace(
        gate=pneuron_out | det_override,
        pneuron_out=pneuron_out,
        det_override=det_override,
        rate_hz=rate_hz,
        factor=factor,
    )


def detection_latency(a: ActivationTrace, onset_step: int) -> float:
    """Seconds from high-rate step onset_step to the first gated tick at or after it."""
    n = (len(a) - 1) * a.factor + 1
    if not 0 <= onset_step < n:
        raise ValueError(f"onset_step {onset_step} out of range [0, {n})")
    gated = np.flatnonzero(a.gate)
    gated *= a.factor
    after = gated[gated >= onset_step]
    if after.size == 0:
        raise ValueError("no activation after onset")
    return float(after[0] - onset_step) / a.rate_hz
