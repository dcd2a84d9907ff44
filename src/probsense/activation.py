"""Activation unit: p-neuron output ANDed with the ADC clock, plus override.

Per high-rate step the AFE's slope feature drives the p-neuron; its output
is masked by the regular ADC's clock (every steps_per_tick-th step of the
high-rate grid) so samples only ever fall on the regular ADC grid.
A deterministic amplitude override, latched for a configurable hold,
forces acquisition whenever the signal is unambiguously large.
The AFE window, SMOOTHING_S, and the hold, hold_s, are times: a run turns
them into steps at its own high rate, so the upsampling factor changes neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .afe import AfeConfig, drive_voltages, extract_features
from .pbit import (
    PNeuronConfig,
    _activation_inplace,
    activation_probability,
    iid_decisions,
    lfsr_from_seed,
    telegraph_run,
)
from .traces import Trace, upsample

# The AFE's trailing moving-average window: 100 steps on the survey's
# default 100 kHz grid.
SMOOTHING_S = 1e-3


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


def _window_and_hold(cfg: ActivationConfig, rate_hz: float, n: int) -> tuple[int, int]:
    """The AFE window (at least 1) and the override hold (at most n, which latches
    to the run's end as any longer hold would) in steps of an n-step run at rate_hz."""
    return max(1, round(SMOOTHING_S * rate_hz)), round(min(cfg.hold_s * rate_hz, n))


@dataclass(frozen=True, eq=False)
class ActivationTrace:
    """Per-step activation outputs on the high-rate grid.

    gate is nonzero only at sync ticks: gate[i] = (pneuron_out[i] OR
    det_override[i]) AND (i in sync_ticks). With the digital source
    pneuron_out is nonzero only at sync ticks, the only steps it decides, and
    its logistic is evaluated only there; the telegraph's pneuron_out is its
    state after every step. det_override[i] is 1 when a trigger (a step whose
    interpolated signal magnitude is >= amp_threshold_v) fell on a step t
    with t <= i <= t + hold, built from the merged intervals [t, t + hold]
    of the triggers.

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


def _override_latch(trigger_steps: np.ndarray, hold: int, n: int) -> np.ndarray:
    """uint8 mask over n steps, 1 on each interval [t, t + hold] of a trigger t.

    trigger_steps is sorted. Overlapping or adjacent intervals are merged,
    and the mask is the alternating runs of 0 and 1 between their edges. A
    hold of n or more latches to the end of the trace, so it is clamped to n
    before any int64 arithmetic that it could overflow.
    """
    hold = min(hold, n)
    if not trigger_steps.size:
        return np.zeros(n, dtype=np.uint8)
    gap = np.diff(trigger_steps) > hold + 1
    edges = np.empty(2 * (int(np.count_nonzero(gap)) + 1), dtype=np.int64)
    edges[0::2] = trigger_steps[np.concatenate(([True], gap))]
    edges[1::2] = trigger_steps[np.concatenate((gap, [True]))]
    edges[1::2] += hold + 1
    np.minimum(edges, n, out=edges)
    runs = np.diff(edges, prepend=0, append=n)
    return np.repeat((np.arange(runs.size) & 1).astype(np.uint8), runs)


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
    times finer, `upsample(x, factor)`, which is never built: the AFE takes
    its slope in closed form from `x` (see `extract_features`), and the
    override's triggers come from the few segments that can reach the
    threshold (see `_trigger_steps`). Sync ticks fall on every
    steps_per_tick-th step from step 0. The survey passes its ADC-rate trace
    with both numbers set to the upsampling factor, so the ticks are the
    trace's own samples: the regular ADC's clock is the trace's grid. The
    digital source draws one fresh Bernoulli decision per sync tick, so its
    drive and logistic are evaluated only at the ticks; the telegraph source
    evolves on every high-rate step and is read at ticks; its drive and then
    its activation probability are computed in place in the slope array
    `extract_features` returns, so no other step-length float64 array is
    made for them. The override latch is built from the merged trigger
    intervals (see `_override_latch`), not a per-step scan.
    The function drops its reference to `x` once the triggers and features
    are taken: a trace the caller holds nowhere else is freed before the
    p-neuron runs. The entropy source is seeded with `seed`, so the result
    is deterministic per seed.
    """
    spt = steps_per_tick
    if spt < 1:
        raise ValueError(f"steps_per_tick must be >= 1, got {spt}")
    rate_hz = x.rate_hz * int(factor)
    n = (len(x) - 1) * int(factor) + 1
    window, hold = _window_and_hold(cfg, rate_hz, n)
    # the triggers first: their upsampled sub-trace is freed before the slope is made
    trigger_steps = _trigger_steps(x, cfg.afe.amp_threshold_v, factor)
    slope = extract_features(x, window, factor)
    del x
    ticks = np.arange(0, n, spt, dtype=np.int64)

    if cfg.pneuron.source == "digital_iid":
        v_ticks = drive_voltages(slope, cfg.afe, ticks)
        del slope
        lfsr = lfsr_from_seed(seed)
        decisions, _ = iid_decisions(activation_probability(v_ticks, cfg.pneuron), lfsr)
        pneuron_out = np.zeros(n, dtype=np.uint8)
        pneuron_out[ticks] = decisions
    else:
        p = slope  # becomes the drive, then p, in place
        del slope
        p *= cfg.afe.slope_gain
        _activation_inplace(p, cfg.pneuron)
        rng = np.random.default_rng(seed)
        pneuron_out = telegraph_run(p, 1.0 / rate_hz, cfg.pneuron, rng)

    det_override = _override_latch(trigger_steps, hold, n)

    gate = np.zeros(n, dtype=np.uint8)
    gate[ticks] = pneuron_out[ticks] | det_override[ticks]
    return ActivationTrace(
        gate=gate,
        sync_ticks=ticks,
        pneuron_out=pneuron_out,
        det_override=det_override,
        rate_hz=rate_hz,
        steps_per_tick=spt,
        factor=int(factor),
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
