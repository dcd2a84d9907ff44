"""Activation unit: p-neuron output ANDed with the ADC clock, plus override.

Per high-rate step the AFE features drive the p-neuron; its output is masked
by the regular ADC's clock (every steps_per_tick-th step of the high-rate
grid) so samples only ever fall on the regular ADC grid.
A deterministic amplitude override, latched for a configurable hold window,
forces acquisition whenever the signal is unambiguously large.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .afe import AfeConfig, drive_voltages, extract_features
from .pbit import (
    PNeuronConfig,
    activation_probability,
    iid_decisions,
    lfsr_from_seed,
    telegraph_run,
)
from .traces import Trace


@dataclass(frozen=True)
class ActivationConfig:
    hold_steps: int | None = None  # None: one sync period
    pneuron: PNeuronConfig = field(default_factory=PNeuronConfig)
    afe: AfeConfig = field(default_factory=AfeConfig)

    def __post_init__(self):
        if self.hold_steps is not None and self.hold_steps < 0:
            raise ValueError(f"hold_steps must be >= 0, got {self.hold_steps}")


@dataclass(frozen=True, eq=False)
class ActivationTrace:
    """Per-step activation outputs on the high-rate grid.

    gate is nonzero only at sync ticks: gate[i] = (pneuron_out[i] OR
    det_override[i]) AND (i in sync_ticks). With the digital source
    pneuron_out is nonzero only at sync ticks, the only steps it decides, and
    its logistic is evaluated only there; the telegraph's pneuron_out is its
    state after every step. det_override[i] is 1 when a trigger (amplitude >=
    amp_threshold_v) fell on a step t with t <= i <= t + hold, built from the
    merged intervals [t, t + hold] of the triggers.
    """

    gate: np.ndarray
    sync_ticks: np.ndarray
    pneuron_out: np.ndarray
    det_override: np.ndarray
    rate_hz: float
    t0_s: float
    steps_per_tick: int

    def __len__(self) -> int:
        return self.gate.size

    @property
    def gated_ticks(self) -> np.ndarray:
        """Indices (into sync_ticks) of ticks that fired."""
        return np.flatnonzero(self.gate[self.sync_ticks])


def _override_latch(trigger_steps: np.ndarray, hold: int, n: int) -> np.ndarray:
    """uint8 mask over n steps, 1 on each interval [t, t + hold] of a trigger t.

    trigger_steps is sorted. Overlapping or adjacent intervals are merged, so
    each run is one +1 at its start and one -1 past its end, and the mask is
    their running sum.
    """
    edge = np.zeros(n, dtype=np.int8)
    if trigger_steps.size:
        gap = np.diff(trigger_steps) > hold + 1
        edge[trigger_steps[np.concatenate(([True], gap))]] = 1
        ends = trigger_steps[np.concatenate((gap, [True]))] + hold + 1
        edge[ends[ends < n]] = -1
    return np.cumsum(edge, dtype=np.int8, out=edge).view(np.uint8)


def run_activation(x_high: Trace, cfg: ActivationConfig, steps_per_tick: int) -> ActivationTrace:
    """Sweep the activation unit over a high-rate trace.

    Sync ticks fall on every steps_per_tick-th step from step 0. Callers pass
    the upsampling factor that made x_high, so the ticks are the samples of
    the ADC-rate trace: the regular ADC's clock is the trace's grid. The digital
    source draws one fresh Bernoulli decision per sync tick, so the logistic is
    evaluated only at the ticks; the telegraph source evolves on every
    high-rate step and is read at ticks. The override latch is built from the
    merged trigger intervals (see `_override_latch`), not a per-step scan.
    Deterministic per cfg.pneuron.seed.
    """
    spt = steps_per_tick
    if spt < 1:
        raise ValueError(f"steps_per_tick must be >= 1, got {spt}")
    n = len(x_high)
    feats = extract_features(x_high, cfg.afe)
    trigger_steps = np.flatnonzero(feats.amplitude >= cfg.afe.amp_threshold_v)
    v_in = drive_voltages(feats, cfg.afe)
    del feats
    ticks = np.arange(0, n, spt, dtype=np.int64)

    if cfg.pneuron.source == "digital_iid":
        lfsr = lfsr_from_seed(cfg.pneuron.seed)
        decisions, _ = iid_decisions(activation_probability(v_in[ticks], cfg.pneuron), lfsr)
        pneuron_out = np.zeros(n, dtype=np.uint8)
        pneuron_out[ticks] = decisions
    else:
        p = activation_probability(v_in, cfg.pneuron)
        del v_in
        rng = np.random.default_rng(cfg.pneuron.seed)
        pneuron_out = telegraph_run(p, 1.0 / x_high.rate_hz, cfg.pneuron, rng)

    hold = spt if cfg.hold_steps is None else cfg.hold_steps
    det_override = _override_latch(trigger_steps, hold, n)

    gate = np.zeros(n, dtype=np.uint8)
    gate[ticks] = pneuron_out[ticks] | det_override[ticks]
    return ActivationTrace(
        gate=gate,
        sync_ticks=ticks,
        pneuron_out=pneuron_out,
        det_override=det_override,
        rate_hz=x_high.rate_hz,
        t0_s=x_high.t0_s,
        steps_per_tick=spt,
    )


def average_rate(a: ActivationTrace, window_ticks: int) -> np.ndarray:
    """Fraction of gated ticks per non-overlapping window of sync ticks.

    A trailing partial window is dropped.
    """
    if window_ticks < 1:
        raise ValueError(f"window_ticks must be >= 1, got {window_ticks}")
    if len(a) == 0 or a.sync_ticks.size == 0:
        raise ValueError("empty activation trace")
    g = a.gate[a.sync_ticks]
    n_win = g.size // window_ticks
    if n_win == 0:
        return np.zeros(0, dtype=np.float64)
    return g[: n_win * window_ticks].reshape(n_win, window_ticks).mean(axis=1)


def detection_latency(a: ActivationTrace, onset_step: int) -> float:
    """Seconds from onset_step to the first gated sync tick at or after it."""
    if not 0 <= onset_step < len(a):
        raise ValueError(f"onset_step {onset_step} out of range [0, {len(a)})")
    gated = a.sync_ticks[a.gate[a.sync_ticks] > 0]
    after = gated[gated >= onset_step]
    if after.size == 0:
        raise ValueError("no activation after onset")
    return float(after[0] - onset_step) / a.rate_hz
