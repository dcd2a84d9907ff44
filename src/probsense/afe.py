"""Analog feature extraction: slope-magnitude and amplitude features.

The slope path mirrors the analog circuit structure: the first difference is
split into half-wave-rectified branches whose sum, the absolute slope, is
computed directly as |diff|; a short trailing moving average then stands in
for the analog bandwidth limit. The
amplitude path is a plain rectifier. Both features can be delayed by a
configurable integer number of grid steps to model analog response latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traces import Trace

# Tuned so the peak slope of the default survey event (unit amplitude,
# 50 Hz Ricker, ~306.6 V/s) drives the p-neuron to p ~= 0.98.
DEFAULT_SLOPE_GAIN = 0.002306


@dataclass(frozen=True)
class AfeConfig:
    smoothing_steps: int = 100
    delay_steps: int = 0
    slope_gain: float = DEFAULT_SLOPE_GAIN
    amp_threshold_v: float = 0.05

    def __post_init__(self):
        if self.smoothing_steps < 1:
            raise ValueError(f"smoothing_steps must be >= 1, got {self.smoothing_steps}")
        if self.delay_steps < 0:
            raise ValueError(f"delay_steps must be >= 0, got {self.delay_steps}")
        if self.slope_gain <= 0:
            raise ValueError(f"slope_gain must be positive, got {self.slope_gain}")
        if self.amp_threshold_v <= 0:
            raise ValueError(f"amp_threshold_v must be positive, got {self.amp_threshold_v}")


@dataclass(frozen=True, eq=False)
class FeatureSignal:
    """Per-step slope magnitude (V/s) and amplitude (V) on the source grid."""

    slope_mag: np.ndarray
    amplitude: np.ndarray
    rate_hz: float
    delay_steps: int

    def __post_init__(self):
        if self.slope_mag.shape != self.amplitude.shape:
            raise ValueError("slope_mag and amplitude must have identical length")

    def __len__(self) -> int:
        return self.slope_mag.size


def extract_features(x: Trace, cfg: AfeConfig) -> FeatureSignal:
    """Compute slope-magnitude and amplitude features aligned with `x`.

    slope_mag[i] is the trailing moving average of |x[i] - x[i-1]| * rate
    (index 0, which has no predecessor, is zero and excluded from averages;
    leading partial windows divide by their count); amplitude[i] is |x[i]|.
    Both are shifted right by cfg.delay_steps with zero fill.
    """
    n = len(x)
    w = cfg.smoothing_steps
    if n < w + 1:
        raise ValueError(f"trace too short: need at least {w + 1} samples, got {n}")
    # One running-sum buffer; the window means go straight into slope[1:].
    c = np.subtract(x.samples[1:], x.samples[:-1])
    c *= x.rate_hz
    np.abs(c, out=c)
    np.cumsum(c, out=c)
    slope = np.empty(n)
    slope[0] = 0.0
    np.divide(c[:w], np.arange(1, w + 1), out=slope[1:w + 1])
    np.subtract(c[w:], c[:-w], out=slope[w + 1:])
    del c
    slope[w + 1:] /= w
    amp = np.abs(x.samples)
    if cfg.delay_steps > 0:
        d = min(cfg.delay_steps, n)
        for f in (slope, amp):
            f[d:] = f[:n - d]
            f[:d] = 0.0
    return FeatureSignal(slope, amp, x.rate_hz, cfg.delay_steps)


def drive_voltages(f: FeatureSignal, cfg: AfeConfig) -> np.ndarray:
    """Voltage fed to the p-neuron at every step: slope_gain * slope_mag."""
    return cfg.slope_gain * f.slope_mag
