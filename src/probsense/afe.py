"""Analog feature extraction: slope-magnitude and amplitude features.

The slope path mirrors the analog circuit structure: the first difference is
split into half-wave-rectified branches whose sum, the absolute slope, is
computed directly as |diff|; a short trailing moving average then stands in
for the analog bandwidth limit. The amplitude path is a plain rectifier.
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
    slope_gain: float = DEFAULT_SLOPE_GAIN
    amp_threshold_v: float = 0.05

    def __post_init__(self):
        if self.smoothing_steps < 1:
            raise ValueError(f"smoothing_steps must be >= 1, got {self.smoothing_steps}")
        for name in ("slope_gain", "amp_threshold_v"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True, eq=False)
class FeatureSignal:
    """Per-step slope magnitude (V/s) and amplitude (V) on the source grid."""

    slope_mag: np.ndarray
    amplitude: np.ndarray
    rate_hz: float

    def __post_init__(self):
        if self.slope_mag.shape != self.amplitude.shape:
            raise ValueError("slope_mag and amplitude must have identical length")

    def __len__(self) -> int:
        return self.slope_mag.size


# Window means computed per pass, from the end of the running sum backwards:
# a block, its difference buffer and the sums it reads stay in cache.
FEATURE_BLOCK = 1 << 14


def extract_features(x: Trace, cfg: AfeConfig) -> FeatureSignal:
    """Compute slope-magnitude and amplitude features aligned with `x`.

    slope_mag[i] is the trailing moving average of |x[i] - x[i-1]| * rate
    (index 0, which has no predecessor, is zero and excluded from averages;
    leading partial windows divide by their count); amplitude[i] is |x[i]|.

    The running sum c of |diff| * rate lives in slope_mag[1:] itself and is
    overwritten with the window means (c[i] - c[i - w]) / w one block of
    FEATURE_BLOCK elements at a time, from the end, so every c[i - w] is
    read before it is overwritten; each block's differences go through one
    block-sized buffer, and the leading partial windows are divided in place
    last. Besides that buffer, the slope and the amplitude are the only
    arrays it allocates, and callers may reuse the slope as their drive.
    """
    n = len(x)
    w = cfg.smoothing_steps
    if n < w + 1:
        raise ValueError(f"trace too short: need at least {w + 1} samples, got {n}")
    slope = np.empty(n)
    slope[0] = 0.0
    c = slope[1:]
    np.subtract(x.samples[1:], x.samples[:-1], out=c)
    c *= x.rate_hz
    np.abs(c, out=c)
    np.cumsum(c, out=c)
    diff = np.empty(min(FEATURE_BLOCK, c.size))
    for hi in range(c.size, w, -FEATURE_BLOCK):
        lo = max(hi - FEATURE_BLOCK, w)
        d = np.subtract(c[lo:hi], c[lo - w:hi - w], out=diff[:hi - lo])
        np.divide(d, w, out=c[lo:hi])
    c[:w] /= np.arange(1, w + 1)
    return FeatureSignal(slope, np.abs(x.samples), x.rate_hz)


def drive_voltages(f: FeatureSignal, cfg: AfeConfig, steps: np.ndarray) -> np.ndarray:
    """Voltage fed to the p-neuron, slope_gain * slope_mag, at the given step indices."""
    return cfg.slope_gain * f.slope_mag[steps]
