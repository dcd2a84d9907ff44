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


def extract_features(x: Trace, cfg: AfeConfig) -> FeatureSignal:
    """Compute slope-magnitude and amplitude features aligned with `x`.

    slope_mag[i] is the trailing moving average of |x[i] - x[i-1]| * rate
    (index 0, which has no predecessor, is zero and excluded from averages;
    leading partial windows divide by their count); amplitude[i] is |x[i]|.
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
    return FeatureSignal(slope, np.abs(x.samples), x.rate_hz)


def drive_voltages(
    f: FeatureSignal, cfg: AfeConfig, steps: np.ndarray | None = None
) -> np.ndarray:
    """Voltage fed to the p-neuron, slope_gain * slope_mag, at every step or
    only at the given step indices (the same values as indexing the full array)."""
    return cfg.slope_gain * (f.slope_mag if steps is None else f.slope_mag[steps])
