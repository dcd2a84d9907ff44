"""Analog feature extraction: the slope-magnitude feature.

The slope path mirrors the analog circuit structure: the first difference is
split into half-wave-rectified branches whose sum, the absolute slope, is
computed directly as |diff|. There is no moving average: the analog
bandwidth is not modelled beyond the linear interpolant between ADC samples,
so the slope is one value per sample of the trace, constant over each of
its segments. The amplitude override compares the signal itself with its
threshold (see `activation`), so no amplitude feature is kept.
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
    slope_gain: float = DEFAULT_SLOPE_GAIN
    amp_threshold_v: float = 0.05

    def __post_init__(self):
        for name in ("slope_gain", "amp_threshold_v"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


def extract_features(x: Trace) -> np.ndarray:
    """Slope magnitude (V/s) of `x` on its own grid: slope[0] = 0 and
    slope[k] = |x[k] - x[k - 1]| * x.rate_hz.

    slope[k] is the slope of the linear interpolant between samples k - 1
    and k, so on the grid `upsample(x, factor)` makes, every step of that
    segment has this slope, up to the rounding of the interpolated steps:
    a caller reads it there without building the grid. The differences are
    written straight into slope[1:]; the slope is the only array allocated,
    and callers may turn it into their drive in place.
    """
    slope = np.empty(len(x))
    slope[0] = 0.0
    d = np.subtract(x.samples[1:], x.samples[:-1], out=slope[1:])
    np.abs(d, out=d)
    d *= x.rate_hz
    return slope


def drive_voltages(slope: np.ndarray, cfg: AfeConfig) -> np.ndarray:
    """In place: slope <- slope_gain * slope, the voltage fed to the p-neuron."""
    slope *= cfg.slope_gain
    return slope
