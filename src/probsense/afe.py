"""Analog feature extraction: the slope-magnitude feature.

The slope path mirrors the analog circuit structure: the first difference is
split into half-wave-rectified branches whose sum, the absolute slope, is
computed directly as |diff|; a short trailing moving average then stands in
for the analog bandwidth limit. The caller gives that window in steps: the
activation unit keeps it a fixed time, `activation.SMOOTHING_S`, at any
step rate. The amplitude override compares the signal itself with its
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


# Window means computed per pass, from the end of the running sum backwards:
# a block, its difference buffer and the sums it reads stay in cache.
FEATURE_BLOCK = 1 << 14


def extract_features(x: Trace, window_steps: int, factor: int = 1) -> np.ndarray:
    """Slope magnitude (V/s) of `x` linearly interpolated onto a grid
    `factor` times finer, as `upsample(x, factor)` makes it, at every one of
    its (len(x) - 1) * factor + 1 steps; that grid's rate is
    x.rate_hz * factor.

    slope[i] is the trailing moving average, over window_steps steps, of
    the per-step |dx| * rate on that grid (step 0, which has no
    predecessor, is zero and excluded from averages; leading partial
    windows divide by their count). The interpolant is linear within each
    segment j of `x`, so each of its steps contributes
    g_j = |x[j+1] - x[j]| * x.rate_hz and the running sum
    c of the contributions is known in closed form: at the segment's end it
    is cumsum(factor * g)[j], and r steps into the segment it is the
    previous end plus r * g_j. That is the upsampled trace's own running sum
    up to rounding; at factor 1 it is the same operations, bit for bit.

    c lives in slope[1:] itself and is overwritten with the window means
    (c[i] - c[i - w]) / w one block of FEATURE_BLOCK elements at a time,
    from the end, so every c[i - w] is read before it is overwritten; each
    block's differences go through one block-sized buffer, and the leading
    partial windows are divided in place last. Besides that buffer and two
    arrays of len(x) - 1 at factor > 1, the slope is the only array it
    allocates, and callers may reuse it as their drive.
    """
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    n_seg = len(x) - 1
    n = n_seg * factor + 1
    w = window_steps
    if w < 1:
        raise ValueError(f"window_steps must be >= 1, got {w}")
    if n < w + 1:
        raise ValueError(f"trace too short: need at least {w + 1} steps, got {n}")
    slope = np.empty(n)
    slope[0] = 0.0
    c = slope[1:]
    if factor == 1:
        np.subtract(x.samples[1:], x.samples[:-1], out=c)
        c *= x.rate_hz
        np.abs(c, out=c)
        np.cumsum(c, out=c)
    else:
        g = np.diff(x.samples)
        np.abs(g, out=g)
        g *= x.rate_hz
        # step r of segment j (row j, column r - 1): the previous segment's
        # end + r * g_j, then the ends themselves over the last column
        cols = c.reshape(n_seg, factor)
        ends = np.cumsum(g * factor)
        np.multiply(g[:, None], np.arange(1, factor + 1, dtype=np.float64), out=cols)
        cols[1:] += ends[:-1, None]
        cols[:, -1] = ends
    diff = np.empty(min(FEATURE_BLOCK, c.size))
    for hi in range(c.size, w, -FEATURE_BLOCK):
        lo = max(hi - FEATURE_BLOCK, w)
        d = np.subtract(c[lo:hi], c[lo - w:hi - w], out=diff[:hi - lo])
        np.divide(d, w, out=c[lo:hi])
    c[:w] /= np.arange(1, w + 1)
    return slope


def drive_voltages(slope: np.ndarray, cfg: AfeConfig, steps: np.ndarray) -> np.ndarray:
    """Voltage fed to the p-neuron, slope_gain * slope, at the given step indices."""
    return cfg.slope_gain * slope[steps]
